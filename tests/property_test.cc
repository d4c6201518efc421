#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/bitpack_dispatch.h"
#include "core/analyzer.h"
#include "core/kernels.h"
#include "core/segment_builder.h"
#include "core/segment_reader.h"
#include "util/rng.h"
#include "util/zipf.h"

// Property-based suites over randomized inputs:
//   * structural invariants of the segment format (entry-point
//     monotonicity, in-group gap bounds, section bounds)
//   * equivalence of the production segment path with the flat Section-3
//     kernels and with a scalar reference
//   * point access == range access == full decode, for every scheme
//   * approximate optimality of the analyzer against a brute-force grid
//
// Distributions are drawn per-iteration from a family of generators so
// each run covers uniform, clustered, monotone, zipfian and adversarial
// shapes.

namespace scc {
namespace {

// A distribution family indexed by `kind`.
std::vector<int64_t> MakeDistribution(int kind, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> v(n);
  switch (kind % 6) {
    case 0:  // uniform small domain
      for (auto& x : v) x = int64_t(rng.Uniform(1000));
      break;
    case 1:  // clustered with outliers
      for (auto& x : v) {
        x = 500000 + int64_t(rng.Uniform(300));
        if (rng.Bernoulli(0.02)) x = int64_t(rng.Next());
      }
      break;
    case 2: {  // monotone with jumps
      int64_t acc = -1000;
      for (auto& x : v) {
        acc += int64_t(rng.Uniform(50));
        if (rng.Bernoulli(0.01)) acc += 1 << 20;
        x = acc;
      }
      break;
    }
    case 3: {  // zipf-skewed domain
      ZipfGenerator zipf(2000, 1.2, seed + 1);
      for (auto& x : v) x = int64_t(zipf.Next()) * 7919 - 40000;
      break;
    }
    case 4:  // adversarial: alternating tiny/huge
      for (size_t i = 0; i < n; i++) {
        v[i] = (i % 2 == 0) ? int64_t(i % 7) : (int64_t(1) << 50) + int64_t(i);
      }
      break;
    default:  // constant with a single outlier
      std::fill(v.begin(), v.end(), 123456);
      if (n > 3) v[n / 3] = -987654321;
      break;
  }
  return v;
}

class SegmentPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SegmentPropertyTest, AnalyzeBuildDecodeScalarReference) {
  const int kind = GetParam();
  for (size_t n : {size_t(1), size_t(257), size_t(5000), size_t(40000)}) {
    auto v = MakeDistribution(kind, n, kind * 1000 + n);
    auto choice = Analyzer<int64_t>::Analyze(
        std::span<const int64_t>(v.data(), std::min(n, size_t(16384))));
    auto seg = SegmentBuilder<int64_t>::Build(v, choice);
    ASSERT_TRUE(seg.ok()) << choice.ToString();
    auto reader = SegmentReader<int64_t>::Open(seg.ValueOrDie().data(),
                                               seg.ValueOrDie().size());
    ASSERT_TRUE(reader.ok());
    const auto& r = reader.ValueOrDie();
    std::vector<int64_t> out(n);
    r.DecompressAll(out.data());
    ASSERT_EQ(out, v) << "kind=" << kind << " n=" << n << " "
                      << choice.ToString();
  }
}

TEST_P(SegmentPropertyTest, PointRangeFullDecodeAgree) {
  const int kind = GetParam();
  const size_t n = 10000;
  auto v = MakeDistribution(kind, n, kind * 77 + 5);
  for (Scheme scheme : {Scheme::kPFor, Scheme::kPForDelta}) {
    CompressionChoice<int64_t> choice;
    choice.scheme = scheme;
    choice.pfor = PForParams<int64_t>{7, 0};
    auto seg = SegmentBuilder<int64_t>::Build(v, choice);
    ASSERT_TRUE(seg.ok());
    auto reader = SegmentReader<int64_t>::Open(seg.ValueOrDie().data(),
                                               seg.ValueOrDie().size());
    ASSERT_TRUE(reader.ok());
    const auto& r = reader.ValueOrDie();
    std::vector<int64_t> full(n);
    r.DecompressAll(full.data());
    ASSERT_EQ(full, v);
    Rng rng(3);
    for (int t = 0; t < 200; t++) {
      size_t i = rng.Uniform(n);
      ASSERT_EQ(r.Get(i), v[i]) << SchemeName(scheme) << " i=" << i;
      size_t len = 1 + rng.Uniform(300);
      if (i + len > n) len = n - i;
      std::vector<int64_t> range(len);
      r.DecompressRange(i, len, range.data());
      for (size_t k = 0; k < len; k++) {
        ASSERT_EQ(range[k], v[i + k]) << SchemeName(scheme);
      }
    }
  }
}

TEST_P(SegmentPropertyTest, StructuralInvariants) {
  const int kind = GetParam();
  const size_t n = 128 * 100 + 37;
  auto v = MakeDistribution(kind, n, kind + 123);
  const int b = 5;
  auto seg = SegmentBuilder<int64_t>::BuildPFor(v, PForParams<int64_t>{b, 0});
  ASSERT_TRUE(seg.ok());
  const AlignedBuffer& buf = seg.ValueOrDie();
  SegmentHeader hdr;
  std::memcpy(&hdr, buf.data(), sizeof(hdr));
  ASSERT_TRUE(hdr.Validate(buf.size()).ok());

  const uint32_t* entries =
      reinterpret_cast<const uint32_t*>(buf.data() + hdr.entries_offset);
  // Entry-point exception indices are cumulative and monotone; the final
  // group's range ends at exception_count.
  uint32_t prev = 0;
  for (uint32_t g = 0; g < hdr.entry_count; g++) {
    uint32_t idx = EntryExceptionIndex(entries[g]);
    ASSERT_GE(idx, prev) << "group " << g;
    ASSERT_LE(idx, hdr.exception_count);
    uint32_t first = EntryFirstOffset(entries[g]);
    ASSERT_TRUE(first == kNoException || first < kEntryGroup);
    prev = idx;
  }
  // Walk every group's list: gaps must respect 2^b and stay in-group.
  std::vector<uint32_t> codes(AlignUp(n, 32));
  BitUnpack(reinterpret_cast<const uint32_t*>(buf.data() + hdr.codes_offset),
            n, b, codes.data());
  for (uint32_t g = 0; g < hdr.entry_count; g++) {
    const size_t glo = size_t(g) * kEntryGroup;
    const size_t glen = std::min(kEntryGroup, n - glo);
    uint32_t first = EntryFirstOffset(entries[g]);
    uint32_t count =
        (g + 1 < hdr.entry_count ? EntryExceptionIndex(entries[g + 1])
                                 : hdr.exception_count) -
        EntryExceptionIndex(entries[g]);
    if (count == 0) continue;
    size_t cur = first;
    for (uint32_t k = 0; k < count; k++) {
      ASSERT_LT(cur, glen) << "group " << g;
      size_t gap = size_t(codes[glo + cur]) + 1;
      ASSERT_LE(gap, MaxExceptionGap(b));
      cur += gap;
    }
  }
}

TEST_P(SegmentPropertyTest, SegmentMatchesFlatKernels) {
  // The production segment pipeline and the flat Section-3 kernels must
  // agree on the decoded values for PFOR.
  const int kind = GetParam();
  const size_t n = 4096;  // one flat block, multiple segment groups
  auto v = MakeDistribution(kind, n, kind * 31 + 9);
  const int b = 9;
  const int64_t base = 0;

  std::vector<uint32_t> code(n), miss(n);
  std::vector<int64_t> exc(n), flat_out(n);
  size_t first = 0;
  size_t nexc = CompressPred(v.data(), n, b, base, code.data(), exc.data(),
                             &first, miss.data());
  DecompressPatched(code.data(), n, ForCodec<int64_t>(base), exc.data(),
                    first, nexc, flat_out.data());

  auto seg = SegmentBuilder<int64_t>::BuildPFor(v, PForParams<int64_t>{b, base});
  ASSERT_TRUE(seg.ok());
  auto reader = SegmentReader<int64_t>::Open(seg.ValueOrDie().data(),
                                             seg.ValueOrDie().size());
  std::vector<int64_t> seg_out(n);
  reader.ValueOrDie().DecompressAll(seg_out.data());

  ASSERT_EQ(flat_out, v);
  ASSERT_EQ(seg_out, v);
  // The segment may hold a few more exceptions (gaps bounded per group,
  // lists restart); never fewer than the data demands.
  EXPECT_GE(reader.ValueOrDie().exception_count() + 2 * n / kEntryGroup + 2,
            nexc);
}

TEST_P(SegmentPropertyTest, BackendsAgreeOnSegmentDecode) {
  // The dispatched SIMD backends must decode every scheme byte-identically
  // to the scalar backend — fused unpack+FOR, gap recovery from decoded
  // output, prefix sum, everything.
  const int kind = GetParam();
  for (size_t n : {size_t(1), size_t(129), size_t(4096), size_t(20000)}) {
    auto v = MakeDistribution(kind, n, kind * 311 + n);
    auto choice = Analyzer<int64_t>::Analyze(
        std::span<const int64_t>(v.data(), std::min(n, size_t(16384))));
    auto seg = SegmentBuilder<int64_t>::Build(v, choice);
    ASSERT_TRUE(seg.ok());
    auto reader = SegmentReader<int64_t>::Open(seg.ValueOrDie().data(),
                                               seg.ValueOrDie().size());
    ASSERT_TRUE(reader.ok());
    const auto& r = reader.ValueOrDie();
    std::vector<int64_t> want(n);
    {
      ScopedKernelIsa force(KernelIsa::kScalar);
      r.DecompressAll(want.data());
    }
    ASSERT_EQ(want, v);
    for (KernelIsa isa : SupportedKernelIsas()) {
      ScopedKernelIsa force(isa);
      std::vector<int64_t> got(n, -1);
      r.DecompressAll(got.data());
      ASSERT_EQ(want, got) << "isa=" << KernelIsaName(isa) << " kind="
                           << kind << " n=" << n << " " << choice.ToString();
    }
  }
}

TEST_P(SegmentPropertyTest, BackendsAgreeOnFlatKernels) {
  // DecompressPatched / DecompressPatchedDelta differential across every
  // supported backend, for both value widths with dedicated kernels.
  const int kind = GetParam();
  const size_t n = 4096 + 37;
  auto v64 = MakeDistribution(kind, n, kind * 13 + 1);
  std::vector<int32_t> v32(n);
  for (size_t i = 0; i < n; i++) v32[i] = int32_t(v64[i]);
  const int b = 7;
  auto check = [&](auto tag) {
    using T = decltype(tag);
    std::vector<T> in(n);
    for (size_t i = 0; i < n; i++) in[i] = T(v64[i]);
    std::vector<uint32_t> code(n), miss(n);
    std::vector<T> exc(n);
    size_t first = 0;
    const T base = T(0);
    size_t nexc = CompressPred(in.data(), n, b, base, code.data(),
                               exc.data(), &first, miss.data());
    // Delta input: the same codes interpreted as deltas is still a valid
    // stream; compare backends against scalar rather than round-trip.
    std::vector<T> want(n), want_delta(n);
    {
      ScopedKernelIsa force(KernelIsa::kScalar);
      DecompressPatched(code.data(), n, ForCodec<T>(base), exc.data(),
                        first, nexc, want.data());
      DecompressPatchedDelta(code.data(), n, ForCodec<T>(base), exc.data(),
                             first, nexc, T(42), want_delta.data());
    }
    ASSERT_EQ(want, in);
    for (KernelIsa isa : SupportedKernelIsas()) {
      ScopedKernelIsa force(isa);
      std::vector<T> got(n), got_delta(n);
      DecompressPatched(code.data(), n, ForCodec<T>(base), exc.data(),
                        first, nexc, got.data());
      DecompressPatchedDelta(code.data(), n, ForCodec<T>(base), exc.data(),
                             first, nexc, T(42), got_delta.data());
      ASSERT_EQ(want, got) << "isa=" << KernelIsaName(isa) << " kind="
                           << kind << " width=" << sizeof(T);
      ASSERT_EQ(want_delta, got_delta)
          << "isa=" << KernelIsaName(isa) << " kind=" << kind
          << " width=" << sizeof(T);
    }
  };
  check(int32_t(0));
  check(int64_t(0));
}

INSTANTIATE_TEST_SUITE_P(Distributions, SegmentPropertyTest,
                         ::testing::Range(0, 12));

TEST(AnalyzerProperty, ChoiceNearBruteForceOptimum) {
  // The analyzer's pick must achieve a compressed size within 15% of the
  // best over a brute-force grid of (scheme, bit width) alternatives.
  for (int kind = 0; kind < 6; kind++) {
    const size_t n = 30000;
    auto v = MakeDistribution(kind, n, kind * 7 + 2);
    auto choice = Analyzer<int64_t>::Analyze(
        std::span<const int64_t>(v.data(), 16384));
    auto chosen = SegmentBuilder<int64_t>::Build(v, choice);
    ASSERT_TRUE(chosen.ok());
    size_t best = SIZE_MAX;
    for (int b = 0; b <= 24; b += (b < 8 ? 1 : 4)) {
      // PFOR at the column minimum.
      int64_t mn = *std::min_element(v.begin(), v.end());
      auto p = SegmentBuilder<int64_t>::BuildPFor(v, PForParams<int64_t>{b, mn});
      if (p.ok()) best = std::min(best, p.ValueOrDie().size());
      auto d = SegmentBuilder<int64_t>::BuildPForDelta(
          v, PForParams<int64_t>{b, 0});
      if (d.ok()) best = std::min(best, d.ValueOrDie().size());
    }
    auto raw = SegmentBuilder<int64_t>::BuildUncompressed(v);
    best = std::min(best, raw.ValueOrDie().size());
    EXPECT_LE(double(chosen.ValueOrDie().size()), double(best) * 1.15 + 1024)
        << "kind=" << kind << " " << choice.ToString();
  }
}

}  // namespace
}  // namespace scc
