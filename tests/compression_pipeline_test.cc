#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/bitpack.h"
#include "core/analyzer.h"
#include "core/kernels.h"
#include "core/segment_builder.h"
#include "core/segment_reader.h"
#include "storage/bulk_load.h"
#include "util/rng.h"

// Write-path differential battery (PR 5). The contract under test: the
// compression pipeline produces BYTE-IDENTICAL segments no matter which
// kernel ISA packs them, which flat-kernel variant finds the exceptions,
// or how many threads the bulk loader fans out — so replicas built on
// heterogeneous hardware can be compared by checksum alone.

namespace scc {
namespace {

// ---------------------------------------------------------------------------
// Reference packer: one bit at a time, no shared code with the kernels.
// ---------------------------------------------------------------------------

std::vector<uint32_t> ReferencePack(const std::vector<uint32_t>& in, int b) {
  std::vector<uint32_t> out(PackedByteSize(in.size(), b) / 4, 0);
  for (size_t i = 0; i < in.size(); i++) {
    const uint64_t mask = b == 32 ? ~uint64_t(0) : (uint64_t(1) << b) - 1;
    const uint64_t v = uint64_t(in[i]) & mask;
    const size_t bit0 = (i / 32) * size_t(b) * 32 + (i % 32) * size_t(b);
    for (int k = 0; k < b; k++) {
      const size_t bit = bit0 + size_t(k);
      if ((v >> k) & 1) out[bit / 32] |= uint32_t(1) << (bit % 32);
    }
  }
  return out;
}

TEST(PackKernelsDifferential, BitPackMatchesReferenceOnEveryIsa) {
  Rng rng(1);
  for (size_t n : {size_t(1), size_t(31), size_t(32), size_t(33),
                   size_t(127), size_t(128), size_t(129), size_t(1000),
                   size_t(4096)}) {
    std::vector<uint32_t> in(n);
    for (auto& v : in) v = uint32_t(rng.Next());
    for (int b = 0; b <= kMaxBitWidth; b++) {
      const std::vector<uint32_t> want = ReferencePack(in, b);
      for (KernelIsa isa : SupportedKernelIsas()) {
        ScopedKernelIsa pin(isa);
        // Poisoned exact-size buffer: a kernel that skips pad lanes (or
        // fails to mask stray high bits) leaves 0xAB bytes behind.
        std::vector<uint32_t> got(want.size(), 0xABABABABu);
        uint32_t dummy;  // b == 0 packs zero bytes; keep the pointer valid
        BitPack(in.data(), n, b, got.empty() ? &dummy : got.data());
        ASSERT_TRUE(want == got)
            << "isa=" << KernelIsaName(isa) << " n=" << n << " b=" << b;
      }
    }
  }
}

TEST(PackKernelsDifferential, FusedForEncodeMatchesSubtractThenPack) {
  Rng rng(2);
  const uint32_t base32 = 0x80001234u;
  const uint64_t base64 = (uint64_t(1) << 41) + 17;
  for (size_t n : {size_t(1), size_t(32), size_t(33), size_t(127),
                   size_t(128), size_t(1000)}) {
    std::vector<uint32_t> in32(n);
    std::vector<uint64_t> in64(n);
    for (size_t i = 0; i < n; i++) {
      in32[i] = base32 + uint32_t(rng.Uniform(1u << 20));
      in64[i] = base64 + rng.Uniform(1u << 20);
    }
    for (int b : {0, 1, 5, 8, 12, 16, 20, 32}) {
      std::vector<uint32_t> codes32(n), codes64(n);
      for (size_t i = 0; i < n; i++) {
        codes32[i] = in32[i] - base32;
        codes64[i] = uint32_t(in64[i] - base64);
      }
      const std::vector<uint32_t> want32 = ReferencePack(codes32, b);
      const std::vector<uint32_t> want64 = ReferencePack(codes64, b);
      for (KernelIsa isa : SupportedKernelIsas()) {
        ScopedKernelIsa pin(isa);
        std::vector<uint32_t> got(want32.size(), 0xABABABABu);
        uint32_t dummy;
        ForEncodePack32(in32.data(), n, b, base32,
                        got.empty() ? &dummy : got.data());
        ASSERT_TRUE(want32 == got)
            << "ForEncodePack32 isa=" << KernelIsaName(isa) << " n=" << n
            << " b=" << b;
        got.assign(want64.size(), 0xABABABABu);
        ForEncodePack64(in64.data(), n, b, base64,
                        got.empty() ? &dummy : got.data());
        ASSERT_TRUE(want64 == got)
            << "ForEncodePack64 isa=" << KernelIsaName(isa) << " n=" << n
            << " b=" << b;
      }
    }
  }
}

TEST(PackKernelsDifferential, DeltaEncodeInvertsPrefixSum) {
  Rng rng(3);
  for (size_t n : {size_t(1), size_t(7), size_t(64), size_t(1000)}) {
    std::vector<uint32_t> in32(n), d32(n, 0xDEADBEEFu);
    std::vector<uint64_t> in64(n), d64(n);
    uint32_t a32 = 100;
    uint64_t a64 = uint64_t(1) << 40;
    for (size_t i = 0; i < n; i++) {
      a32 += uint32_t(rng.Uniform(1000));
      a64 += rng.Uniform(1000);
      in32[i] = a32;
      in64[i] = a64;
    }
    for (KernelIsa isa : SupportedKernelIsas()) {
      ScopedKernelIsa pin(isa);
      DeltaEncode32(in32.data(), n, 42, d32.data());
      DeltaEncode64(in64.data(), n, 7, d64.data());
      // prev seeds the first delta...
      EXPECT_EQ(d32[0], in32[0] - 42u) << KernelIsaName(isa);
      EXPECT_EQ(d64[0], in64[0] - 7u) << KernelIsaName(isa);
      for (size_t i = 1; i < n; i++) {
        ASSERT_EQ(d32[i], in32[i] - in32[i - 1]) << KernelIsaName(isa);
        ASSERT_EQ(d64[i], in64[i] - in64[i - 1]) << KernelIsaName(isa);
      }
      // ...and PrefixSum inverts the transform exactly.
      PrefixSum32(d32.data(), n, 42);
      PrefixSum64(d64.data(), n, 7);
      EXPECT_EQ(0, std::memcmp(d32.data(), in32.data(), n * 4));
      EXPECT_EQ(0, std::memcmp(d64.data(), in64.data(), n * 8));
    }
  }
}

// Exact-size HEAP buffers: under ASan, a pack kernel that writes even one
// byte past PackedByteSize(n, b) aborts the test. This is the write-side
// analog of BitUnpackExact's tail contract — SIMD kernels may only use
// their 16-byte write slack when the driver gives them staging room,
// never on the caller's buffer.
TEST(PackKernelsSlack, TrailingGroupNeverWritesPastPackedSize) {
  Rng rng(4);
  for (size_t n : {size_t(1), size_t(17), size_t(33), size_t(96),
                   size_t(100), size_t(129)}) {
    std::vector<uint32_t> in(n);
    for (auto& v : in) v = uint32_t(rng.Next());
    std::vector<uint64_t> big(n, (uint64_t(1) << 40) | 5);
    for (int b = 0; b <= kMaxBitWidth; b++) {
      const size_t words = PackedByteSize(n, b) / 4;
      for (KernelIsa isa : SupportedKernelIsas()) {
        ScopedKernelIsa pin(isa);
        auto exact = std::make_unique<uint32_t[]>(words);
        BitPack(in.data(), n, b, exact.get());
        auto exact2 = std::make_unique<uint32_t[]>(words);
        ForEncodePack64(big.data(), n, b, uint64_t(1) << 40, exact2.get());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Segment-level byte identity.
// ---------------------------------------------------------------------------

template <typename T>
std::vector<uint8_t> BuildBytes(std::span<const T> values) {
  CompressionChoice<T> choice = Analyzer<T>::Analyze(values);
  auto seg = SegmentBuilder<T>::Build(values, choice);
  EXPECT_TRUE(seg.ok()) << seg.status().ToString();
  AlignedBuffer buf = seg.MoveValueOrDie();
  return std::vector<uint8_t>(buf.data(), buf.data() + buf.size());
}

TEST(SegmentPipelineCrossIsa, SegmentsAreByteIdenticalAcrossIsas) {
  Rng rng(5);
  const size_t n = 20000;
  // One column per scheme the analyzer can pick.
  std::vector<int64_t> pfor_vals(n), delta_vals(n), dict_vals(n);
  const std::vector<int64_t> domain = {1ll << 60, -(1ll << 59), 17, -42};
  int64_t acc = int64_t(1) << 41;
  for (size_t i = 0; i < n; i++) {
    pfor_vals[i] = 730000 + int64_t(rng.Uniform(1000));
    if (rng.Bernoulli(0.01)) pfor_vals[i] = int64_t(rng.Next());
    acc += 1 + int64_t(rng.Uniform(100));
    delta_vals[i] = acc;
    dict_vals[i] = domain[rng.Uniform(domain.size())];
  }
  for (std::span<const int64_t> column :
       {std::span<const int64_t>(pfor_vals), std::span<const int64_t>(delta_vals),
        std::span<const int64_t>(dict_vals)}) {
    std::vector<uint8_t> want;
    Scheme scheme{};
    for (KernelIsa isa : SupportedKernelIsas()) {
      ScopedKernelIsa pin(isa);
      std::vector<uint8_t> got = BuildBytes(column);
      auto reader = SegmentReader<int64_t>::Open(got.data(), got.size());
      ASSERT_TRUE(reader.ok());
      if (want.empty()) {
        want = got;
        scheme = reader.ValueOrDie().scheme();
        continue;
      }
      // memcmp covers codes, exceptions, entry points, header — and the
      // v2 CRC32C section checksums, so replicas can diff by checksum.
      ASSERT_EQ(want.size(), got.size()) << KernelIsaName(isa);
      ASSERT_EQ(0, std::memcmp(want.data(), got.data(), want.size()))
          << "scheme=" << int(scheme) << " isa=" << KernelIsaName(isa);
    }
    // The three columns must actually exercise three different schemes.
    SCOPED_TRACE(int(scheme));
  }
}

TEST(SegmentPipelineCrossIsa, FusedAndPatchedPathsRoundTrip) {
  // Exception-free data takes the fused pack path; the same data with
  // planted outliers forces the patched path. Both must decode exactly.
  Rng rng(6);
  for (double rate : {0.0, 0.02}) {
    std::vector<int64_t> v(5000);
    for (auto& x : v) {
      x = 1000 + int64_t(rng.Uniform(4000));
      if (rate > 0 && rng.Bernoulli(rate)) x = int64_t(rng.Next());
    }
    for (KernelIsa isa : SupportedKernelIsas()) {
      ScopedKernelIsa pin(isa);
      CompressionChoice<int64_t> choice = Analyzer<int64_t>::Analyze(v);
      auto seg = SegmentBuilder<int64_t>::Build(v, choice);
      ASSERT_TRUE(seg.ok());
      auto reader = SegmentReader<int64_t>::Open(seg.ValueOrDie().data(),
                                                 seg.ValueOrDie().size());
      ASSERT_TRUE(reader.ok());
      std::vector<int64_t> out(v.size());
      reader.ValueOrDie().DecompressAll(out.data());
      ASSERT_EQ(0, std::memcmp(v.data(), out.data(), v.size() * 8))
          << "rate=" << rate << " isa=" << KernelIsaName(isa);
    }
  }
}

// ---------------------------------------------------------------------------
// Flat-kernel variants.
// ---------------------------------------------------------------------------

TEST(FlatKernelCompress, PredAndDoubleCursorAreByteIdentical) {
  Rng rng(7);
  const int b = 8;
  const int64_t base = -500;
  for (double rate : {0.0, 0.05, 0.5}) {
    for (size_t n : {size_t(1), size_t(100), size_t(101), size_t(4096)}) {
      std::vector<int64_t> in(n);
      for (auto& x : in) {
        x = base + int64_t(rng.Uniform(200));
        if (rng.Bernoulli(rate)) x = base + 100000 + int64_t(rng.Uniform(50));
      }
      std::vector<uint32_t> code_p(n), code_d(n), miss0(n), miss1(n);
      std::vector<int64_t> exc_p(n), exc_d(n);
      size_t first_p = 0, first_d = 0;
      const size_t np = CompressPred(in.data(), n, b, base, code_p.data(),
                                     exc_p.data(), &first_p, miss0.data());
      const size_t nd =
          CompressDC(in.data(), n, b, base, code_d.data(), exc_d.data(),
                     &first_d, miss0.data(), miss1.data());
      // PRED and DC must agree bit for bit: same codes, same exception
      // stream, same list head. (NAIVE intentionally differs — escape
      // codes, not patch lists — so it is round-tripped below instead.)
      ASSERT_EQ(np, nd);
      ASSERT_EQ(first_p, first_d);
      ASSERT_EQ(0, std::memcmp(code_p.data(), code_d.data(), n * 4));
      ASSERT_EQ(0, std::memcmp(exc_p.data(), exc_d.data(), np * 8));
    }
  }
}

TEST(FlatKernelCompress, NaiveRoundTrips) {
  Rng rng(8);
  const int b = 8;
  const int64_t base = -500;
  for (double rate : {0.0, 0.3, 1.0}) {
    const size_t n = 4096;
    std::vector<int64_t> in(n);
    for (auto& x : in) {
      x = base + int64_t(rng.Uniform(200));
      if (rng.Bernoulli(rate)) x = base + 100000 + int64_t(rng.Uniform(50));
    }
    std::vector<uint32_t> code(n);
    std::vector<int64_t> exc(n), out(n);
    CompressNaive(in.data(), n, b, base, code.data(), exc.data());
    DecompressNaive(code.data(), n, b, ForCodec<int64_t>(base), exc.data(),
                    out.data());
    ASSERT_EQ(0, std::memcmp(in.data(), out.data(), n * 8));
  }
}

// ---------------------------------------------------------------------------
// Bulk-load determinism.
// ---------------------------------------------------------------------------

TEST(BulkLoadDeterminism, SegmentBytesIdenticalForEveryThreadCount) {
  Rng rng(9);
  const size_t rows = 300000, chunk = 16 * 1024;
  std::vector<int64_t> ts(rows), price(rows);
  int64_t t = int64_t(1) << 41;
  for (size_t i = 0; i < rows; i++) {
    t += int64_t(rng.Uniform(1u << 12));
    ts[i] = t;
    price[i] = 100 + int64_t(rng.Uniform(900));
    if (rng.Bernoulli(0.01)) price[i] = int64_t(rng.Uniform(1u << 30));
  }
  // The serial Table::AddColumn build is the reference.
  Table ref(chunk);
  ASSERT_TRUE(
      ref.AddColumn<int64_t>("ts", ts, ColumnCompression::kAuto).ok());
  ASSERT_TRUE(
      ref.AddColumn<int64_t>("price", price, ColumnCompression::kPFor).ok());
  for (unsigned threads : {1u, 2u, 8u}) {
    Table table(chunk);
    BulkLoadOptions opts;
    opts.threads = threads;
    opts.mode = ColumnCompression::kAuto;
    ASSERT_TRUE(BulkLoadColumn<int64_t>(&table, "ts", ts, opts).ok());
    opts.mode = ColumnCompression::kPFor;
    ASSERT_TRUE(BulkLoadColumn<int64_t>(&table, "price", price, opts).ok());
    ASSERT_EQ(table.rows(), ref.rows());
    for (size_t c = 0; c < ref.column_count(); c++) {
      const StoredColumn* want = ref.column(c);
      const StoredColumn* got = table.column(c);
      ASSERT_EQ(want->chunk_count(), got->chunk_count());
      for (size_t ci = 0; ci < want->chunk_count(); ci++) {
        ASSERT_EQ(want->chunks[ci].size(), got->chunks[ci].size());
        ASSERT_EQ(0,
                  std::memcmp(want->chunks[ci].data(), got->chunks[ci].data(),
                              want->chunks[ci].size()))
            << "threads=" << threads << " col=" << want->name
            << " chunk=" << ci;
      }
    }
  }
}

TEST(BulkLoadDeterminism, ChunkBuildErrorsPropagate) {
  // A column whose row count disagrees with the table must be rejected,
  // not silently adopted.
  Table table(1024);
  std::vector<int64_t> a(5000, 1), b(6000, 2);
  ASSERT_TRUE(BulkLoadColumn<int64_t>(&table, "a", a, {}).ok());
  EXPECT_FALSE(BulkLoadColumn<int64_t>(&table, "b", b, {}).ok());
  EXPECT_EQ(table.column_count(), 1u);
}

}  // namespace
}  // namespace scc
