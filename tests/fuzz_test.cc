#include <vector>

#include <gtest/gtest.h>

#include "baselines/huffman.h"
#include "baselines/lzrw1.h"
#include "baselines/lzss_huffman.h"
#include "baselines/varbyte.h"
#include "baselines/wordaligned.h"
#include "bitpack/bitpack.h"
#include "core/float_codec.h"
#include "core/kernels.h"
#include "core/segment_reader.h"
#include "ir/posting_codec.h"
#include "util/rng.h"

// Decoder robustness fuzzing: every decompressor must survive arbitrary
// byte soup and truncated/bit-flipped valid streams without crashing or
// overrunning buffers — it may return any Status, or garbage values for
// formats without integrity checks, but never UB. (Run under ASan for
// full effect; the bounds logic is exercised either way.)

namespace scc {
namespace {

// SCC_FUZZ_ITERS overrides each campaign's trial count (the CI nightly
// corruption job raises it well past the interactive defaults).
size_t FuzzIters(size_t dflt) {
  const char* env = std::getenv("SCC_FUZZ_ITERS");
  if (env == nullptr || *env == '\0') return dflt;
  long v = std::atol(env);
  return v > 0 ? size_t(v) : dflt;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) b = uint8_t(rng.Next());
  return v;
}

TEST(FuzzDecoders, RandomByteSoup) {
  for (uint64_t seed = 0; seed < FuzzIters(50); seed++) {
    auto junk = RandomBytes(64 + seed * 37, seed);
    const size_t n = 100;
    std::vector<uint32_t> u32(n);
    std::vector<uint8_t> bytes;
    std::vector<int64_t> i64(n);
    std::vector<double> f64(n);

    (void)HuffmanDecompressBytes(junk.data(), junk.size(), &bytes);
    (void)HuffmanGapCodec::Decompress(junk.data(), junk.size(), u32.data(), n);
    (void)LzssHuffman::Decompress(junk.data(), junk.size(), &bytes);
    std::vector<uint8_t> out(4096);
    (void)Lzrw1::Decompress(junk.data(), junk.size(), out.data(), out.size());
    (void)VByte::Decompress(junk.data(), junk.size(), u32.data(), n);
    std::vector<uint32_t> words(junk.size() / 4);
    std::memcpy(words.data(), junk.data(), words.size() * 4);
    (void)Simple9::Decompress(words.data(), words.size(), u32.data(), n);
    (void)Carryover12::Decompress(words.data(), words.size(), u32.data(), n);
    auto reader = SegmentReader<int64_t>::Open(junk.data(), junk.size());
    (void)reader;
    (void)FloatCodec::Decompress(junk.data(), junk.size(), f64.data(), n);
    for (auto& codec : MakePostingCodecs()) {
      (void)codec->Decompress(junk.data(), junk.size(), u32.data(), n);
    }
  }
  SUCCEED();  // surviving without UB is the assertion (run under ASan)
}

TEST(FuzzDecoders, TruncatedValidStreams) {
  // Compress real data, then feed every decoder successively shorter
  // prefixes of its own valid output.
  Rng rng(9);
  std::vector<uint32_t> gaps(5000);
  for (auto& g : gaps) g = uint32_t(rng.Uniform(1000)) + 1;
  std::vector<uint32_t> ids(gaps.size());
  uint32_t acc = 0;
  for (size_t i = 0; i < gaps.size(); i++) {
    acc += gaps[i];
    ids[i] = acc;
  }
  for (auto& codec : MakePostingCodecs()) {
    auto comp = codec->Compress(ids.data(), ids.size());
    ASSERT_TRUE(comp.ok());
    const auto& buf = comp.ValueOrDie();
    std::vector<uint32_t> out(ids.size());
    for (size_t cut : {size_t(0), size_t(3), buf.size() / 4, buf.size() / 2,
                       buf.size() - 1}) {
      (void)codec->Decompress(buf.data(), cut, out.data(), out.size());
    }
  }
  SUCCEED();
}

TEST(FuzzDecoders, BitflippedSegments) {
  // Single-byte corruptions of a valid segment: Open() either rejects it
  // or yields a reader whose count stays within the original bound, and
  // decoding must not overrun the output buffer.
  Rng rng(10);
  std::vector<int32_t> values(5000);
  for (auto& v : values) {
    v = int32_t(rng.Uniform(500));
    if (rng.Bernoulli(0.05)) v = 1 << 25;
  }
  auto seg = SegmentBuilder<int32_t>::BuildPFor(values,
                                                PForParams<int32_t>{9, 0});
  ASSERT_TRUE(seg.ok());
  const AlignedBuffer& orig = seg.ValueOrDie();
  std::vector<int32_t> out(values.size());
  for (int trial = 0; trial < int(FuzzIters(300)); trial++) {
    AlignedBuffer copy = orig;
    size_t pos = rng.Uniform(sizeof(SegmentHeader));  // header bytes only:
    // the header governs all memory-safety bounds. (Payload flips are the
    // corruption_test battery's job, where per-section CRCs catch them.)
    copy.data()[pos] ^= uint8_t(1 + rng.Uniform(255));
    auto reader = SegmentReader<int32_t>::Open(copy.data(), copy.size());
    if (!reader.ok()) continue;
    const auto& r = reader.ValueOrDie();
    if (r.count() > values.size()) continue;  // output too small: skip
    r.DecompressRange(0, r.count(), out.data());
    // Compressed-domain selection must be equally robust: a flipped
    // summary_offset / entry point / bit width may change the result,
    // never the memory safety.
    std::vector<uint32_t> sel(values.size());
    (void)r.SelectBetween(0, r.count(), int32_t(0), int32_t(400), sel.data());
  }
  SUCCEED();
}

TEST(FuzzDecoders, StructureAwareMutantsAgreeAcrossBackends) {
  // Structure-aware segment mutator: instead of blind byte soup, corrupt
  // the fields the decoders actually steer by — section offsets, counts,
  // bit widths, entry points, and section payload bytes — then require
  // every kernel backend to behave IDENTICALLY on the mutant: same
  // accept/reject decision, and bit-identical decode when accepted. This
  // pins the SIMD paths to the scalar reference on hostile input, not
  // just on valid streams.
  const auto isas = SupportedKernelIsas();
  Rng rng(2026);
  std::vector<int64_t> values(4000);
  for (auto& v : values) {
    v = int64_t(rng.Uniform(100));
    if (rng.Bernoulli(0.08)) v = int64_t(rng.Next());  // exceptions
  }
  std::vector<AlignedBuffer> bases;
  bases.push_back(SegmentBuilder<int64_t>::BuildPFor(
                      values, PForParams<int64_t>{6, 0})
                      .MoveValueOrDie());
  bases.push_back(SegmentBuilder<int64_t>::BuildPForDelta(
                      values, PForParams<int64_t>{6, 0})
                      .MoveValueOrDie());

  for (int trial = 0; trial < int(FuzzIters(600)); trial++) {
    const AlignedBuffer& orig = bases[size_t(trial) % bases.size()];
    AlignedBuffer copy = orig;
    SegmentHeader hdr;
    std::memcpy(&hdr, copy.data(), sizeof(hdr));
    // Pick a structural mutation; some target the header fields that
    // bound sections, some the entry points / payload they bound.
    // Per-trial selection predicate, shared by every backend below.
    const int64_t slo = int64_t(rng.Uniform(200)) - 50;
    const int64_t shi = slo + int64_t(rng.Uniform(200));
    switch (rng.Uniform(8)) {
      case 0:
        hdr.count = uint32_t(rng.Next());
        break;
      case 1:
        hdr.entry_count = uint32_t(rng.Uniform(hdr.entry_count * 2 + 2));
        break;
      case 2:
        hdr.codes_offset = uint32_t(rng.Uniform(hdr.total_size + 64));
        break;
      case 3:
        hdr.exceptions_offset = uint32_t(rng.Uniform(hdr.total_size + 64));
        break;
      case 4:
        hdr.bit_width = uint8_t(rng.Uniform(64));
        break;
      case 5: {  // entry point: bogus first-offset / exception index
        if (hdr.entry_count > 0) {
          size_t e = hdr.entries_offset + 4 * rng.Uniform(hdr.entry_count);
          uint32_t bogus = uint32_t(rng.Next());
          std::memcpy(copy.data() + e, &bogus, 4);
        }
        break;
      }
      case 6:  // summary section: bogus offset / nonzero reserved word
        if (rng.Bernoulli(0.5)) {
          hdr.summary_offset = uint32_t(rng.Uniform(hdr.total_size + 64));
        } else {
          hdr.summary_reserved = uint32_t(rng.Next());
        }
        break;
      default: {  // payload bytes in the code/exception sections
        size_t lo = hdr.codes_offset;
        size_t pos = lo + rng.Uniform(hdr.total_size - lo);
        copy.data()[pos] ^= uint8_t(1 + rng.Uniform(255));
        break;
      }
    }
    std::memcpy(copy.data(), &hdr, sizeof(hdr));

    // Scalar is the reference behavior (checksums off: these mutants are
    // about decoder bounds, not detection).
    bool want_ok;
    std::vector<int64_t> want;
    std::vector<uint32_t> want_sel;
    size_t want_selcnt = 0;
    {
      ScopedKernelIsa force(KernelIsa::kScalar);
      auto reader = SegmentReader<int64_t>::Open(copy.data(), copy.size());
      want_ok = reader.ok();
      if (want_ok) {
        const auto& r = reader.ValueOrDie();
        want.resize(r.count());
        r.DecompressRange(0, r.count(), want.data());
        want_sel.resize(r.count());
        want_selcnt = r.SelectBetween(0, r.count(), slo, shi,
                                      want_sel.data());
      }
    }
    for (KernelIsa isa : isas) {
      ScopedKernelIsa force(isa);
      auto reader = SegmentReader<int64_t>::Open(copy.data(), copy.size());
      ASSERT_EQ(reader.ok(), want_ok)
          << "isa=" << KernelIsaName(isa) << " trial=" << trial;
      if (!want_ok) continue;
      const auto& r = reader.ValueOrDie();
      std::vector<int64_t> got(r.count());
      r.DecompressRange(0, r.count(), got.data());
      ASSERT_EQ(want, got)
          << "isa=" << KernelIsaName(isa) << " trial=" << trial;
      std::vector<uint32_t> got_sel(r.count());
      const size_t got_selcnt =
          r.SelectBetween(0, r.count(), slo, shi, got_sel.data());
      ASSERT_EQ(want_selcnt, got_selcnt)
          << "isa=" << KernelIsaName(isa) << " trial=" << trial;
      for (size_t i = 0; i < got_selcnt; i++) {
        ASSERT_EQ(want_sel[i], got_sel[i])
            << "isa=" << KernelIsaName(isa) << " trial=" << trial;
      }
    }
  }
}

TEST(FuzzDecoders, BackendsAgreeOnRandomStreams) {
  // Differential fuzz across kernel backends: random codes packed at a
  // random width, plus randomized patched-decode inputs, must produce
  // byte-identical output from every backend. This is the freeform
  // counterpart of the structured differential suites in
  // bitpack_test/property_test.
  const auto isas = SupportedKernelIsas();
  for (uint64_t seed = 0; seed < FuzzIters(200); seed++) {
    Rng rng(seed * 31 + 7);
    const int b = int(rng.Uniform(33));
    const size_t n = 1 + rng.Uniform(3000);
    std::vector<uint32_t> codes(n);
    const uint64_t mask =
        (b == 32) ? 0xFFFFFFFFull : ((uint64_t(1) << b) - 1);
    for (auto& c : codes) c = uint32_t(rng.Next() & mask);
    std::vector<uint32_t> packed(PackedByteSize(n, b) / 4 + 1, 0);
    BitPack(codes.data(), n, b, packed.data());

    std::vector<uint32_t> want((n + 31) / 32 * 32, 0);
    std::vector<uint32_t> want_exact(n, 0);
    {
      ScopedKernelIsa force(KernelIsa::kScalar);
      BitUnpack(packed.data(), n, b, want.data());
      BitUnpackExact(packed.data(), n, b, want_exact.data());
    }
    for (KernelIsa isa : isas) {
      ScopedKernelIsa force(isa);
      std::vector<uint32_t> got(want.size(), 1);
      std::vector<uint32_t> got_exact(n, 1);
      BitUnpack(packed.data(), n, b, got.data());
      BitUnpackExact(packed.data(), n, b, got_exact.data());
      ASSERT_EQ(want, got)
          << "isa=" << KernelIsaName(isa) << " seed=" << seed << " b=" << b;
      ASSERT_EQ(want_exact, got_exact)
          << "isa=" << KernelIsaName(isa) << " seed=" << seed << " b=" << b;
    }

    // Compressed-domain select over the same stream: scalar output is the
    // reference for every backend, including the staged tail handling.
    uint32_t slo = uint32_t(rng.Next() & mask);
    uint32_t shi = uint32_t(rng.Next() & mask);
    if (slo > shi) {
      const uint32_t t = slo;
      slo = shi;
      shi = t;
    }
    std::vector<uint32_t> want_sel(n);
    size_t want_selcnt;
    {
      ScopedKernelIsa force(KernelIsa::kScalar);
      want_selcnt = BitSelectBetween(packed.data(), n, b, slo, shi,
                                     uint32_t(seed), want_sel.data());
    }
    for (KernelIsa isa : isas) {
      ScopedKernelIsa force(isa);
      std::vector<uint32_t> got_sel(n, 0xDEADBEEF);
      const size_t got_selcnt = BitSelectBetween(
          packed.data(), n, b, slo, shi, uint32_t(seed), got_sel.data());
      ASSERT_EQ(want_selcnt, got_selcnt)
          << "isa=" << KernelIsaName(isa) << " seed=" << seed << " b=" << b;
      for (size_t i = 0; i < got_selcnt; i++) {
        ASSERT_EQ(want_sel[i], got_sel[i])
            << "isa=" << KernelIsaName(isa) << " seed=" << seed << " b=" << b;
      }
    }

    // Patched decode over a random exception population.
    std::vector<int64_t> data(n);
    const int vb = std::max(1, b % 16);
    const uint64_t vmask = (uint64_t(1) << vb) - 1;
    for (auto& v : data) {
      v = int64_t(rng.Next() & vmask);
      if (rng.Bernoulli(0.1)) v = int64_t(rng.Next());  // exception
    }
    std::vector<uint32_t> code(n), miss(n);
    std::vector<int64_t> exc(n);
    size_t first = 0;
    size_t nexc = CompressPred(data.data(), n, vb, int64_t(0), code.data(),
                               exc.data(), &first, miss.data());
    std::vector<int64_t> want_p(n), want_d(n);
    {
      ScopedKernelIsa force(KernelIsa::kScalar);
      DecompressPatched(code.data(), n, ForCodec<int64_t>(0), exc.data(),
                        first, nexc, want_p.data());
      DecompressPatchedDelta(code.data(), n, ForCodec<int64_t>(0),
                             exc.data(), first, nexc, int64_t(seed),
                             want_d.data());
    }
    ASSERT_EQ(want_p, data) << "seed=" << seed;
    for (KernelIsa isa : isas) {
      ScopedKernelIsa force(isa);
      std::vector<int64_t> got_p(n), got_d(n);
      DecompressPatched(code.data(), n, ForCodec<int64_t>(0), exc.data(),
                        first, nexc, got_p.data());
      DecompressPatchedDelta(code.data(), n, ForCodec<int64_t>(0),
                             exc.data(), first, nexc, int64_t(seed),
                             got_d.data());
      ASSERT_EQ(want_p, got_p)
          << "isa=" << KernelIsaName(isa) << " seed=" << seed;
      ASSERT_EQ(want_d, got_d)
          << "isa=" << KernelIsaName(isa) << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace scc
