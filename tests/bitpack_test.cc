#include "bitpack/bitpack.h"

#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace scc {
namespace {

std::vector<uint32_t> RandomCodes(size_t n, int b, uint64_t seed) {
  Rng rng(seed);
  uint64_t mask = (b == 32) ? 0xFFFFFFFFull : ((uint64_t(1) << b) - 1);
  std::vector<uint32_t> v(n);
  for (auto& x : v) x = uint32_t(rng.Next() & mask);
  return v;
}

class BitPackRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BitPackRoundTrip, GroupOf32) {
  int b = GetParam();
  auto in = RandomCodes(32, b, 7 + b);
  std::vector<uint32_t> packed(32, 0xDEADBEEF);
  std::vector<uint32_t> out(32, 0);
  BitPack(in.data(), 32, b, packed.data());
  BitUnpack(packed.data(), 32, b, out.data());
  EXPECT_EQ(in, out) << "bit width " << b;
}

TEST_P(BitPackRoundTrip, LongStream) {
  int b = GetParam();
  for (size_t n : {1u, 31u, 32u, 33u, 100u, 128u, 1000u, 4096u}) {
    auto in = RandomCodes(n, b, 1000 + b);
    std::vector<uint32_t> packed(PackedByteSize(n, b) / 4 + 1, 0);
    std::vector<uint32_t> out((n + 31) / 32 * 32, 0);
    BitPack(in.data(), n, b, packed.data());
    BitUnpack(packed.data(), n, b, out.data());
    for (size_t i = 0; i < n; i++) {
      ASSERT_EQ(in[i], out[i]) << "b=" << b << " n=" << n << " i=" << i;
    }
  }
}

TEST_P(BitPackRoundTrip, ExtractMatchesUnpack) {
  int b = GetParam();
  const size_t n = 500;
  auto in = RandomCodes(n, b, 99 + b);
  std::vector<uint32_t> packed(PackedByteSize(n, b) / 4 + 2, 0);
  BitPack(in.data(), n, b, packed.data());
  for (size_t i = 0; i < n; i += 7) {
    EXPECT_EQ(in[i], BitExtract(packed.data(), i, b)) << "b=" << b << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBitWidths, BitPackRoundTrip,
                         ::testing::Range(0, 33));

TEST(BitPackSize, PaddedGroupAccounting) {
  EXPECT_EQ(PackedByteSize(0, 7), 0u);
  EXPECT_EQ(PackedByteSize(1, 7), 28u);   // one padded group: 7 words
  EXPECT_EQ(PackedByteSize(32, 7), 28u);
  EXPECT_EQ(PackedByteSize(33, 7), 56u);
  EXPECT_EQ(PackedByteSize(64, 1), 8u);
  EXPECT_EQ(PackedByteSize(128, 32), 512u);
}

TEST(BitPack, ZeroWidthIsAllZeros) {
  std::vector<uint32_t> out(64, 123);
  BitUnpack(nullptr, 64, 0, out.data());
  for (uint32_t v : out) EXPECT_EQ(v, 0u);
}

TEST(BitPack, PackMasksHighBits) {
  // Codes wider than b must be truncated, not corrupt neighbors.
  std::vector<uint32_t> in(32, 0xFFFFFFFFu);
  std::vector<uint32_t> packed(3, 0);
  std::vector<uint32_t> out(32, 0);
  BitPack(in.data(), 32, 3, packed.data());
  BitUnpack(packed.data(), 32, 3, out.data());
  for (uint32_t v : out) EXPECT_EQ(v, 7u);
}

// ---------------------------------------------------------------------------
// Backend differential tests: every supported SIMD backend must produce
// byte-identical output to the scalar backend for every entry point.
// ---------------------------------------------------------------------------

class BackendDifferential : public ::testing::TestWithParam<int> {};

TEST_P(BackendDifferential, UnpackMatchesScalar) {
  const int b = GetParam();
  for (size_t n : {1u, 31u, 32u, 33u, 100u, 128u, 1000u, 4096u}) {
    auto in = RandomCodes(n, b, 31 + b);
    std::vector<uint32_t> packed(PackedByteSize(n, b) / 4 + 1, 0);
    BitPack(in.data(), n, b, packed.data());
    const size_t rounded = (n + 31) / 32 * 32;
    std::vector<uint32_t> want(rounded, 0);
    {
      ScopedKernelIsa force(KernelIsa::kScalar);
      BitUnpack(packed.data(), n, b, want.data());
    }
    for (KernelIsa isa : SupportedKernelIsas()) {
      ScopedKernelIsa force(isa);
      std::vector<uint32_t> got(rounded, 0xABABABAB);
      BitUnpack(packed.data(), n, b, got.data());
      ASSERT_EQ(want, got) << "isa=" << KernelIsaName(isa) << " b=" << b
                           << " n=" << n;
      std::vector<uint32_t> got32(32, 0);
      BitUnpack(packed.data(), 32, b, got32.data());
      for (size_t i = 0; i < 32; i++) {
        ASSERT_EQ(want[i], got32[i])
            << "isa=" << KernelIsaName(isa) << " b=" << b << " i=" << i;
      }
    }
  }
}

TEST_P(BackendDifferential, ExactWritesOnlyN) {
  const int b = GetParam();
  for (size_t n : {1u, 17u, 32u, 33u, 127u, 128u, 129u, 1000u}) {
    auto in = RandomCodes(n, b, 77 + b);
    std::vector<uint32_t> packed(PackedByteSize(n, b) / 4 + 1, 0);
    BitPack(in.data(), n, b, packed.data());
    for (KernelIsa isa : SupportedKernelIsas()) {
      ScopedKernelIsa force(isa);
      // Guard canary directly after position n must survive.
      std::vector<uint32_t> got(n + 8, 0xCAFEF00D);
      BitUnpackExact(packed.data(), n, b, got.data());
      for (size_t i = 0; i < n; i++) {
        ASSERT_EQ(in[i], got[i])
            << "isa=" << KernelIsaName(isa) << " b=" << b << " n=" << n;
      }
      for (size_t i = n; i < got.size(); i++) {
        ASSERT_EQ(got[i], 0xCAFEF00D)
            << "overwrite past n: isa=" << KernelIsaName(isa) << " b=" << b
            << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST_P(BackendDifferential, FusedForMatchesScalar) {
  const int b = GetParam();
  const uint32_t base32 = 0xFFFF0101u;  // exercises wraparound
  const uint64_t base64 = 0xFFFFFFFF00000101ull;
  for (size_t n : {1u, 32u, 63u, 128u, 1000u}) {
    auto in = RandomCodes(n, b, 5 + b);
    std::vector<uint32_t> packed(PackedByteSize(n, b) / 4 + 1, 0);
    BitPack(in.data(), n, b, packed.data());
    for (KernelIsa isa : SupportedKernelIsas()) {
      ScopedKernelIsa force(isa);
      std::vector<uint32_t> got32(n, 0);
      std::vector<uint64_t> got64(n, 0);
      BitUnpackFor32(packed.data(), n, b, base32, got32.data());
      BitUnpackFor64(packed.data(), n, b, base64, got64.data());
      for (size_t i = 0; i < n; i++) {
        ASSERT_EQ(uint32_t(base32 + in[i]), got32[i])
            << "isa=" << KernelIsaName(isa) << " b=" << b << " i=" << i;
        ASSERT_EQ(base64 + in[i], got64[i])
            << "isa=" << KernelIsaName(isa) << " b=" << b << " i=" << i;
      }
    }
  }
}

TEST_P(BackendDifferential, SelectBetweenMatchesScalar) {
  const int b = GetParam();
  const uint32_t max_code =
      b == 32 ? 0xFFFFFFFFu : (uint32_t(1) << b) - (b == 0 ? 0 : 1);
  Rng rng(911 + b);
  for (size_t n : {1u, 31u, 32u, 33u, 100u, 128u, 1000u, 4096u}) {
    auto in = RandomCodes(n, b, 411 + b);
    std::vector<uint32_t> packed(PackedByteSize(n, b) / 4 + 1, 0);
    BitPack(in.data(), n, b, packed.data());
    // Range shapes that stress the kernels: empty, everything, lo == 0
    // (padding codes of the final partial group qualify and must be
    // truncated), single point, and random interior ranges.
    std::vector<std::pair<uint32_t, uint32_t>> ranges = {
        {1, 0},                  // lo > hi: nothing
        {0, max_code},           // everything (incl. padding-sensitive lo=0)
        {0, max_code / 2},       // half, from zero
        {max_code, max_code},    // single point at the top
    };
    for (int r = 0; r < 4; r++) {
      uint32_t a = uint32_t(rng.Next()) & max_code;
      uint32_t c = uint32_t(rng.Next()) & max_code;
      ranges.push_back({std::min(a, c), std::max(a, c)});
    }
    const uint32_t base_index = 1u << 20;  // nonzero base must offset output
    for (auto [lo, hi] : ranges) {
      // Scalar reference straight from the unpacked codes.
      std::vector<uint32_t> want;
      if (lo <= hi) {
        for (size_t i = 0; i < n; i++) {
          if (in[i] >= lo && in[i] <= hi) want.push_back(base_index + i);
        }
      }
      for (KernelIsa isa : SupportedKernelIsas()) {
        ScopedKernelIsa force(isa);
        std::vector<uint32_t> got(n + 8, 0xCAFEF00D);
        const size_t cnt =
            BitSelectBetween(packed.data(), n, b, lo, hi, base_index,
                             got.data());
        ASSERT_EQ(want.size(), cnt)
            << "isa=" << KernelIsaName(isa) << " b=" << b << " n=" << n
            << " lo=" << lo << " hi=" << hi;
        for (size_t i = 0; i < cnt; i++) {
          ASSERT_EQ(want[i], got[i])
              << "isa=" << KernelIsaName(isa) << " b=" << b << " n=" << n
              << " lo=" << lo << " hi=" << hi << " i=" << i;
        }
        for (size_t i = n; i < got.size(); i++) {
          ASSERT_EQ(got[i], 0xCAFEF00D)
              << "overwrite past n: isa=" << KernelIsaName(isa) << " b=" << b;
        }
      }
    }
  }
}

TEST_P(BackendDifferential, ExactSizeHeapBuffers) {
  // Heap buffers sized to the byte (no slack words): under ASan any read
  // or write past PackedByteSize / past the staging contracts is a hard
  // failure. Exercises the wide (b = 26..31) unpack loads, the 32-byte
  // wide-pack stores (b = 17..31), and the select kernels' staged tails.
  const int b = GetParam();
  for (size_t n : {1u, 17u, 32u, 96u, 127u, 128u, 129u, 1000u}) {
    auto in = RandomCodes(n, b, 271 + b);
    const size_t packed_words = PackedByteSize(n, b) / 4;
    for (KernelIsa isa : SupportedKernelIsas()) {
      ScopedKernelIsa force(isa);
      std::vector<uint32_t> packed(packed_words, 0);
      BitPack(in.data(), n, b, packed.data());
      std::vector<uint32_t> out(n);
      BitUnpackExact(packed.data(), n, b, out.data());
      for (size_t i = 0; i < n; i++) {
        ASSERT_EQ(in[i], out[i])
            << "isa=" << KernelIsaName(isa) << " b=" << b << " n=" << n;
      }
      std::vector<uint32_t> sel(n);
      const uint32_t hi = b == 0 ? 0u : (1u << (b - 1));
      const size_t cnt =
          BitSelectBetween(packed.data(), n, b, 0, hi, 0, sel.data());
      ASSERT_LE(cnt, n) << "isa=" << KernelIsaName(isa) << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBitWidths, BackendDifferential,
                         ::testing::Range(0, 33));

TEST(BackendDifferentialFlat, ForDecodeAndPrefixSum) {
  Rng rng(2024);
  for (size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 64u, 1000u, 4097u}) {
    std::vector<uint32_t> codes(n);
    for (auto& c : codes) c = uint32_t(rng.Next());
    const uint32_t base32 = 0x80000001u;
    const uint64_t base64 = 0xFF00000000000001ull;
    // Scalar reference.
    std::vector<uint32_t> want_for32(n);
    std::vector<uint64_t> want_for64(n);
    std::vector<uint32_t> want_ps32(codes.begin(), codes.end());
    std::vector<uint64_t> want_ps64(codes.begin(), codes.end());
    {
      ScopedKernelIsa force(KernelIsa::kScalar);
      ForDecode32(codes.data(), n, base32, want_for32.data());
      ForDecode64(codes.data(), n, base64, want_for64.data());
      PrefixSum32(want_ps32.data(), n, base32);
      PrefixSum64(want_ps64.data(), n, base64);
    }
    for (KernelIsa isa : SupportedKernelIsas()) {
      ScopedKernelIsa force(isa);
      std::vector<uint32_t> got_for32(n);
      std::vector<uint64_t> got_for64(n);
      std::vector<uint32_t> got_ps32(codes.begin(), codes.end());
      std::vector<uint64_t> got_ps64(codes.begin(), codes.end());
      ForDecode32(codes.data(), n, base32, got_for32.data());
      ForDecode64(codes.data(), n, base64, got_for64.data());
      PrefixSum32(got_ps32.data(), n, base32);
      PrefixSum64(got_ps64.data(), n, base64);
      ASSERT_EQ(want_for32, got_for32) << KernelIsaName(isa) << " n=" << n;
      ASSERT_EQ(want_for64, got_for64) << KernelIsaName(isa) << " n=" << n;
      ASSERT_EQ(want_ps32, got_ps32) << KernelIsaName(isa) << " n=" << n;
      ASSERT_EQ(want_ps64, got_ps64) << KernelIsaName(isa) << " n=" << n;
    }
  }
}

TEST(KernelDispatch, QueryAndForce) {
  // Scalar is always available and forcible; the active backend is always
  // one of the supported ones.
  EXPECT_TRUE(KernelIsaSupported(KernelIsa::kScalar));
  EXPECT_TRUE(KernelIsaSupported(ActiveKernelIsa()));
  ScopedKernelIsa restore(ActiveKernelIsa());
  EXPECT_EQ(SupportedKernelIsas().front(), KernelIsa::kScalar);
  EXPECT_TRUE(SetKernelIsa(KernelIsa::kScalar));
  EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kScalar);
  for (KernelIsa isa : SupportedKernelIsas()) {
    EXPECT_TRUE(SetKernelIsa(isa));
    EXPECT_EQ(ActiveKernelIsa(), isa);
    EXPECT_STRNE(KernelIsaName(isa), "?");
  }
  if (!KernelIsaSupported(KernelIsa::kAvx2)) {
    EXPECT_FALSE(SetKernelIsa(KernelIsa::kAvx2));
  }
}

}  // namespace
}  // namespace scc
