#include "util/bitutil.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/crc32c.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace scc {
namespace {

TEST(BitUtil, BitWidth) {
  EXPECT_EQ(BitWidth(0), 0);
  EXPECT_EQ(BitWidth(1), 1);
  EXPECT_EQ(BitWidth(2), 2);
  EXPECT_EQ(BitWidth(3), 2);
  EXPECT_EQ(BitWidth(255), 8);
  EXPECT_EQ(BitWidth(256), 9);
  EXPECT_EQ(BitWidth(~0ull), 64);
  for (int b = 1; b < 64; b++) {
    EXPECT_EQ(BitWidth(1ull << b), b + 1) << b;
    EXPECT_EQ(BitWidth((1ull << b) - 1), b) << b;
  }
}

TEST(BitUtil, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1000), 1024u);
  EXPECT_EQ(NextPow2(1u << 20), 1u << 20);
}

TEST(BitUtil, AlignUp) {
  EXPECT_EQ(AlignUp(0, 8), 0u);
  EXPECT_EQ(AlignUp(1, 8), 8u);
  EXPECT_EQ(AlignUp(8, 8), 8u);
  EXPECT_EQ(AlignUp(9, 8), 16u);
  EXPECT_EQ(AlignUp(1023, 64), 1024u);
}

TEST(BitUtil, MaxCodeAndGap) {
  EXPECT_EQ(MaxCode(0), 0u);
  EXPECT_EQ(MaxCode(1), 1u);
  EXPECT_EQ(MaxCode(8), 255u);
  EXPECT_EQ(MaxCode(32), 0xFFFFFFFFu);
  EXPECT_EQ(MaxExceptionGap(0), 1u);
  EXPECT_EQ(MaxExceptionGap(4), 16u);
  EXPECT_EQ(MaxExceptionGap(32), 0xFFFFFFFFu);
}

TEST(BitUtil, ZigZagRoundTrip) {
  EXPECT_EQ(ZigZagEncode<int32_t>(0), 0u);
  EXPECT_EQ(ZigZagEncode<int32_t>(-1), 1u);
  EXPECT_EQ(ZigZagEncode<int32_t>(1), 2u);
  EXPECT_EQ(ZigZagEncode<int32_t>(-2), 3u);
  Rng rng(1);
  for (int i = 0; i < 10000; i++) {
    int64_t v = int64_t(rng.Next());
    EXPECT_EQ(ZigZagDecode(ZigZagEncode<int64_t>(v)), v);
    int32_t w = int32_t(rng.Next());
    EXPECT_EQ(ZigZagDecode(ZigZagEncode<int32_t>(w)), w);
  }
  EXPECT_EQ(ZigZagDecode(ZigZagEncode<int64_t>(
                std::numeric_limits<int64_t>::min())),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(ZigZagDecode(ZigZagEncode<int64_t>(
                std::numeric_limits<int64_t>::max())),
            std::numeric_limits<int64_t>::max());
}

TEST(BitUtil, ZigZagSmallMagnitudesGetSmallCodes) {
  // The point of zig-zag: |v| <= 100 must map into [0, 200].
  for (int v = -100; v <= 100; v++) {
    EXPECT_LE(ZigZagEncode<int32_t>(v), 200u) << v;
  }
}

TEST(Zipf, FrequenciesAreMonotone) {
  ZipfGenerator zipf(100, 1.0, 5);
  std::vector<size_t> counts(100, 0);
  for (int i = 0; i < 200000; i++) counts[zipf.Next()]++;
  // Rank 0 must dominate rank 10 dominate rank 90 (with slack for noise).
  EXPECT_GT(counts[0], counts[10] * 2);
  EXPECT_GT(counts[10], counts[90] * 2);
  EXPECT_EQ(zipf.domain(), 100u);
}

TEST(Crc32c, KnownAnswerVectors) {
  // RFC 3720 (iSCSI) appendix B.4 test vectors for CRC32C.
  std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32cSoftware(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32cSoftware(ones.data(), ones.size()), 0x62A8AB43u);
  std::vector<uint8_t> inc(32);
  for (size_t i = 0; i < inc.size(); i++) inc[i] = uint8_t(i);
  EXPECT_EQ(Crc32cSoftware(inc.data(), inc.size()), 0x46DD794Eu);
  std::vector<uint8_t> dec(32);
  for (size_t i = 0; i < dec.size(); i++) dec[i] = uint8_t(31 - i);
  EXPECT_EQ(Crc32cSoftware(dec.data(), dec.size()), 0x113FDB5Cu);
  // The classic check string.
  const char* s = "123456789";
  EXPECT_EQ(Crc32cSoftware(s, 9), 0xE3069283u);
  // The dispatcher (whatever backend it picked) must match.
  EXPECT_EQ(Crc32c(s, 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

/// The CRC32C entry points this build and CPU can run: the software
/// reference, the dispatcher, then each accelerated kernel called
/// directly, so the dispatcher's length thresholds hide no kernel from
/// the tests. A kernel gets only the lengths its precondition allows;
/// `Run` sends shorter ones to the software reference.
struct CrcBackend {
  const char* name;
  uint32_t (*fn)(const void*, size_t, uint32_t);
  size_t min_len;

  uint32_t Run(const void* data, size_t n, uint32_t seed) const {
    return n >= min_len ? fn(data, n, seed) : Crc32cSoftware(data, n, seed);
  }
};

std::vector<CrcBackend> HostCrcBackends() {
  std::vector<CrcBackend> out = {{"software", &Crc32cSoftware, 0},
                                 {"dispatch", &Crc32c, 0}};
#if SCC_CRC32C_HW
  if (Crc32cHardwareActive()) out.push_back({"hardware", &Crc32cHardware, 0});
#endif
#if SCC_CRC32C_VPCLMUL
  if (Crc32cVpclmulActive()) {
    out.push_back({"vpclmul", &Crc32cVpclmul, 128});
    out.push_back({"fused", &Crc32cFused, 192});
  }
#endif
  return out;
}

TEST(Crc32c, BackendsAgreeOnRandomBuffers) {
  // Differential: every backend vs the always-available software
  // reference, across lengths that hit the 8-byte main loop and the byte
  // tail. 128, 192 and 256 are the clmul kernels' minimums and the
  // dispatcher's clmul threshold; 3071..3073 straddle the hardware
  // kernel's 3-stripe interleave threshold; the large lengths run
  // several merge rounds plus a tail.
  Rng rng(17);
  for (size_t len : {size_t(0), size_t(1), size_t(7), size_t(8), size_t(9),
                     size_t(63), size_t(64), size_t(128), size_t(192),
                     size_t(256), size_t(1000), size_t(3071), size_t(3072),
                     size_t(3073), size_t(4097), size_t(20000),
                     size_t(100003)}) {
    std::vector<uint8_t> buf(len);
    for (auto& b : buf) b = uint8_t(rng.Next());
    const uint32_t want = Crc32cSoftware(buf.data(), len);
    for (const CrcBackend& be : HostCrcBackends()) {
      if (len < be.min_len) continue;
      EXPECT_EQ(be.fn(buf.data(), len, 0), want)
          << "len=" << len << " backend=" << be.name;
    }
  }
}

TEST(Crc32c, SeedChainsSplitBuffers) {
  Rng rng(23);
  std::vector<uint8_t> buf(777);
  for (auto& b : buf) b = uint8_t(rng.Next());
  const uint32_t whole = Crc32cSoftware(buf.data(), buf.size());
  for (const CrcBackend& be : HostCrcBackends()) {
    EXPECT_EQ(be.Run(buf.data(), buf.size(), 0), whole) << be.name;
    for (size_t cut : {size_t(0), size_t(1), size_t(8), size_t(100),
                       size_t(300), buf.size() - 1, buf.size()}) {
      const uint32_t first = be.Run(buf.data(), cut, 0);
      EXPECT_EQ(be.Run(buf.data() + cut, buf.size() - cut, first), whole)
          << "cut=" << cut << " backend=" << be.name;
    }
  }
}

TEST(Crc32c, SeedChainsLargeBuffers) {
  // Same chaining property across the large-buffer dispatch threshold,
  // so each kernel runs with nonzero seeds on both sides of a cut.
  Rng rng(31);
  std::vector<uint8_t> buf(50000);
  for (auto& b : buf) b = uint8_t(rng.Next());
  const uint32_t whole = Crc32cSoftware(buf.data(), buf.size());
  for (const CrcBackend& be : HostCrcBackends()) {
    EXPECT_EQ(be.Run(buf.data(), buf.size(), 0), whole) << be.name;
    for (size_t cut : {size_t(100), size_t(16384), size_t(25000),
                       size_t(33000), buf.size() - 5}) {
      const uint32_t first = be.Run(buf.data(), cut, 0);
      EXPECT_EQ(be.Run(buf.data() + cut, buf.size() - cut, first), whole)
          << "cut=" << cut << " backend=" << be.name;
    }
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  Rng rng(29);
  std::vector<uint8_t> buf(256);
  for (auto& b : buf) b = uint8_t(rng.Next());
  const uint32_t good = Crc32c(buf.data(), buf.size());
  for (size_t pos = 0; pos < buf.size(); pos++) {
    for (int bit = 0; bit < 8; bit++) {
      buf[pos] ^= uint8_t(1u << bit);
      ASSERT_NE(Crc32c(buf.data(), buf.size()), good)
          << "pos=" << pos << " bit=" << bit;
      buf[pos] ^= uint8_t(1u << bit);
    }
  }
}

TEST(Rng, DeterministicAndRoughlyUniform) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; i++) ASSERT_EQ(a.Next(), b.Next());
  Rng c(43);
  size_t below = 0;
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; i++) below += c.NextDouble() < 0.25;
  EXPECT_NEAR(double(below) / kTrials, 0.25, 0.01);
  for (int i = 0; i < 1000; i++) {
    int64_t v = c.UniformInt(-5, 5);
    ASSERT_GE(v, -5);
    ASSERT_LE(v, 5);
  }
}

}  // namespace
}  // namespace scc
