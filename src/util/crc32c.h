#ifndef SCC_UTIL_CRC32C_H_
#define SCC_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) for the segment
// format's per-section checksums. Two backends, mirroring the kernel ISA
// dispatch discipline (bitpack_dispatch.h):
//
//   * software — constexpr slicing-by-8 tables, portable, ~1-2 GB/s;
//   * hardware — the SSE4.2 crc32 instruction (x86, ~15-25 GB/s), in a
//     target("sse4.2")-attributed function selected once via CPUID.
//
// Selection: the best backend the CPU supports. Builds with
// -DSCC_FORCE_SCALAR=ON, non-x86 targets, and non-GNU compilers get the
// software path only. Every backend produces identical digests, and the
// tests call each one the host supports directly against the software
// reference. CRC32C was chosen over plain CRC32 precisely because
// commodity CPUs accelerate it.
//
// Convention: Crc32c(data, n) with no seed is the digest of one buffer;
// pass a previous digest as `seed` to continue over split buffers
// (internally the pre/post inversion makes chaining work transparently).

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(SCC_FORCE_SCALAR)
#define SCC_CRC32C_HW 1
#include <immintrin.h>
#else
#define SCC_CRC32C_HW 0
#endif

// Carry-less-multiply folding (VPCLMULQDQ + AVX-512VL, on 256-bit
// vectors): the bulk path for large buffers, ~3x the crc32-instruction
// ceiling. The fold constants are derived from the polynomial at compile
// time below — no magic numbers.
#if SCC_CRC32C_HW && defined(__x86_64__)
#define SCC_CRC32C_VPCLMUL 1
#else
#define SCC_CRC32C_VPCLMUL 0
#endif

namespace scc {

namespace crc32c_internal {

struct Tables {
  uint32_t t[8][256];
};

constexpr Tables MakeTables() {
  Tables tb{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) {
      c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    tb.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; i++) {
    for (int j = 1; j < 8; j++) {
      tb.t[j][i] = (tb.t[j - 1][i] >> 8) ^ tb.t[0][tb.t[j - 1][i] & 0xFF];
    }
  }
  return tb;
}

inline constexpr Tables kTables = MakeTables();

#if SCC_CRC32C_HW
/// Bytes per stream in the hardware path's interleaved main loop. The
/// crc32 instruction has 3-cycle latency but 1/cycle throughput, so a
/// single dependent chain runs at 1/3 of peak; three independent streams
/// saturate the unit. Streams are merged with the shift-by-kStripe
/// operator below.
inline constexpr size_t kStripe = 1024;

/// CRC state advance by kStripe zero bytes — a GF(2)-linear map on the
/// 32-bit register, decomposed into four 256-entry byte tables (classic
/// crc32c "shift table"). Built once, lazily: 4*256*kStripe byte steps.
struct StripeShift {
  uint32_t t[4][256];
};

inline const StripeShift& StripeShiftTable() {
  static const StripeShift shift = [] {
    StripeShift s;
    const auto& t0 = kTables.t[0];
    for (int j = 0; j < 4; j++) {
      for (uint32_t v = 0; v < 256; v++) {
        uint32_t x = v << (8 * j);
        for (size_t k = 0; k < kStripe; k++) x = (x >> 8) ^ t0[x & 0xFF];
        s.t[j][v] = x;
      }
    }
    return s;
  }();
  return shift;
}

inline uint32_t ShiftStripe(uint32_t x, const StripeShift& s) {
  return s.t[0][x & 0xFF] ^ s.t[1][(x >> 8) & 0xFF] ^
         s.t[2][(x >> 16) & 0xFF] ^ s.t[3][x >> 24];
}

/// x^e mod P (Castagnoli, normal form 0x1EDC6F41 with implicit x^32),
/// coefficients of degrees 0..31.
constexpr uint32_t XPowMod(unsigned e) {
  uint32_t r = 1;
  for (unsigned i = 0; i < e; i++) {
    const uint32_t top = r & 0x80000000u;
    r <<= 1;
    if (top != 0) r ^= 0x1EDC6F41u;
  }
  return r;
}

/// a*b mod P over GF(2), operands/result of degree <= 31.
constexpr uint32_t MulMod(uint32_t a, uint32_t b) {
  uint32_t r = 0;
  for (int i = 31; i >= 0; i--) {
    const uint32_t top = r & 0x80000000u;
    r <<= 1;
    if (top != 0) r ^= 0x1EDC6F41u;
    if (((b >> i) & 1u) != 0) r ^= a;
  }
  return r;
}

/// base^e mod P by square-and-multiply — O(log e) for the arbitrary-
/// distance state shifts the fused hardware path combines with.
constexpr uint32_t PowMod(uint32_t base, uint64_t e) {
  uint32_t r = 1;
  while (e != 0) {
    if ((e & 1) != 0) r = MulMod(r, base);
    base = MulMod(base, base);
    e >>= 1;
  }
  return r;
}

/// Multiplicative inverse of x mod P. P has constant term 1, so the
/// inverse is (P ^ 1)/x with the implicit x^32 term folded into bit 31.
inline constexpr uint32_t kXInverse = ((0x1EDC6F41u ^ 1u) >> 1) | 0x80000000u;
static_assert(MulMod(kXInverse, 2u) == 1u, "x * x^-1 != 1");

/// x^(-33) mod P: corrects for the factor of x a 64x64 clmul introduces
/// and the x^32 the crc32-instruction reduction removes.
inline constexpr uint32_t kXInvPow33 = PowMod(kXInverse, 33);

/// x^(128 * 2^k) mod P for k = 0..31: one squaring chain, so a runtime
/// x^(128m) costs only popcount(m) multiplies.
struct Pow128Table {
  uint32_t v[32];
};
constexpr Pow128Table MakePow128Table() {
  Pow128Table t{};
  t.v[0] = XPowMod(128);
  for (int k = 1; k < 32; k++) t.v[k] = MulMod(t.v[k - 1], t.v[k - 1]);
  return t;
}
inline constexpr Pow128Table kPow128 = MakePow128Table();

/// floor(x^64 / P) — the Barrett constant for reducing a degree-<=63
/// carry-less product mod P. Degree exactly 32, so it fits 33 bits.
constexpr uint64_t ComputeBarrettMu() {
  const unsigned __int128 p = (static_cast<unsigned __int128>(1) << 32) |
                              static_cast<unsigned __int128>(0x1EDC6F41u);
  unsigned __int128 n = static_cast<unsigned __int128>(1) << 64;
  uint64_t q = 0;
  for (int i = 64; i >= 32; i--) {
    if (((n >> i) & 1) != 0) {
      q |= 1ull << (i - 32);
      n ^= p << (i - 32);
    }
  }
  return q;
}
inline constexpr uint64_t kBarrettMu = ComputeBarrettMu();

/// Stores a degree-<=31 polynomial as a reflected 64-bit clmul operand:
/// bit m holds the coefficient of x^(63-m) (little-endian register =
/// byte stream convention).
constexpr uint64_t ReflectPoly(uint32_t p) {
  uint64_t k = 0;
  for (int i = 0; i < 32; i++) {
    if (((p >> i) & 1u) != 0) k |= 1ull << (63 - i);
  }
  return k;
}

/// Fold constant for advancing a reflected 64-bit clmul operand by `d`
/// bits: a 64x64 carry-less product lands in a 128-bit register carrying
/// one extra factor of x, so the operand for "multiply by x^d mod P" is
/// the bit-reflection of x^(d-1) mod P.
constexpr uint64_t FoldK(unsigned d) { return ReflectPoly(XPowMod(d - 1)); }

#if SCC_CRC32C_VPCLMUL
/// Runtime a*b mod P: one carry-less multiply plus a two-step Barrett
/// reduction (~10 cycles vs ~150 for the constexpr bit loop — the bit
/// loop at runtime would dominate mid-size fused calls).
__attribute__((target("pclmul"))) inline uint32_t MulModClmul(uint32_t a,
                                                              uint32_t b) {
  const __m128i prod = _mm_clmulepi64_si128(
      _mm_set_epi64x(0, int64_t(uint64_t(a))),
      _mm_set_epi64x(0, int64_t(uint64_t(b))), 0x00);
  const uint64_t t = uint64_t(_mm_cvtsi128_si64(prod));  // degree <= 62
  const __m128i m1 = _mm_clmulepi64_si128(
      _mm_set_epi64x(0, int64_t(t >> 32)),
      _mm_set_epi64x(0, int64_t(kBarrettMu)), 0x00);
  const uint64_t t1 = uint64_t(_mm_cvtsi128_si64(m1));
  const __m128i m2 = _mm_clmulepi64_si128(
      _mm_set_epi64x(0, int64_t(t1 >> 32)),
      _mm_set_epi64x(0, int64_t((uint64_t(1) << 32) | 0x1EDC6F41u)), 0x00);
  return uint32_t(t ^ uint64_t(_mm_cvtsi128_si64(m2)));
}

/// Reflected clmul operand for "advance a raw CRC state past 16*m zero
/// bytes": x^(128m - 33) mod P, assembled from the kPow128 squaring
/// chain in popcount(m) runtime multiplies.
__attribute__((target("pclmul"))) inline uint64_t StripeShiftConstant(
    uint64_t m) {
  uint32_t a = kXInvPow33;
  for (int k = 0; m != 0; k++, m >>= 1) {
    if ((m & 1) != 0) a = MulModClmul(a, kPow128.v[k]);
  }
  return ReflectPoly(a);
}
#endif  // SCC_CRC32C_VPCLMUL
#endif  // SCC_CRC32C_HW

}  // namespace crc32c_internal

/// Slicing-by-8 software CRC32C. Always available; the differential
/// reference for the hardware path.
inline uint32_t Crc32cSoftware(const void* data, size_t n, uint32_t seed = 0) {
  const auto& t = crc32c_internal::kTables.t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);  // segment format is little-endian throughout
    w ^= crc;
    crc = t[7][w & 0xFF] ^ t[6][(w >> 8) & 0xFF] ^ t[5][(w >> 16) & 0xFF] ^
          t[4][(w >> 24) & 0xFF] ^ t[3][(w >> 32) & 0xFF] ^
          t[2][(w >> 40) & 0xFF] ^ t[1][(w >> 48) & 0xFF] ^
          t[0][(w >> 56) & 0xFF];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFF];
  }
  return ~crc;
}

#if SCC_CRC32C_HW
__attribute__((target("sse4.2"))) inline uint32_t Crc32cHardware(
    const void* data, size_t n, uint32_t seed = 0) {
  using crc32c_internal::kStripe;
  using crc32c_internal::ShiftStripe;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  if (n >= 3 * kStripe) {
    // Three independent crc32 chains over adjacent kStripe stripes, then
    // a GF(2) merge: for equal-length stripes A|B|C starting from state
    // s, state(s, ABC) = shift(shift(state(s,A)) ^ state(0,B)) ^
    // state(0,C), because the CRC step is linear in (state, data).
    const crc32c_internal::StripeShift& sh =
        crc32c_internal::StripeShiftTable();
    do {
      uint64_t c0 = crc, c1 = 0, c2 = 0;
      for (size_t i = 0; i < kStripe; i += 8) {
        uint64_t w0, w1, w2;
        std::memcpy(&w0, p + i, 8);
        std::memcpy(&w1, p + kStripe + i, 8);
        std::memcpy(&w2, p + 2 * kStripe + i, 8);
        c0 = _mm_crc32_u64(c0, w0);
        c1 = _mm_crc32_u64(c1, w1);
        c2 = _mm_crc32_u64(c2, w2);
      }
      crc = ShiftStripe(ShiftStripe(uint32_t(c0), sh) ^ uint32_t(c1), sh) ^
            uint32_t(c2);
      p += 3 * kStripe;
      n -= 3 * kStripe;
    } while (n >= 3 * kStripe);
  }
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    crc = _mm_crc32_u64(crc, w);
    p += 8;
    n -= 8;
  }
  uint32_t c = uint32_t(crc);
  while (n-- > 0) {
    c = _mm_crc32_u8(c, *p++);
  }
  return ~c;
}
#endif

#if SCC_CRC32C_VPCLMUL
/// Bulk path: 256-bit carry-less-multiply folding (VPCLMULQDQ on ymm —
/// deliberately not zmm: 512-bit ops carry a frequency license on server
/// parts that would downclock the decode running right after the
/// verify). Four 32-byte accumulators fold forward by 128 bytes per
/// step, keeping four independent clmul chains in flight (a single
/// chain is latency-bound); they then collapse pairwise via x^512 and
/// x^256 folds, lanes merge via x^128, and the crc32 instruction
/// finishes the last 16 accumulator bytes plus the tail. The seed is
/// absorbed into the first four message bytes (the CRC byte automaton's
/// init state XORs into exactly those), which keeps folding seed-free.
/// Requires n >= 128.
__attribute__((target("avx512vl,vpclmulqdq,pclmul,sse4.2,avx2"))) inline
    uint32_t
    Crc32cVpclmul(const void* data, size_t n, uint32_t seed = 0) {
  using crc32c_internal::FoldK;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const __m256i* v = reinterpret_cast<const __m256i*>(p);
  __m256i acc0 = _mm256_loadu_si256(v);
  __m256i acc1 = _mm256_loadu_si256(v + 1);
  __m256i acc2 = _mm256_loadu_si256(v + 2);
  __m256i acc3 = _mm256_loadu_si256(v + 3);
  acc0 = _mm256_xor_si256(
      acc0, _mm256_set_epi64x(0, 0, 0, int64_t(uint64_t(~seed))));
  p += 128;
  n -= 128;

#define SCC_CRC_FOLD(acc, k, nxt)                                        \
  _mm256_xor_si256(_mm256_xor_si256(_mm256_clmulepi64_epi128(acc, k, 0x00), \
                                    _mm256_clmulepi64_epi128(acc, k, 0x11)), \
                   nxt)
  // Each accumulator advances 128 bytes per step => multiply its lane
  // halves by x^1088 / x^1024 mod P.
  const __m256i k128b = _mm256_broadcastsi128_si256(
      _mm_set_epi64x(int64_t(FoldK(1024)),    // high qwords
                     int64_t(FoldK(1088))));  // low qwords
  while (n >= 128) {
    v = reinterpret_cast<const __m256i*>(p);
    acc0 = SCC_CRC_FOLD(acc0, k128b, _mm256_loadu_si256(v));
    acc1 = SCC_CRC_FOLD(acc1, k128b, _mm256_loadu_si256(v + 1));
    acc2 = SCC_CRC_FOLD(acc2, k128b, _mm256_loadu_si256(v + 2));
    acc3 = SCC_CRC_FOLD(acc3, k128b, _mm256_loadu_si256(v + 3));
    p += 128;
    n -= 128;
  }

  // Collapse: acc0/acc1 sit 64 bytes ahead of acc2/acc3 (x^512), the
  // surviving pair is 32 bytes apart (x^256); then drain remaining
  // 32-byte blocks.
  const __m256i k64b = _mm256_broadcastsi128_si256(
      _mm_set_epi64x(int64_t(FoldK(512)), int64_t(FoldK(576))));
  const __m256i k32b = _mm256_broadcastsi128_si256(
      _mm_set_epi64x(int64_t(FoldK(256)), int64_t(FoldK(320))));
  acc2 = SCC_CRC_FOLD(acc0, k64b, acc2);
  acc3 = SCC_CRC_FOLD(acc1, k64b, acc3);
  __m256i acc = SCC_CRC_FOLD(acc2, k32b, acc3);
  while (n >= 32) {
    acc = SCC_CRC_FOLD(acc, k32b,
                       _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
    p += 32;
    n -= 32;
  }
#undef SCC_CRC_FOLD

  // 256 -> 128: the low lane is 16 bytes ahead of the high lane (x^128).
  const __m128i k16 = _mm_set_epi64x(int64_t(FoldK(128)), int64_t(FoldK(192)));
  const __m128i x0 = _mm256_extracti128_si256(acc, 0);
  const __m128i x = _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x0, k16, 0x00),
                    _mm_clmulepi64_si128(x0, k16, 0x11)),
      _mm256_extracti128_si256(acc, 1));

  // The stream is now equivalent to the 16 accumulator bytes followed by
  // the unprocessed tail, with a zero init (the real init was folded in).
  uint8_t tmp[16];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(tmp), x);
  uint64_t crc = 0;
  uint64_t w;
  std::memcpy(&w, tmp, 8);
  crc = _mm_crc32_u64(crc, w);
  std::memcpy(&w, tmp + 8, 8);
  crc = _mm_crc32_u64(crc, w);
  while (n >= 8) {
    std::memcpy(&w, p, 8);
    crc = _mm_crc32_u64(crc, w);
    p += 8;
    n -= 8;
  }
  uint32_t c = uint32_t(crc);
  while (n-- > 0) {
    c = _mm_crc32_u8(c, *p++);
  }
  return ~c;
}

/// Advances a raw (uninverted) CRC register state across a gap, via one
/// carry-less multiply plus a crc32-instruction reduction. `k` is the
/// reflected constant for the gap length — StripeShiftConstant(m) for a
/// gap of 16*m zero bytes; the product register carries factors of x
/// (from clmul) and x^32 (from the instruction's reduction), which the
/// constant's exponent pre-compensates.
__attribute__((target("pclmul,sse4.2"))) inline uint32_t Crc32cShiftState(
    uint32_t state, uint64_t k) {
  const __m128i prod =
      _mm_clmulepi64_si128(_mm_set_epi64x(0, int64_t(uint64_t(state) << 32)),
                           _mm_set_epi64x(0, int64_t(k)), 0x00);
  uint8_t tmp[16];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(tmp), prod);
  uint64_t c = 0;
  uint64_t w;
  std::memcpy(&w, tmp, 8);
  c = _mm_crc32_u64(c, w);
  std::memcpy(&w, tmp + 8, 8);
  c = _mm_crc32_u64(c, w);
  return uint32_t(c);
}

/// Large-buffer path: clmul folding and the crc32 instruction execute on
/// different ports, so running both at once on disjoint regions beats
/// either alone. The buffer splits as [clmul 128m][4 crc32 stripes of
/// 16m each][tail]; one loop interleaves the 4-accumulator ymm fold
/// (port 5: 8 clmuls/iteration) with four independent crc32 chains
/// (port 1: 8 crc32/iteration), and Crc32cShiftState stitches the five
/// raw states back together. Requires n >= 192.
__attribute__((target("avx512vl,vpclmulqdq,pclmul,sse4.2,avx2"))) inline
    uint32_t
    Crc32cFused(const void* data, size_t n, uint32_t seed = 0) {
  using crc32c_internal::FoldK;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const size_t m = n / 192;
  const size_t r = 16 * m;
  const uint8_t* p1 = p + 128 * m;  // stripe cursors
  const uint8_t* p2 = p1 + r;
  const uint8_t* p3 = p2 + r;
  const uint8_t* p4 = p3 + r;
  const uint8_t* tail = p4 + r;
  size_t tail_n = n - 192 * m;

  const __m256i* v = reinterpret_cast<const __m256i*>(p);
  __m256i acc0 = _mm256_loadu_si256(v);
  __m256i acc1 = _mm256_loadu_si256(v + 1);
  __m256i acc2 = _mm256_loadu_si256(v + 2);
  __m256i acc3 = _mm256_loadu_si256(v + 3);
  acc0 = _mm256_xor_si256(
      acc0, _mm256_set_epi64x(0, 0, 0, int64_t(uint64_t(~seed))));
  p += 128;

#define SCC_CRC_FOLD(acc, k, nxt)                                        \
  _mm256_xor_si256(_mm256_xor_si256(_mm256_clmulepi64_epi128(acc, k, 0x00), \
                                    _mm256_clmulepi64_epi128(acc, k, 0x11)), \
                   nxt)
  const __m256i k128b = _mm256_broadcastsi128_si256(
      _mm_set_epi64x(int64_t(FoldK(1024)), int64_t(FoldK(1088))));
  uint64_t c1 = 0, c2 = 0, c3 = 0, c4 = 0;
  uint64_t w;
  for (size_t i = 1; i < m; i++) {
    v = reinterpret_cast<const __m256i*>(p);
    acc0 = SCC_CRC_FOLD(acc0, k128b, _mm256_loadu_si256(v));
    acc1 = SCC_CRC_FOLD(acc1, k128b, _mm256_loadu_si256(v + 1));
    acc2 = SCC_CRC_FOLD(acc2, k128b, _mm256_loadu_si256(v + 2));
    acc3 = SCC_CRC_FOLD(acc3, k128b, _mm256_loadu_si256(v + 3));
    p += 128;
    std::memcpy(&w, p1, 8);
    c1 = _mm_crc32_u64(c1, w);
    std::memcpy(&w, p1 + 8, 8);
    c1 = _mm_crc32_u64(c1, w);
    p1 += 16;
    std::memcpy(&w, p2, 8);
    c2 = _mm_crc32_u64(c2, w);
    std::memcpy(&w, p2 + 8, 8);
    c2 = _mm_crc32_u64(c2, w);
    p2 += 16;
    std::memcpy(&w, p3, 8);
    c3 = _mm_crc32_u64(c3, w);
    std::memcpy(&w, p3 + 8, 8);
    c3 = _mm_crc32_u64(c3, w);
    p3 += 16;
    std::memcpy(&w, p4, 8);
    c4 = _mm_crc32_u64(c4, w);
    std::memcpy(&w, p4 + 8, 8);
    c4 = _mm_crc32_u64(c4, w);
    p4 += 16;
  }
  // The loop ran m-1 times; each stripe has 16 bytes left.
  for (int q = 0; q < 2; q++) {
    std::memcpy(&w, p1, 8);
    c1 = _mm_crc32_u64(c1, w);
    p1 += 8;
    std::memcpy(&w, p2, 8);
    c2 = _mm_crc32_u64(c2, w);
    p2 += 8;
    std::memcpy(&w, p3, 8);
    c3 = _mm_crc32_u64(c3, w);
    p3 += 8;
    std::memcpy(&w, p4, 8);
    c4 = _mm_crc32_u64(c4, w);
    p4 += 8;
  }

  // Collapse the fold accumulators exactly as Crc32cVpclmul does.
  const __m256i k64b = _mm256_broadcastsi128_si256(
      _mm_set_epi64x(int64_t(FoldK(512)), int64_t(FoldK(576))));
  const __m256i k32b = _mm256_broadcastsi128_si256(
      _mm_set_epi64x(int64_t(FoldK(256)), int64_t(FoldK(320))));
  acc2 = SCC_CRC_FOLD(acc0, k64b, acc2);
  acc3 = SCC_CRC_FOLD(acc1, k64b, acc3);
  const __m256i acc = SCC_CRC_FOLD(acc2, k32b, acc3);
#undef SCC_CRC_FOLD
  const __m128i k16 = _mm_set_epi64x(int64_t(FoldK(128)), int64_t(FoldK(192)));
  const __m128i x0 = _mm256_extracti128_si256(acc, 0);
  const __m128i x = _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x0, k16, 0x00),
                    _mm_clmulepi64_si128(x0, k16, 0x11)),
      _mm256_extracti128_si256(acc, 1));
  uint8_t tmp[16];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(tmp), x);
  uint64_t crc = 0;
  std::memcpy(&w, tmp, 8);
  crc = _mm_crc32_u64(crc, w);
  std::memcpy(&w, tmp + 8, 8);
  crc = _mm_crc32_u64(crc, w);

  // Stitch: clmul-region state, then each stripe r bytes further along.
  const uint64_t ks = crc32c_internal::StripeShiftConstant(m);
  uint32_t s = uint32_t(crc);
  s = Crc32cShiftState(s, ks) ^ uint32_t(c1);
  s = Crc32cShiftState(s, ks) ^ uint32_t(c2);
  s = Crc32cShiftState(s, ks) ^ uint32_t(c3);
  s = Crc32cShiftState(s, ks) ^ uint32_t(c4);

  crc = s;
  while (tail_n >= 8) {
    std::memcpy(&w, tail, 8);
    crc = _mm_crc32_u64(crc, w);
    tail += 8;
    tail_n -= 8;
  }
  uint32_t c = uint32_t(crc);
  while (tail_n-- > 0) {
    c = _mm_crc32_u8(c, *tail++);
  }
  return ~c;
}

#endif

/// True when the hardware path is compiled in and the CPU supports SSE4.2.
inline bool Crc32cHardwareActive() {
#if SCC_CRC32C_HW
  static const bool active = bool(__builtin_cpu_supports("sse4.2"));
  return active;
#else
  return false;
#endif
}

#if SCC_CRC32C_VPCLMUL
/// True when the CPU also has AVX-512VL + VPCLMULQDQ, which
/// Crc32cVpclmul and Crc32cFused need.
inline bool Crc32cVpclmulActive() {
  static const bool active =
      Crc32cHardwareActive() && bool(__builtin_cpu_supports("avx512vl")) &&
      bool(__builtin_cpu_supports("avx2")) &&
      bool(__builtin_cpu_supports("vpclmulqdq")) &&
      bool(__builtin_cpu_supports("pclmul"));
  return active;
}
#endif

/// "hw" or "sw"; exported by scc_inspect --verify for operator context.
inline const char* Crc32cBackendName() {
#if SCC_CRC32C_VPCLMUL
  if (Crc32cVpclmulActive()) return "hw+vpclmul";
#endif
  return Crc32cHardwareActive() ? "hw" : "sw";
}

/// CRC32C of `n` bytes. Chain split buffers by passing the previous
/// digest as `seed`.
inline uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0) {
#if SCC_CRC32C_VPCLMUL
  if (Crc32cVpclmulActive()) {
    // Large buffers: fused clmul + crc32-instruction kernel saturates
    // two execution ports at once. Mid-size: pure clmul folding.
    if (n >= 16384) return Crc32cFused(data, n, seed);
    if (n >= 256) return Crc32cVpclmul(data, n, seed);
  }
#endif
#if SCC_CRC32C_HW
  if (Crc32cHardwareActive()) return Crc32cHardware(data, n, seed);
#endif
  return Crc32cSoftware(data, n, seed);
}

}  // namespace scc

#endif  // SCC_UTIL_CRC32C_H_
