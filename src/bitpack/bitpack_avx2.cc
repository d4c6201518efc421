// AVX2 kernel backend. Compiled with -mavx2 (see CMakeLists.txt); only
// ever executed after the dispatcher verified CPU support.
//
// Unpack strategy (bit widths 1..25): 8 lanes per batch. 8 lanes * b bits
// = b bytes, so every batch starts byte-aligned and one constant
// offset/shift pattern serves all four batches of a 32-value group. Two
// unaligned 16-byte loads (lanes 0..3 and 4..7 each span < 16 bytes for
// b <= 25) feed an in-lane VPSHUFB that places each lane's byte-aligned
// 4-byte chunk; VPSRLVD then applies the per-lane sub-byte shift directly
// — no multiply trick needed — and a mask isolates the code.
//
// Wide widths (26..31) can straddle a dword, so the wide kernels decode 4
// values per register as qword lanes: each value is bits [r, r+b) of the
// byte-aligned 8-BYTE chunk at byte (v*b)/8 (r <= 7, so r + b <= 38 < 64
// always). Two 16-byte loads land two chunks per 128-bit lane, in-lane
// VPSHUFB places them, VPSRLVQ applies the per-lane sub-byte shift, and a
// qword mask isolates the codes. Pairs of registers narrow to one 8-dword
// 32-byte store via the SHUFPS + VPERMQ idiom (same as PackFor64Avx2).

#include <immintrin.h>

#include <cstring>
#include <utility>

#include "bitpack/bitpack_kernels.h"

namespace scc {
namespace bitpack_internal {
namespace {

template <int B>
inline __m256i ShufPattern() {
  // Low 128-bit lane: chunk offsets relative to the low load (batch base);
  // high lane: relative to the high load (batch base + Lane8ByteOff(B,4)).
  constexpr int o0 = Lane8ByteOff(B, 0);
  constexpr int o1 = Lane8ByteOff(B, 1);
  constexpr int o2 = Lane8ByteOff(B, 2);
  constexpr int o3 = Lane8ByteOff(B, 3);
  constexpr int h = Lane8ByteOff(B, 4);
  constexpr int o4 = Lane8ByteOff(B, 4) - h;
  constexpr int o5 = Lane8ByteOff(B, 5) - h;
  constexpr int o6 = Lane8ByteOff(B, 6) - h;
  constexpr int o7 = Lane8ByteOff(B, 7) - h;
  return _mm256_setr_epi8(
      o0, o0 + 1, o0 + 2, o0 + 3, o1, o1 + 1, o1 + 2, o1 + 3, o2, o2 + 1,
      o2 + 2, o2 + 3, o3, o3 + 1, o3 + 2, o3 + 3, o4, o4 + 1, o4 + 2, o4 + 3,
      o5, o5 + 1, o5 + 2, o5 + 3, o6, o6 + 1, o6 + 2, o6 + 3, o7, o7 + 1,
      o7 + 2, o7 + 3);
}

template <int B>
inline __m256i ShiftPattern() {
  return _mm256_setr_epi32(Lane8Shift(B, 0), Lane8Shift(B, 1),
                           Lane8Shift(B, 2), Lane8Shift(B, 3),
                           Lane8Shift(B, 4), Lane8Shift(B, 5),
                           Lane8Shift(B, 6), Lane8Shift(B, 7));
}

/// Decodes the 8 codes of one batch starting at `src` (the batch's base
/// byte, always byte-aligned). Reads < 16 + Lane8ByteOff(B,4) + 16 bytes.
template <int B>
inline __m256i UnpackBatch8(const uint8_t* src) {
  static_assert(B >= 1 && B <= kMaxChunk4UnpackBits);
  const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
  const __m128i hi = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(src + Lane8ByteOff(B, 4)));
  const __m256i raw =
      _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
  const __m256i chunks = _mm256_shuffle_epi8(raw, ShufPattern<B>());
  const __m256i vals = _mm256_srlv_epi32(chunks, ShiftPattern<B>());
  return _mm256_and_si256(vals,
                          _mm256_set1_epi32(int((uint32_t(1) << B) - 1)));
}

/// Wide-width shuffle pattern: within each 128-bit lane, bytes 0..7 take
/// the lane's first 8-byte chunk (at its load base) and bytes 8..15 the
/// second (at relative offset O1 / O3, at most 4).
template <int O1, int O3>
inline __m256i WideShufPattern() {
  return _mm256_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, O1, O1 + 1, O1 + 2, O1 + 3,
                          O1 + 4, O1 + 5, O1 + 6, O1 + 7, 0, 1, 2, 3, 4, 5, 6,
                          7, O3, O3 + 1, O3 + 2, O3 + 3, O3 + 4, O3 + 5,
                          O3 + 6, O3 + 7);
}

/// Decodes values 4K..4K+3 of a wide-width group into the four qword
/// lanes. Two 16-byte loads cover the four 8-byte chunks (two per lane).
template <int B, int K>
inline __m256i UnpackWide4(const uint8_t* src) {
  static_assert(B > kMaxChunk4UnpackBits && B <= kMaxSimdUnpackBits);
  constexpr int p0 = WideByteOff(B, 4 * K);
  constexpr int p2 = WideByteOff(B, 4 * K + 2);
  constexpr int o1 = WideByteOff(B, 4 * K + 1) - p0;
  constexpr int o3 = WideByteOff(B, 4 * K + 3) - p2;
  const __m128i lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + p0));
  const __m128i hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + p2));
  const __m256i raw =
      _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
  const __m256i chunks = _mm256_shuffle_epi8(raw, WideShufPattern<o1, o3>());
  const __m256i vals = _mm256_srlv_epi64(
      chunks, _mm256_setr_epi64x(WideShift(B, 4 * K), WideShift(B, 4 * K + 1),
                                 WideShift(B, 4 * K + 2),
                                 WideShift(B, 4 * K + 3)));
  return _mm256_and_si256(vals,
                          _mm256_set1_epi64x(int64_t((uint64_t(1) << B) - 1)));
}

/// Runs `sink(value_index, 4 codes in qword lanes)` over a wide group.
template <int B, typename SinkQ, int... Ks>
inline void UnpackWideGroupAvx2Q(const uint8_t* src, SinkQ&& sink,
                                 std::integer_sequence<int, Ks...>) {
  (sink(4 * Ks, UnpackWide4<B, Ks>(src)), ...);
}

/// Narrows two qword-lane units (values 8K..8K+7) to one 8-dword vector:
/// SHUFPS picks the low dwords, VPERMQ restores source order.
template <int B, int K>
inline __m256i UnpackWide8(const uint8_t* src) {
  const __m256i a = UnpackWide4<B, 2 * K>(src);
  const __m256i b = UnpackWide4<B, 2 * K + 1>(src);
  const __m256i mixed = _mm256_castps_si256(
      _mm256_shuffle_ps(_mm256_castsi256_ps(a), _mm256_castsi256_ps(b),
                        _MM_SHUFFLE(2, 0, 2, 0)));
  return _mm256_permute4x64_epi64(mixed, _MM_SHUFFLE(3, 1, 2, 0));
}

/// Runs `sink(value_index, 8 codes)` over one 32-value group.
template <int B, typename Sink>
inline void UnpackGroupAvx2(const uint32_t* __restrict in, Sink&& sink) {
  const uint8_t* src = reinterpret_cast<const uint8_t*>(in);
  if constexpr (B <= kMaxChunk4UnpackBits) {
    sink(0, UnpackBatch8<B>(src));
    sink(8, UnpackBatch8<B>(src + B));
    sink(16, UnpackBatch8<B>(src + 2 * B));
    sink(24, UnpackBatch8<B>(src + 3 * B));
  } else {
    sink(0, UnpackWide8<B, 0>(src));
    sink(8, UnpackWide8<B, 1>(src));
    sink(16, UnpackWide8<B, 2>(src));
    sink(24, UnpackWide8<B, 3>(src));
  }
}

template <int B>
void UnpackAvx2(const uint32_t* __restrict in, uint32_t* __restrict out) {
  UnpackGroupAvx2<B>(in, [&](int idx, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + idx), v);
  });
}

template <int B>
void UnpackFor32Avx2(const uint32_t* __restrict in, uint32_t base,
                     uint32_t* __restrict out) {
  const __m256i vb = _mm256_set1_epi32(int(base));
  UnpackGroupAvx2<B>(in, [&](int idx, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + idx),
                        _mm256_add_epi32(v, vb));
  });
}

template <int B>
void UnpackFor64Avx2(const uint32_t* __restrict in, uint64_t base,
                     uint64_t* __restrict out) {
  const __m256i vb = _mm256_set1_epi64x(int64_t(base));
  if constexpr (B > kMaxChunk4UnpackBits) {
    // Wide codes come out of the shuffle network in qword lanes already:
    // add the base there and skip the narrow/widen round trip.
    UnpackWideGroupAvx2Q<B>(
        reinterpret_cast<const uint8_t*>(in),
        [&](int idx, __m256i v) {
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + idx),
                              _mm256_add_epi64(v, vb));
        },
        std::make_integer_sequence<int, 8>{});
  } else {
    UnpackGroupAvx2<B>(in, [&](int idx, __m256i v) {
      const __m128i lo = _mm256_castsi256_si128(v);
      const __m128i hi = _mm256_extracti128_si256(v, 1);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + idx),
                          _mm256_add_epi64(_mm256_cvtepu32_epi64(lo), vb));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + idx + 4),
                          _mm256_add_epi64(_mm256_cvtepu32_epi64(hi), vb));
    });
  }
}

// Compressed-domain select: unpack each batch, apply the single-compare
// unsigned range test ((c - lo) <= (hi - lo), valid because the dispatch
// layer guarantees lo <= hi), and turn the lane mask into predicated
// appends — no decoded array is ever materialized.
template <int B>
size_t SelectBetweenAvx2(const uint32_t* __restrict in, uint32_t lo,
                         uint32_t hi, uint32_t base_index,
                         uint32_t* __restrict out) {
  const __m256i vlo = _mm256_set1_epi32(int(lo));
  const __m256i vrange = _mm256_set1_epi32(int(hi - lo));
  size_t cnt = 0;
  UnpackGroupAvx2<B>(in, [&](int idx, __m256i v) {
    const __m256i d = _mm256_sub_epi32(v, vlo);
    const __m256i q = _mm256_cmpeq_epi32(_mm256_min_epu32(d, vrange), d);
    const unsigned m = unsigned(_mm256_movemask_ps(_mm256_castsi256_ps(q)));
    for (int j = 0; j < 8; j++) {
      out[cnt] = base_index + uint32_t(idx + j);
      cnt += (m >> j) & 1u;
    }
  });
  return cnt;
}

void ForDecode32Avx2(const uint32_t* __restrict codes, size_t n,
                     uint32_t base, uint32_t* __restrict out) {
  const __m256i vb = _mm256_set1_epi32(int(base));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi32(c, vb));
  }
  for (; i < n; i++) out[i] = base + codes[i];
}

void ForDecode64Avx2(const uint32_t* __restrict codes, size_t n,
                     uint64_t base, uint64_t* __restrict out) {
  const __m256i vb = _mm256_set1_epi64x(int64_t(base));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i c0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    const __m128i c1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi64(_mm256_cvtepu32_epi64(c0), vb));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4),
                        _mm256_add_epi64(_mm256_cvtepu32_epi64(c1), vb));
  }
  for (; i < n; i++) out[i] = base + codes[i];
}

// Prefix sums via the shift-add idiom (Section 3.1's data-parallel running
// sum): in-lane shift/adds build two 4-lane scans, one cross-lane permute
// carries the low lane's total into the high lane, and the running carry
// is broadcast in.
// The carry stays in a vector register across iterations and its update
// reads only the carry-free block scan (broadcast distributes over the
// add), so the loop-carried chain is a single VPADDD/VPADDQ — neither the
// cross-lane permute latency nor a vector->GPR round trip serializes it.
void PrefixSum32Avx2(uint32_t* data, size_t n, uint32_t start) {
  __m256i carry = _mm256_set1_epi32(int(start));
  const __m256i top = _mm256_set1_epi32(7);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
    x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
    // Add the low lane's total (its element 3, broadcast) to the high lane.
    const __m256i totals = _mm256_shuffle_epi32(x, 0xFF);
    x = _mm256_add_epi32(x, _mm256_permute2x128_si256(totals, totals, 0x08));
    const __m256i block_total = _mm256_permutevar8x32_epi32(x, top);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + i),
                        _mm256_add_epi32(x, carry));
    carry = _mm256_add_epi32(carry, block_total);
  }
  uint32_t acc = uint32_t(_mm256_extract_epi32(carry, 0));
  for (; i < n; i++) {
    acc += data[i];
    data[i] = acc;
  }
}

void PrefixSum64Avx2(uint64_t* data, size_t n, uint64_t start) {
  __m256i carry = _mm256_set1_epi64x(int64_t(start));
  size_t i = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 4 <= n; i += 4) {
    __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    x = _mm256_add_epi64(x, _mm256_slli_si256(x, 8));
    // Carry element 1 (low lane total) into both high-lane elements.
    const __m256i totals = _mm256_permute4x64_epi64(x, 0x55);
    x = _mm256_add_epi64(x, _mm256_blend_epi32(zero, totals, 0xF0));
    const __m256i block_total = _mm256_permute4x64_epi64(x, 0xFF);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + i),
                        _mm256_add_epi64(x, carry));
    carry = _mm256_add_epi64(carry, block_total);
  }
  uint64_t acc = uint64_t(_mm256_extract_epi64(carry, 0));
  for (; i < n; i++) {
    acc += data[i];
    data[i] = acc;
  }
}

// ---------------------------------------------------------------------------
// Pack kernels. Bit widths 1..16: the merge tree. Each batch of 8 codes is
// combined entirely with full-width shift/ors — mask to B bits, fold odd
// 32-bit lanes onto even ones (one 2B-bit run per 64-bit lane), fold odd
// qword runs onto even ones (one 4B-bit run in lanes 0 and 2) — and the two
// runs are spliced into a 128-bit store with two scalar shifts. 8 codes * B
// bits = B bytes, so every batch store lands byte-aligned at dst + k*B.
// Stores are 16 bytes wide; bits past 8*B are zero, and batches are stored
// in ascending order, so the overhang only pre-zeroes bytes the next batch
// (or the next group) overwrites — the write-slack contract of
// bitpack_kernels.h. Widths 17..31 use the 3-level splice instead: the
// level-1 SIMD fold yields four 2B-bit qword runs (2B <= 62), and
// WideSpliceStore splices them into a 32-byte store the same way.
// ---------------------------------------------------------------------------

/// Packs one batch of 8 codes (32-bit lanes of `x`) into B bytes at `dst`
/// (16 bytes stored, tail zero).
template <int B>
inline void PackBatch8(__m256i x, uint8_t* dst) {
  static_assert(B >= 1 && B <= kMaxMergeTreePackBits);
  x = _mm256_and_si256(x, _mm256_set1_epi32(int((uint32_t(1) << B) - 1)));
  const __m256i even = _mm256_and_si256(x, _mm256_set1_epi64x(0xFFFFFFFFll));
  const __m256i odd = _mm256_srli_epi64(x, 32);
  const __m256i pairs = _mm256_or_si256(even, _mm256_slli_epi64(odd, B));
  // Swap qwords within each 128-bit lane; lanes 0/2 then hold run(i)|run(i+1).
  const __m256i swapped = _mm256_shuffle_epi32(pairs, _MM_SHUFFLE(1, 0, 3, 2));
  const __m256i quads =
      _mm256_or_si256(pairs, _mm256_slli_epi64(swapped, 2 * B));
  const uint64_t lo = uint64_t(_mm256_extract_epi64(quads, 0));
  const uint64_t hi = uint64_t(_mm256_extract_epi64(quads, 2));
  uint64_t w0, w1;
  if constexpr (B == 16) {  // 4*B == 64: the two runs are exactly the words
    w0 = lo;
    w1 = hi;
  } else {
    w0 = lo | (hi << (4 * B));
    w1 = hi >> (64 - 4 * B);
  }
  std::memcpy(dst, &w0, 8);
  std::memcpy(dst + 8, &w1, 8);
}

/// Wide widths (17..31): level 1 of the 3-level splice — fold odd dword
/// lanes onto even ones (one 2B-bit run per qword) and hand the four runs
/// to the compile-time scalar splice.
template <int B>
inline void PackWideBatch8(__m256i x, uint8_t* dst) {
  static_assert(B > kMaxMergeTreePackBits && B <= kMaxSimdPackBits);
  x = _mm256_and_si256(x, _mm256_set1_epi32(int((uint32_t(1) << B) - 1)));
  const __m256i even = _mm256_and_si256(x, _mm256_set1_epi64x(0xFFFFFFFFll));
  const __m256i odd = _mm256_srli_epi64(x, 32);
  const __m256i pairs = _mm256_or_si256(even, _mm256_slli_epi64(odd, B));
  WideSpliceStore<B>(uint64_t(_mm256_extract_epi64(pairs, 0)),
                     uint64_t(_mm256_extract_epi64(pairs, 1)),
                     uint64_t(_mm256_extract_epi64(pairs, 2)),
                     uint64_t(_mm256_extract_epi64(pairs, 3)), dst);
}

/// Runs `source(value_index)` -> 8 lanes over one 32-value group, packing
/// each batch at its byte-aligned offset.
template <int B, typename Source>
inline void PackGroupAvx2(uint32_t* __restrict out, Source&& source) {
  uint8_t* dst = reinterpret_cast<uint8_t*>(out);
  if constexpr (B <= kMaxMergeTreePackBits) {
    PackBatch8<B>(source(0), dst);
    PackBatch8<B>(source(8), dst + B);
    PackBatch8<B>(source(16), dst + 2 * B);
    PackBatch8<B>(source(24), dst + 3 * B);
  } else {
    PackWideBatch8<B>(source(0), dst);
    PackWideBatch8<B>(source(8), dst + B);
    PackWideBatch8<B>(source(16), dst + 2 * B);
    PackWideBatch8<B>(source(24), dst + 3 * B);
  }
}

template <int B>
void PackAvx2(const uint32_t* __restrict in, uint32_t* __restrict out) {
  PackGroupAvx2<B>(out, [&](int idx) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + idx));
  });
}

template <int B>
void PackFor32Avx2(const uint32_t* __restrict in, uint32_t base,
                   uint32_t* __restrict out) {
  const __m256i vb = _mm256_set1_epi32(int(base));
  PackGroupAvx2<B>(out, [&](int idx) {
    return _mm256_sub_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + idx)), vb);
  });
}

template <int B>
void PackFor64Avx2(const uint64_t* __restrict in, uint64_t base,
                   uint32_t* __restrict out) {
  const __m256i vb = _mm256_set1_epi64x(int64_t(base));
  PackGroupAvx2<B>(out, [&](int idx) {
    const __m256i a = _mm256_sub_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + idx)), vb);
    const __m256i b = _mm256_sub_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + idx + 4)),
        vb);
    // Gather the low dwords of the 8 qword diffs into one 8-lane vector:
    // shuffle_ps picks lanes {0,2} of each 128-bit half, permute4x64
    // restores source order.
    const __m256i mixed = _mm256_castps_si256(
        _mm256_shuffle_ps(_mm256_castsi256_ps(a), _mm256_castsi256_ps(b),
                          _MM_SHUFFLE(2, 0, 2, 0)));
    return _mm256_permute4x64_epi64(mixed, _MM_SHUFFLE(3, 1, 2, 0));
  });
}

// Delta transforms — the inverse of the prefix sums: a shifted unaligned
// load turns the serial dependence into independent lane subtractions.
void DeltaEncode32Avx2(const uint32_t* __restrict in, size_t n, uint32_t prev,
                       uint32_t* __restrict out) {
  if (n == 0) return;
  out[0] = in[0] - prev;
  size_t i = 1;
  for (; i + 8 <= n; i += 8) {
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i pred =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i - 1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_sub_epi32(cur, pred));
  }
  for (; i < n; i++) out[i] = in[i] - in[i - 1];
}

void DeltaEncode64Avx2(const uint64_t* __restrict in, size_t n, uint64_t prev,
                       uint64_t* __restrict out) {
  if (n == 0) return;
  out[0] = in[0] - prev;
  size_t i = 1;
  for (; i + 4 <= n; i += 4) {
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i pred =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i - 1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_sub_epi64(cur, pred));
  }
  for (; i < n; i++) out[i] = in[i] - in[i - 1];
}

template <int... Bs>
void FillSimdWidths(KernelOps& ops, std::integer_sequence<int, Bs...>) {
  ((ops.unpack[Bs + 1] = &UnpackAvx2<Bs + 1>,
    ops.unpack_for32[Bs + 1] = &UnpackFor32Avx2<Bs + 1>,
    ops.unpack_for64[Bs + 1] = &UnpackFor64Avx2<Bs + 1>),
   ...);
}

template <int... Bs>
void FillSimdPackWidths(KernelOps& ops, std::integer_sequence<int, Bs...>) {
  ((ops.pack[Bs + 1] = &PackAvx2<Bs + 1>,
    ops.pack_for32[Bs + 1] = &PackFor32Avx2<Bs + 1>,
    ops.pack_for64[Bs + 1] = &PackFor64Avx2<Bs + 1>),
   ...);
}

template <int... Bs>
void FillSimdSelectWidths(KernelOps& ops, std::integer_sequence<int, Bs...>) {
  ((ops.select_between[Bs + 1] = &SelectBetweenAvx2<Bs + 1>), ...);
}

KernelOps MakeAvx2Ops() {
  KernelOps ops = ScalarOps();  // widths 0 and 32 stay scalar
  ops.isa = KernelIsa::kAvx2;
  ops.group_slack = true;
  FillSimdWidths(ops,
                 std::make_integer_sequence<int, kMaxSimdUnpackBits>{});
  FillSimdPackWidths(ops,
                     std::make_integer_sequence<int, kMaxSimdPackBits>{});
  FillSimdSelectWidths(ops,
                       std::make_integer_sequence<int, kMaxSimdUnpackBits>{});
  ops.for_decode32 = &ForDecode32Avx2;
  ops.for_decode64 = &ForDecode64Avx2;
  ops.prefix_sum32 = &PrefixSum32Avx2;
  ops.prefix_sum64 = &PrefixSum64Avx2;
  ops.delta_encode32 = &DeltaEncode32Avx2;
  ops.delta_encode64 = &DeltaEncode64Avx2;
  return ops;
}

}  // namespace

const KernelOps& Avx2Ops() {
  static const KernelOps ops = MakeAvx2Ops();
  return ops;
}

}  // namespace bitpack_internal
}  // namespace scc
