#ifndef SCC_BITPACK_BITPACK_H_
#define SCC_BITPACK_BITPACK_H_

#include <cstddef>
#include <cstdint>

#include "bitpack/bitpack_dispatch.h"

// Bit-packing / bit-unpacking kernels.
//
// The paper's compression schemes store each value as a b-bit integer code
// (1 <= b <= 32) and transform between the packed on-disk form and
// machine-addressable uint32_t arrays with "highly optimized routines that
// are loop-unrolled to handle 32 values each iteration" (Section 3). These
// are those routines. Every entry point routes through a per-process
// dispatch table (bitpack_dispatch.h) holding the scalar reference or the
// AVX2 kernels, selected via CPUID at startup; for each bit width there is
// a specialized kernel, so shifts are compile-time constants and dispatch
// is one indirect call per group of 32 values (amortized to one table load
// per n values via the looped entry points below). Both backends produce
// byte-identical streams and decoded arrays.
//
// Packing works on groups of 32 values: a group of 32 b-bit codes occupies
// exactly b 32-bit words. A partial final group is padded with zero codes;
// PackedByteSize accounts for the padding.

namespace scc {

/// Bytes occupied by `n` codes packed at `b` bits each (b in [0, 32]),
/// including padding of the final partial 32-value group.
inline size_t PackedByteSize(size_t n, int b) {
  size_t groups = (n + 31) / 32;
  return groups * size_t(b) * 4;
}

/// Packs `n` codes (each must fit in `b` bits; wider codes are masked)
/// into `out`. `out` must have PackedByteSize(n, b) writable bytes, 4-byte
/// aligned; neither input reads nor output writes escape those exact
/// extents (trailing groups stage through stack buffers when the SIMD
/// kernels' 16-byte stores would).
void BitPack(const uint32_t* in, size_t n, int b, uint32_t* out);

/// Fused FOR encode + pack (the exception-free half of Section 3.1 LOOP1):
/// packs (in[i] - base) & (2^b - 1) for `n` values in one pass, skipping
/// the intermediate code array. Same output contract as BitPack; a partial
/// final group is padded with `base` so padding codes are zero and the
/// stream is byte-identical to the BitPack(zero-padded codes) form. The
/// caller guarantees every in[i] - base fits `b` bits (no exceptions).
void ForEncodePack32(const uint32_t* in, size_t n, int b, uint32_t base,
                     uint32_t* out);
/// 64-bit variant: diffs are truncated to their low 32 bits before masking.
void ForEncodePack64(const uint64_t* in, size_t n, int b, uint64_t base,
                     uint32_t* out);

/// Delta transform, the inverse of PrefixSum32/64: out[i] = in[i] -
/// in[i-1] with in[-1] := prev (wraparound). `out` must not alias `in`.
/// The PFOR-DELTA encode prologue.
void DeltaEncode32(const uint32_t* in, size_t n, uint32_t prev,
                   uint32_t* out);
void DeltaEncode64(const uint64_t* in, size_t n, uint64_t prev,
                   uint64_t* out);

/// Unpacks `n` codes of `b` bits from `in` into `out`.
/// `in` holds PackedByteSize(n, b) bytes; `out` has space for n values
/// rounded up to a multiple of 32 (the final group is written whole).
/// Callers that cannot provide the rounded-up output space use
/// BitUnpackExact instead.
void BitUnpack(const uint32_t* in, size_t n, int b, uint32_t* out);

/// Like BitUnpack, but writes exactly `n` values: the final partial group
/// is unpacked through scratch, so `out` needs only n elements. Input is
/// still PackedByteSize(n, b) bytes and is never read past that size.
void BitUnpackExact(const uint32_t* in, size_t n, int b, uint32_t* out);

/// Fused PFOR decode (Section 3.1 LOOP1): unpacks `n` codes and adds
/// `base` to each inside the unpack epilogue, writing exactly `n` values
/// of `base + code` (wraparound arithmetic). Saves the intermediate code
/// array of the unpack-then-decode pair on the scan hot path.
void BitUnpackFor32(const uint32_t* in, size_t n, int b, uint32_t base,
                    uint32_t* out);
/// 64-bit variant: codes are zero-extended before the base add.
void BitUnpackFor64(const uint32_t* in, size_t n, int b, uint64_t base,
                    uint64_t* out);

/// FOR decode over an already-unpacked code array: out[i] = base + codes[i]
/// (wraparound). The flat Section-3 kernels use this for LOOP1.
void ForDecode32(const uint32_t* codes, size_t n, uint32_t base,
                 uint32_t* out);
void ForDecode64(const uint32_t* codes, size_t n, uint64_t base,
                 uint64_t* out);

/// In-place inclusive running sum seeded by `start` (the value preceding
/// position 0): data[i] = start + data[0] + ... + data[i], wraparound.
/// The PFOR-DELTA decode epilogue; the AVX2 backend uses the shift-add
/// prefix-sum idiom.
void PrefixSum32(uint32_t* data, size_t n, uint32_t start);
void PrefixSum64(uint64_t* data, size_t n, uint64_t start);

/// Compressed-domain selection (the filter-then-decode hot path): scans
/// `n` packed codes of `b` bits and appends base_index + i, ascending, for
/// every code i whose value lies in [lo, hi] (unsigned, inclusive) to
/// `out`, returning the number appended. Decodes nothing — the kernels
/// evaluate the range test directly on the packed words and compact the
/// lane masks with predicated appends. `out` must have room for `n`
/// entries (positions past the returned count may hold scratch); `in` is
/// PackedByteSize(n, b) bytes and is never read past that size. Returns 0
/// when lo > hi. The caller keeps base_index + n within uint32_t.
size_t BitSelectBetween(const uint32_t* in, size_t n, int b, uint32_t lo,
                        uint32_t hi, uint32_t base_index, uint32_t* out);

/// Extracts the code at position `idx` from a packed stream without
/// unpacking its group (used for point lookups in tests; the hot
/// fine-grained path unpacks whole 128-value groups instead).
uint32_t BitExtract(const uint32_t* in, size_t idx, int b);

}  // namespace scc

#endif  // SCC_BITPACK_BITPACK_H_
