#ifndef SCC_BITPACK_BITPACK_KERNELS_H_
#define SCC_BITPACK_BITPACK_KERNELS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "bitpack/bitpack_dispatch.h"

// Internal contract between the dispatch layer (bitpack.cc) and the
// per-ISA backend translation units (bitpack_scalar.cc, bitpack_avx2.cc).
// Library code includes bitpack/bitpack.h instead.
//
// Packed layout (unchanged from the seed, shared by both backends so they
// are byte-compatible): codes are packed LSB-first into a
// contiguous little-endian bit stream, 32 values per group occupying
// exactly `b` 32-bit words.

namespace scc {
namespace bitpack_internal {

/// Group kernels transform exactly one 32-value group: `b` packed input
/// words -> 32 outputs. The AVX2 kernels use byte-aligned overlapping
/// vector loads and may READ up to kGroupSlackBytes past the group's b*4
/// input bytes (they never write past the 32 outputs). The drivers in
/// bitpack.cc provide that slack: groups followed by more packed data have
/// it for free, and the final group of a stream runs from a padded stack
/// copy whenever ops.group_slack is set.
///
/// The pack side mirrors the contract on the OUTPUT: the AVX2 pack kernels
/// store 16-byte (b <= 16) or 32-byte (b = 17..31) vectors whose tail bits
/// are zero, so they may WRITE up to kGroupSlackBytes past the group's b*4
/// output bytes (the 32-byte stores overhang at most 32 - b <= 15 bytes;
/// they read exactly 32 input values — no input slack). The extra bytes
/// are always zero, and the kernels store batches in ascending stream
/// order, so inside a multi-group stream the slack of group g only ever
/// pre-zeroes bytes that group g+1 immediately overwrites. Only groups
/// near the END of the destination need staging (ops.group_slack; drivers
/// in bitpack.cc).
constexpr size_t kGroupSlackBytes = 16;

using UnpackFn = void (*)(const uint32_t* __restrict in,
                          uint32_t* __restrict out);
using UnpackFor32Fn = void (*)(const uint32_t* __restrict in, uint32_t base,
                               uint32_t* __restrict out);
using UnpackFor64Fn = void (*)(const uint32_t* __restrict in, uint64_t base,
                               uint64_t* __restrict out);
using ForDecode32Fn = void (*)(const uint32_t* __restrict codes, size_t n,
                               uint32_t base, uint32_t* __restrict out);
using ForDecode64Fn = void (*)(const uint32_t* __restrict codes, size_t n,
                               uint64_t base, uint64_t* __restrict out);
using PrefixSum32Fn = void (*)(uint32_t* data, size_t n, uint32_t start);
using PrefixSum64Fn = void (*)(uint64_t* data, size_t n, uint64_t start);

// Pack-side kernels (write path). Group kernels consume exactly 32 values
// and produce `b` packed words (plus zero slack, see above). The fused FOR
// variants subtract `base` (wraparound) before masking to b bits — the
// single-pass encode for exception-free groups. Delta kernels are the
// inverse of the prefix sums: out[i] = in[i] - in[i-1] with in[-1] := prev
// (out must not alias in).
using PackFn = void (*)(const uint32_t* __restrict in,
                        uint32_t* __restrict out);
using PackFor32Fn = void (*)(const uint32_t* __restrict in, uint32_t base,
                             uint32_t* __restrict out);
using PackFor64Fn = void (*)(const uint64_t* __restrict in, uint64_t base,
                             uint32_t* __restrict out);
using DeltaEncode32Fn = void (*)(const uint32_t* __restrict in, size_t n,
                                 uint32_t prev, uint32_t* __restrict out);
using DeltaEncode64Fn = void (*)(const uint64_t* __restrict in, size_t n,
                                 uint64_t prev, uint64_t* __restrict out);

// Compressed-domain selection: scans one 32-value group of packed codes
// and appends base_index + i (ascending) for every code in [lo, hi]
// (unsigned, inclusive; caller guarantees lo <= hi) to `out`, returning
// the number appended. Input contract matches the unpack kernels (b words
// plus read slack on the AVX2 backend); `out` must have room for 32 entries —
// the kernels append with predicated stores, so positions past the
// returned count may hold scratch indices.
using SelectBetweenFn = size_t (*)(const uint32_t* __restrict in, uint32_t lo,
                                   uint32_t hi, uint32_t base_index,
                                   uint32_t* __restrict out);

/// One backend's full kernel table, indexed by bit width where per-width
/// specialization pays. The AVX2 table fills SIMD entries for the widths
/// it covers and inherits scalar entries for the rest, so every table is
/// total.
struct KernelOps {
  KernelIsa isa = KernelIsa::kScalar;
  bool group_slack = false;  // widths 1..31, see kGroupSlackBytes
  std::array<UnpackFn, 33> unpack{};
  std::array<UnpackFor32Fn, 33> unpack_for32{};
  std::array<UnpackFor64Fn, 33> unpack_for64{};
  std::array<PackFn, 33> pack{};
  std::array<PackFor32Fn, 33> pack_for32{};
  std::array<PackFor64Fn, 33> pack_for64{};
  std::array<SelectBetweenFn, 33> select_between{};
  ForDecode32Fn for_decode32 = nullptr;
  ForDecode64Fn for_decode64 = nullptr;
  PrefixSum32Fn prefix_sum32 = nullptr;
  PrefixSum64Fn prefix_sum64 = nullptr;
  DeltaEncode32Fn delta_encode32 = nullptr;
  DeltaEncode64Fn delta_encode64 = nullptr;
};

/// The backend table currently selected by the dispatcher (bitpack.cc).
const KernelOps& Active();

/// Always compiled.
const KernelOps& ScalarOps();

#if !defined(SCC_FORCE_SCALAR) && (defined(__x86_64__) || defined(__i386__))
#define SCC_BITPACK_HAVE_SIMD_TU 1
const KernelOps& Avx2Ops();
#endif

// ---------------------------------------------------------------------------
// Chunk-load geometry of the AVX2 backend
// ---------------------------------------------------------------------------
//
// The AVX2 unpackers decode the horizontal layout with byte-aligned chunk
// loads: the code at value index v occupies bits [v*b, v*b + b) of the
// stream, i.e. bits [r, r+b) of the chunk at byte (v*b)/8 with
// r = (v*b) % 8. For b <= 25 a 4-byte chunk always contains the whole code
// (r <= 7, so r + b <= 32) and the dword shuffle networks apply; for
// b = 26..31 the code can straddle a dword boundary, so the wide kernels
// switch to byte-aligned 8-BYTE chunks (r + b <= 38 < 64 always holds) and
// qword shift networks, narrowing back to dwords for the 32-byte stores.

/// Highest bit width the 4-byte-chunk (dword shuffle network) unpackers
/// cover; 26..kMaxSimdUnpackBits use the 8-byte-chunk kernels.
constexpr int kMaxChunk4UnpackBits = 25;

/// Highest bit width the AVX2 unpackers cover overall. Only b = 32 (a raw
/// word copy, already optimal) and b = 0 bypass the shuffle networks.
constexpr int kMaxSimdUnpackBits = 31;

/// Highest bit width the 128-bit merge-tree packer covers. It combines 8
/// codes into an 8*b-bit run in two shift/or levels plus one scalar splice;
/// at b <= 16 the run fits 128 bits and each batch store stays byte-aligned
/// (8*b bits = b bytes).
constexpr int kMaxMergeTreePackBits = 16;

/// Highest bit width the AVX2 packers cover overall. Widths 17..31 use the
/// 3-level splice: one SIMD fold to four 2b-bit qword runs, then two
/// compile-time scalar splice levels into a 32-byte store whose tail bits
/// are zero. b = 32 stays a word copy.
constexpr int kMaxSimdPackBits = 31;

/// AVX2 processes 8 lanes per batch; 8 lanes * b bits = b bytes, so every
/// batch starts byte-aligned and one offset/shift pattern serves all four
/// batches of a group. Offsets are relative to the batch base byte.
constexpr int Lane8ByteOff(int b, int i) { return (i * b) / 8; }
constexpr int Lane8Shift(int b, int i) { return (i * b) % 8; }

/// Wide-width (26..31) geometry: value v's code lives at bits [r, r+b) of
/// the byte-aligned 8-byte chunk at byte (v*b)/8, r = (v*b) % 8. Offsets
/// are absolute within the group (no batch alignment exists to exploit —
/// the kernels template over the batch index instead).
constexpr int WideByteOff(int b, int v) { return (v * b) / 8; }
constexpr int WideShift(int b, int v) { return (v * b) % 8; }

/// Levels 2 and 3 of the wide (b = 17..31) AVX2 pack: run I (2*B bits,
/// high qword bits zero) lands at bit position I*2*B of the 256-bit batch
/// window. Every shift is compile-time, and a run straddling a word
/// boundary carries into the next word.
template <int B, int I>
inline void WideSpliceRun(uint64_t r, uint64_t* w) {
  constexpr int p = 2 * B * I;
  constexpr int word = p / 64;
  constexpr int sh = p % 64;
  w[word] |= r << sh;
  if constexpr (sh + 2 * B > 64) w[word + 1] |= r >> (64 - sh);
}

/// Splices the four 2*B-bit qword runs of one 8-code batch into a 32-byte
/// store at `dst`; bits past 8*B (i.e. bytes past B) are zero, which is
/// what lets the store overhang under the pack write-slack contract.
template <int B>
inline void WideSpliceStore(uint64_t r0, uint64_t r1, uint64_t r2,
                            uint64_t r3, uint8_t* dst) {
  uint64_t w[4] = {0, 0, 0, 0};
  WideSpliceRun<B, 0>(r0, w);
  WideSpliceRun<B, 1>(r1, w);
  WideSpliceRun<B, 2>(r2, w);
  WideSpliceRun<B, 3>(r3, w);
  std::memcpy(dst, w, 32);
}

}  // namespace bitpack_internal
}  // namespace scc

#endif  // SCC_BITPACK_BITPACK_KERNELS_H_
