#include <cstring>
#include <utility>

#include "bitpack/bitpack_kernels.h"

// Scalar kernel backend: the seed's template-unrolled shift/or loops, now
// shaped as one skeleton with a compile-time epilogue so the FOR-base add
// (and the 64-bit widening variant) fuse into the unpack instead of
// running as a second pass over the group.

namespace scc {
namespace bitpack_internal {
namespace {

// One group = 32 values = B packed 32-bit words. `emit(i, code)` receives
// the 32 codes in order; every shift amount is a compile-time constant, so
// -O3 unrolls the body into straight-line shift/or code with no per-value
// branches.
template <int B, typename Emit>
inline void UnpackGroupWith(const uint32_t* __restrict in, Emit&& emit) {
  if constexpr (B == 0) {
    (void)in;
    for (int i = 0; i < 32; i++) emit(i, uint32_t(0));
  } else if constexpr (B == 32) {
    for (int i = 0; i < 32; i++) emit(i, in[i]);
  } else {
    constexpr uint32_t kMask = (uint32_t(1) << B) - 1;
    uint64_t acc = 0;
    int bits = 0;
    int w = 0;
#pragma GCC unroll 32
    for (int i = 0; i < 32; i++) {
      if (bits < B) {
        acc |= uint64_t(in[w++]) << bits;
        bits += 32;
      }
      emit(i, uint32_t(acc) & kMask);
      acc >>= B;
      bits -= B;
    }
  }
}

template <int B>
void UnpackScalar(const uint32_t* __restrict in, uint32_t* __restrict out) {
  UnpackGroupWith<B>(in, [&](int i, uint32_t c) { out[i] = c; });
}

template <int B>
void UnpackFor32Scalar(const uint32_t* __restrict in, uint32_t base,
                       uint32_t* __restrict out) {
  UnpackGroupWith<B>(in, [&](int i, uint32_t c) { out[i] = base + c; });
}

template <int B>
void UnpackFor64Scalar(const uint32_t* __restrict in, uint64_t base,
                       uint64_t* __restrict out) {
  UnpackGroupWith<B>(in, [&](int i, uint32_t c) { out[i] = base + c; });
}

// The reference for the compressed-domain select kernels: unpack each code
// and append its position with a predicated store. `c - lo <= hi - lo`
// is the single-compare unsigned range test (valid because the dispatch
// layer guarantees lo <= hi).
template <int B>
size_t SelectBetweenScalar(const uint32_t* __restrict in, uint32_t lo,
                           uint32_t hi, uint32_t base_index,
                           uint32_t* __restrict out) {
  const uint32_t range = hi - lo;
  size_t cnt = 0;
  UnpackGroupWith<B>(in, [&](int i, uint32_t c) {
    out[cnt] = base_index + uint32_t(i);
    cnt += size_t(c - lo <= range);
  });
  return cnt;
}

void ForDecode32Scalar(const uint32_t* __restrict codes, size_t n,
                       uint32_t base, uint32_t* __restrict out) {
  for (size_t i = 0; i < n; i++) out[i] = base + codes[i];
}

void ForDecode64Scalar(const uint32_t* __restrict codes, size_t n,
                       uint64_t base, uint64_t* __restrict out) {
  for (size_t i = 0; i < n; i++) out[i] = base + codes[i];
}

void PrefixSum32Scalar(uint32_t* data, size_t n, uint32_t start) {
  uint32_t acc = start;
  for (size_t i = 0; i < n; i++) {
    acc += data[i];
    data[i] = acc;
  }
}

void PrefixSum64Scalar(uint64_t* data, size_t n, uint64_t start) {
  uint64_t acc = start;
  for (size_t i = 0; i < n; i++) {
    acc += data[i];
    data[i] = acc;
  }
}

// Pack mirror of UnpackGroupWith: `produce(i)` yields the 32 codes in
// order; the shift/or accumulator emits exactly B packed words. Codes are
// masked to B bits, so out-of-range inputs cannot smear into neighbours —
// all backends share that masking, which keeps them byte-identical even on
// contract-violating inputs.
template <int B, typename Produce>
inline void PackGroupWith(uint32_t* __restrict out, Produce&& produce) {
  if constexpr (B == 0) {
    (void)out;
    (void)produce;
  } else if constexpr (B == 32) {
    for (int i = 0; i < 32; i++) out[i] = produce(i);
  } else {
    constexpr uint32_t kMask = (uint32_t(1) << B) - 1;
    uint64_t acc = 0;
    int bits = 0;
    int w = 0;
#pragma GCC unroll 32
    for (int i = 0; i < 32; i++) {
      acc |= uint64_t(produce(i) & kMask) << bits;
      bits += B;
      if (bits >= 32) {
        out[w++] = uint32_t(acc);
        acc >>= 32;
        bits -= 32;
      }
    }
  }
}

template <int B>
void PackScalar(const uint32_t* __restrict in, uint32_t* __restrict out) {
  PackGroupWith<B>(out, [&](int i) { return in[i]; });
}

template <int B>
void PackFor32Scalar(const uint32_t* __restrict in, uint32_t base,
                     uint32_t* __restrict out) {
  PackGroupWith<B>(out, [&](int i) { return in[i] - base; });
}

template <int B>
void PackFor64Scalar(const uint64_t* __restrict in, uint64_t base,
                     uint32_t* __restrict out) {
  PackGroupWith<B>(out, [&](int i) { return uint32_t(in[i] - base); });
}

void DeltaEncode32Scalar(const uint32_t* __restrict in, size_t n,
                         uint32_t prev, uint32_t* __restrict out) {
  for (size_t i = 0; i < n; i++) {
    const uint32_t v = in[i];
    out[i] = v - prev;
    prev = v;
  }
}

void DeltaEncode64Scalar(const uint64_t* __restrict in, size_t n,
                         uint64_t prev, uint64_t* __restrict out) {
  for (size_t i = 0; i < n; i++) {
    const uint64_t v = in[i];
    out[i] = v - prev;
    prev = v;
  }
}

template <int... Bs>
KernelOps MakeScalarOps(std::integer_sequence<int, Bs...>) {
  KernelOps ops;
  ops.isa = KernelIsa::kScalar;
  ops.unpack = {&UnpackScalar<Bs>...};
  ops.unpack_for32 = {&UnpackFor32Scalar<Bs>...};
  ops.unpack_for64 = {&UnpackFor64Scalar<Bs>...};
  ops.pack = {&PackScalar<Bs>...};
  ops.pack_for32 = {&PackFor32Scalar<Bs>...};
  ops.pack_for64 = {&PackFor64Scalar<Bs>...};
  ops.select_between = {&SelectBetweenScalar<Bs>...};
  ops.for_decode32 = &ForDecode32Scalar;
  ops.for_decode64 = &ForDecode64Scalar;
  ops.prefix_sum32 = &PrefixSum32Scalar;
  ops.prefix_sum64 = &PrefixSum64Scalar;
  ops.delta_encode32 = &DeltaEncode32Scalar;
  ops.delta_encode64 = &DeltaEncode64Scalar;
  return ops;
}

}  // namespace

const KernelOps& ScalarOps() {
  static const KernelOps ops =
      MakeScalarOps(std::make_integer_sequence<int, 33>{});
  return ops;
}

}  // namespace bitpack_internal
}  // namespace scc
