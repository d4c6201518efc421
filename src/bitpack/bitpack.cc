#include "bitpack/bitpack.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "bitpack/bitpack_kernels.h"
#include "sys/telemetry.h"
#include "util/status.h"

namespace scc {

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

namespace bitpack_internal {
namespace {

/// Every backend this file knows, in ascending preference.
constexpr KernelIsa kAllIsas[] = {KernelIsa::kScalar, KernelIsa::kAvx2};

std::atomic<const KernelOps*> g_active{nullptr};

bool CpuSupports(KernelIsa isa) {
  if (isa == KernelIsa::kScalar) return true;
#if defined(SCC_BITPACK_HAVE_SIMD_TU)
  if (isa == KernelIsa::kAvx2) return __builtin_cpu_supports("avx2");
#endif
  return false;
}

const KernelOps* OpsFor([[maybe_unused]] KernelIsa isa) {
#if defined(SCC_BITPACK_HAVE_SIMD_TU)
  if (isa == KernelIsa::kAvx2) return &Avx2Ops();
#endif
  return &ScalarOps();
}

/// Installs `ops` and mirrors the selection into the codec.kernel_isa
/// telemetry gauge (values are the KernelIsa enum).
void Publish(const KernelOps* ops) {
  g_active.store(ops, std::memory_order_release);
  MetricsRegistry::Instance()
      .GetGauge("codec.kernel_isa")
      .Set(int64_t(ops->isa));
}

const KernelOps& InitActive() {
  // Magic-static init: the first decode (from any thread) performs the
  // CPUID probe and env-override parse exactly once.
  static const KernelOps* chosen = [] {
    const std::vector<KernelIsa> supported = SupportedKernelIsas();
    KernelIsa isa = supported.back();
    const char* env = std::getenv("SCC_KERNEL_ISA");
    if (env != nullptr && *env != '\0') {
      auto it = std::find_if(supported.begin(), supported.end(),
                             [env](KernelIsa s) {
                               return std::strcmp(env, KernelIsaName(s)) == 0;
                             });
      if (it != supported.end()) {
        isa = *it;
      } else {
        // A stale or mistyped override must not pass silently.
        std::string valid;
        for (KernelIsa s : supported) {
          valid += std::string(" ") + KernelIsaName(s);
        }
        std::fprintf(stderr,
                     "scc: ignoring SCC_KERNEL_ISA=%s (valid:%s); using %s\n",
                     env, valid.c_str(), KernelIsaName(isa));
      }
    }
    const KernelOps* ops = OpsFor(isa);
    Publish(ops);
    return ops;
  }();
  return *chosen;
}

}  // namespace

const KernelOps& Active() {
  const KernelOps* ops = g_active.load(std::memory_order_acquire);
  return ops != nullptr ? *ops : InitActive();
}

}  // namespace bitpack_internal

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
  }
  return "?";
}

KernelIsa ActiveKernelIsa() { return bitpack_internal::Active().isa; }

bool KernelIsaSupported(KernelIsa isa) {
  return bitpack_internal::CpuSupports(isa);
}

std::vector<KernelIsa> SupportedKernelIsas() {
  std::vector<KernelIsa> isas;
  for (KernelIsa isa : bitpack_internal::kAllIsas) {
    if (KernelIsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

bool SetKernelIsa(KernelIsa isa) {
  if (!bitpack_internal::CpuSupports(isa)) return false;
  bitpack_internal::Active();  // env/CPUID init first, so Set wins over it
  bitpack_internal::Publish(bitpack_internal::OpsFor(isa));
  return true;
}

// ---------------------------------------------------------------------------
// Looped drivers
// ---------------------------------------------------------------------------

namespace {

using bitpack_internal::kGroupSlackBytes;
using bitpack_internal::KernelOps;

/// Padded staging for groups near the end of a stream: SIMD kernels may
/// read up to kGroupSlackBytes past a group's b words (bitpack_kernels.h),
/// so such groups are copied into a zero-padded stack buffer first. The
/// padding bytes only ever land in masked-out chunk bits, so zeroes are
/// output-neutral.
struct TailPad {
  uint32_t buf[32 + kGroupSlackBytes / 4];

  const uint32_t* Stage(const uint32_t* group, int b) {
    std::memcpy(buf, group, size_t(b) * sizeof(uint32_t));
    std::memset(buf + b, 0, kGroupSlackBytes);
    return buf;
  }
};

/// Number of leading groups (out of `groups`, each b words, with exactly
/// groups*b words of input or destination) a slack kernel may read from or
/// write into the stream directly. A group is safe iff the words of the
/// groups AFTER it cover the slack — for b < kGroupSlackBytes/4 that
/// disqualifies several trailing groups, not just the last (e.g. b=1: the
/// last 4). A pack kernel's zeroed-ahead bytes are rewritten when their
/// own group packs (ascending order). Widths 0 and 32 run the inherited
/// scalar kernels, which touch exactly b words.
inline size_t DirectGroups(const KernelOps& ops, size_t groups, int b) {
  if (!ops.group_slack || b == 0 || b == 32) return groups;
  const size_t slack_words = kGroupSlackBytes / 4;
  const size_t unsafe = (slack_words + size_t(b) - 1) / size_t(b);
  return groups > unsafe ? groups - unsafe : 0;
}

/// Shared skeleton of the pack drivers: `call(g, dst)` packs group g's 32
/// codes (the caller stages a partial final group's INPUT itself) into
/// dst = b words + slack. Trailing groups too close to the destination end
/// for the kernels' 16-byte stores are packed into a padded stack buffer
/// and memcpy'd, so no write escapes the PackedByteSize(n, b) contract.
template <typename Call>
inline void PackStreamDriver(size_t n, int b, const KernelOps& ops,
                             uint32_t* out, Call&& call) {
  if (n == 0) return;
  const size_t groups = (n + 31) / 32;
  const size_t direct = DirectGroups(ops, groups, b);
  uint32_t padbuf[32 + kGroupSlackBytes / 4];
  for (size_t g = 0; g < groups; g++) {
    uint32_t* dst = out + g * size_t(b);
    if (g < direct) {
      call(g, dst);
    } else {
      call(g, padbuf);
      std::memcpy(dst, padbuf, size_t(b) * sizeof(uint32_t));
    }
  }
}

/// Shared skeleton of the exact-output unpack drivers: `call(group_in,
/// group_out)` decodes one whole 32-value group; trailing groups are
/// staged through TailPad for input slack and the final one through `tmp`
/// when partial, so that neither input overreads nor output overwrites
/// escape the contract.
template <typename V, typename Call>
inline void ExactUnpackDriver(const uint32_t* in, size_t n, int b,
                              const KernelOps& ops, V* out, Call&& call) {
  if (n == 0) return;
  const size_t groups = (n + 31) / 32;
  const size_t rest = n - (groups - 1) * 32;  // 1..32 values in final group
  const size_t direct = DirectGroups(ops, groups, b);
  TailPad pad;
  for (size_t g = 0; g + 1 < groups; g++) {
    const uint32_t* src = in + g * size_t(b);
    call(g < direct ? src : pad.Stage(src, b), out + g * 32);
  }
  const uint32_t* last = in + (groups - 1) * size_t(b);
  if (groups - 1 >= direct) last = pad.Stage(last, b);
  if (rest == 32) {
    call(last, out + (groups - 1) * 32);
  } else {
    V tmp[32];
    call(last, tmp);
    std::memcpy(out + (groups - 1) * 32, tmp, rest * sizeof(V));
  }
}

}  // namespace

void BitPack(const uint32_t* in, size_t n, int b, uint32_t* out) {
  SCC_DCHECK(b >= 0 && b <= 32);
  const KernelOps& ops = bitpack_internal::Active();
  const auto fn = ops.pack[b];
  const size_t full = n / 32;
  PackStreamDriver(n, b, ops, out, [&](size_t g, uint32_t* dst) {
    if (g < full) {
      fn(in + g * 32, dst);
    } else {
      // Partial final group: stage the input so the kernel never reads
      // past the n codes; zero pad codes keep the stream canonical.
      uint32_t tmp[32] = {0};
      std::memcpy(tmp, in + g * 32, (n - g * 32) * sizeof(uint32_t));
      fn(tmp, dst);
    }
  });
}

void ForEncodePack32(const uint32_t* in, size_t n, int b, uint32_t base,
                     uint32_t* out) {
  SCC_DCHECK(b >= 0 && b <= 32);
  const KernelOps& ops = bitpack_internal::Active();
  const auto fn = ops.pack_for32[b];
  const size_t full = n / 32;
  PackStreamDriver(n, b, ops, out, [&](size_t g, uint32_t* dst) {
    if (g < full) {
      fn(in + g * 32, base, dst);
    } else {
      // Pad with `base` so padding codes come out zero, matching the
      // canonical stream BitPack produces from zero-padded codes.
      uint32_t tmp[32];
      const size_t rest = n - g * 32;
      std::memcpy(tmp, in + g * 32, rest * sizeof(uint32_t));
      for (size_t i = rest; i < 32; i++) tmp[i] = base;
      fn(tmp, base, dst);
    }
  });
}

void ForEncodePack64(const uint64_t* in, size_t n, int b, uint64_t base,
                     uint32_t* out) {
  SCC_DCHECK(b >= 0 && b <= 32);
  const KernelOps& ops = bitpack_internal::Active();
  const auto fn = ops.pack_for64[b];
  const size_t full = n / 32;
  PackStreamDriver(n, b, ops, out, [&](size_t g, uint32_t* dst) {
    if (g < full) {
      fn(in + g * 32, base, dst);
    } else {
      uint64_t tmp[32];
      const size_t rest = n - g * 32;
      std::memcpy(tmp, in + g * 32, rest * sizeof(uint64_t));
      for (size_t i = rest; i < 32; i++) tmp[i] = base;
      fn(tmp, base, dst);
    }
  });
}

void DeltaEncode32(const uint32_t* in, size_t n, uint32_t prev,
                   uint32_t* out) {
  bitpack_internal::Active().delta_encode32(in, n, prev, out);
}

void DeltaEncode64(const uint64_t* in, size_t n, uint64_t prev,
                   uint64_t* out) {
  bitpack_internal::Active().delta_encode64(in, n, prev, out);
}

void BitUnpack(const uint32_t* in, size_t n, int b, uint32_t* out) {
  SCC_DCHECK(b >= 0 && b <= 32);
  if (n == 0) return;
  const KernelOps& ops = bitpack_internal::Active();
  const auto fn = ops.unpack[b];
  const size_t groups = (n + 31) / 32;
  const size_t direct = DirectGroups(ops, groups, b);
  // The caller guarantees `out` has room for groups*32 values; the final
  // partial group is unpacked whole (padding codes are zero). Trailing
  // groups within kGroupSlackBytes of the input end are staged to keep
  // the kernels' over-read inside owned memory.
  TailPad pad;
  for (size_t g = 0; g < groups; g++) {
    const uint32_t* src = in + g * size_t(b);
    fn(g < direct ? src : pad.Stage(src, b), out + g * 32);
  }
}

void BitUnpackExact(const uint32_t* in, size_t n, int b, uint32_t* out) {
  SCC_DCHECK(b >= 0 && b <= 32);
  const KernelOps& ops = bitpack_internal::Active();
  const auto fn = ops.unpack[b];
  ExactUnpackDriver<uint32_t>(
      in, n, b, ops, out,
      [fn](const uint32_t* gin, uint32_t* gout) { fn(gin, gout); });
}

void BitUnpackFor32(const uint32_t* in, size_t n, int b, uint32_t base,
                    uint32_t* out) {
  SCC_DCHECK(b >= 0 && b <= 32);
  const KernelOps& ops = bitpack_internal::Active();
  const auto fn = ops.unpack_for32[b];
  ExactUnpackDriver<uint32_t>(
      in, n, b, ops, out,
      [fn, base](const uint32_t* gin, uint32_t* gout) { fn(gin, base, gout); });
}

void BitUnpackFor64(const uint32_t* in, size_t n, int b, uint64_t base,
                    uint64_t* out) {
  SCC_DCHECK(b >= 0 && b <= 32);
  const KernelOps& ops = bitpack_internal::Active();
  const auto fn = ops.unpack_for64[b];
  ExactUnpackDriver<uint64_t>(
      in, n, b, ops, out,
      [fn, base](const uint32_t* gin, uint64_t* gout) { fn(gin, base, gout); });
}

size_t BitSelectBetween(const uint32_t* in, size_t n, int b, uint32_t lo,
                        uint32_t hi, uint32_t base_index, uint32_t* out) {
  SCC_DCHECK(b >= 0 && b <= 32);
  if (n == 0 || lo > hi) return 0;
  const KernelOps& ops = bitpack_internal::Active();
  const auto fn = ops.select_between[b];
  const size_t groups = (n + 31) / 32;
  const size_t rest = n - (groups - 1) * 32;  // 1..32 values in final group
  const size_t direct = DirectGroups(ops, groups, b);
  TailPad pad;
  size_t cnt = 0;
  for (size_t g = 0; g + 1 < groups; g++) {
    const uint32_t* src = in + g * size_t(b);
    cnt += fn(g < direct ? src : pad.Stage(src, b), lo, hi,
              base_index + uint32_t(g * 32), out + cnt);
  }
  const uint32_t* last = in + (groups - 1) * size_t(b);
  if (groups - 1 >= direct) last = pad.Stage(last, b);
  if (rest == 32) {
    cnt += fn(last, lo, hi, base_index + uint32_t((groups - 1) * 32),
              out + cnt);
  } else {
    // Partial final group: the zero padding codes may false-qualify when
    // lo == 0, so run into scratch and keep only in-range positions (the
    // kernel emits ascending, so the first out-of-range entry ends it).
    uint32_t tmp[32];
    const size_t got =
        fn(last, lo, hi, base_index + uint32_t((groups - 1) * 32), tmp);
    const uint32_t limit = base_index + uint32_t(n);
    for (size_t j = 0; j < got && tmp[j] < limit; j++) out[cnt++] = tmp[j];
  }
  return cnt;
}

void ForDecode32(const uint32_t* codes, size_t n, uint32_t base,
                 uint32_t* out) {
  bitpack_internal::Active().for_decode32(codes, n, base, out);
}

void ForDecode64(const uint32_t* codes, size_t n, uint64_t base,
                 uint64_t* out) {
  bitpack_internal::Active().for_decode64(codes, n, base, out);
}

void PrefixSum32(uint32_t* data, size_t n, uint32_t start) {
  bitpack_internal::Active().prefix_sum32(data, n, start);
}

void PrefixSum64(uint64_t* data, size_t n, uint64_t start) {
  bitpack_internal::Active().prefix_sum64(data, n, start);
}

uint32_t BitExtract(const uint32_t* in, size_t idx, int b) {
  SCC_DCHECK(b >= 0 && b <= 32);
  if (b == 0) return 0;
  size_t group = idx / 32;
  size_t i = idx % 32;
  const uint32_t* base = in + group * size_t(b);
  size_t bit = i * size_t(b);
  size_t word = bit / 32;
  size_t shift = bit % 32;
  uint64_t acc = uint64_t(base[word]);
  if (shift + b > 32) acc |= uint64_t(base[word + 1]) << 32;
  uint64_t mask = (b == 64) ? ~uint64_t(0) : ((uint64_t(1) << b) - 1);
  return uint32_t((acc >> shift) & mask);
}

}  // namespace scc
