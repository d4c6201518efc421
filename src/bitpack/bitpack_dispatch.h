#ifndef SCC_BITPACK_BITPACK_DISPATCH_H_
#define SCC_BITPACK_BITPACK_DISPATCH_H_

#include <vector>

// Runtime CPU dispatch for the bitpack kernels (unpack, fused FOR unpack,
// FOR decode, prefix sum, pack, delta encode, packed-code select). Two
// backends: the portable scalar reference and AVX2, compiled in separate
// translation units with per-file arch flags and selected once at startup
// via CPUID. The indirection cost is one table load per call, amortized
// over at least a 32-value group, matching the per-group function-pointer
// dispatch the scalar kernels already paid.
//
// Selection order:
//   1. best ISA the CPU supports (AVX2 > scalar),
//   2. overridden by the SCC_KERNEL_ISA env var (scalar|avx2) when it
//      names a *supported* backend; any other value is reported on stderr
//      and the CPUID choice stands,
//   3. overridden programmatically by SetKernelIsa() (tests, benches).
//
// Builds with -DSCC_FORCE_SCALAR=ON (or non-x86 / pre-AVX2 targets) run
// only the scalar backend; the dispatcher then always reports kScalar.

namespace scc {

/// Kernel backend identifiers. Values are stable: they are exported as the
/// `codec.kernel_isa` telemetry gauge.
enum class KernelIsa : int {
  kScalar = 0,
  kAvx2 = 2,
};

/// "scalar" or "avx2".
const char* KernelIsaName(KernelIsa isa);

/// The backend currently routing the bitpack kernel calls.
KernelIsa ActiveKernelIsa();

/// True when `isa` is compiled in AND the running CPU supports it.
bool KernelIsaSupported(KernelIsa isa);

/// Every backend KernelIsaSupported() accepts, scalar first and the
/// CPUID choice last. Differential tests and benches iterate this list.
std::vector<KernelIsa> SupportedKernelIsas();

/// Forces a backend. Returns false (selection unchanged) when `isa` is not
/// supported on this build/CPU. Takes effect for subsequent decode calls;
/// do not flip it concurrently with in-flight decodes (the differential
/// tests and bench harnesses switch between runs, never during one).
bool SetKernelIsa(KernelIsa isa);

/// Forces a backend for the enclosing scope, restoring the previously
/// active one (which may itself come from SCC_KERNEL_ISA) on exit.
class ScopedKernelIsa {
 public:
  explicit ScopedKernelIsa(KernelIsa isa) : prev_(ActiveKernelIsa()) {
    SetKernelIsa(isa);
  }
  ~ScopedKernelIsa() { SetKernelIsa(prev_); }
  ScopedKernelIsa(const ScopedKernelIsa&) = delete;
  ScopedKernelIsa& operator=(const ScopedKernelIsa&) = delete;

 private:
  KernelIsa prev_;
};

}  // namespace scc

#endif  // SCC_BITPACK_BITPACK_DISPATCH_H_
