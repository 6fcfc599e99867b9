// Host CPU capability probe for verify-backend selection.
//
// The registry (backend_registry.h) asks the host once, at first use, which
// vector ISAs it can execute, and registers/selects backends accordingly.
// Detection goes through __builtin_cpu_supports, which on x86 includes the
// OS XSAVE/ZMM-state check — "the CPU has AVX-512F" only counts when the
// kernel actually preserves the wide registers across context switches.
#pragma once

#include <string>

namespace accl::kernels {

/// The ISA capabilities a verify backend may require.
struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
};

/// Probes the executing host once; subsequent calls return the cached
/// result. On non-x86 hosts every flag is false (the scalar backend is the
/// only one that registers as supported).
const CpuFeatures& HostCpuFeatures();

/// Space-separated list of the detected features ("avx2 avx512f"),
/// or "none" — for logs, BENCH JSON metadata, and error messages.
std::string CpuFeatureString(const CpuFeatures& f);

}  // namespace accl::kernels
