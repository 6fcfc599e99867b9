#include "kernels/cpu_features.h"

namespace accl::kernels {

namespace {

CpuFeatures Probe() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports consults CPUID *and* (for AVX-class features)
  // XGETBV, so a kernel that does not save the wide register state makes
  // the feature read as absent — exactly the "can I actually run this
  // backend" question the registry needs answered.
  f.avx2 = __builtin_cpu_supports("avx2");
  f.avx512f = __builtin_cpu_supports("avx512f");
#endif
  return f;
}

}  // namespace

const CpuFeatures& HostCpuFeatures() {
  static const CpuFeatures f = Probe();
  return f;
}

std::string CpuFeatureString(const CpuFeatures& f) {
  std::string s;
  if (f.avx2) s += "avx2";
  if (f.avx512f) s += s.empty() ? "avx512f" : " avx512f";
  return s.empty() ? "none" : s;
}

}  // namespace accl::kernels
