// Internal factory declarations for the compiled-in verify backends.
//
// Registration is explicit (the registry constructor calls these) rather
// than static-initializer self-registration: the library is linked as a
// static archive, where an unreferenced TU's initializers are silently
// dropped by the linker — the classic way a backend vanishes from release
// builds only. The AVX factories are compiled out entirely (and their
// calls #if-gated by the ACCL_KERNEL_HAVE_* definitions CMake sets) when
// the toolchain cannot build the TU.
#pragma once

#include <memory>

#include "kernels/verify_backend.h"

namespace accl::kernels {

std::unique_ptr<VerifyBackend> MakeScalarBackend();
#if defined(ACCL_KERNEL_HAVE_AVX2)
std::unique_ptr<VerifyBackend> MakeAvx2Backend();
#endif
#if defined(ACCL_KERNEL_HAVE_AVX512)
std::unique_ptr<VerifyBackend> MakeAvx512Backend();
#endif

}  // namespace accl::kernels
