// Process-wide registry of verify backends.
//
// Built once, at first use: the constructor probes the host CPU
// (cpu_features.h) and registers every compiled-in backend the host can
// execute — always "scalar", then "avx2"/"avx512" as CPUID and the build
// allow. Selection is a pure function of (env, host), so two indexes
// constructed under the same environment always verify with the same
// kernel.
//
// Resolve has one pin: the ACCL_FORCE_BACKEND environment variable (CI's
// forced-scalar job rides on it). Without it, or when it names no
// registered backend, Resolve returns the widest registered backend
// (highest vector_width_floats(): avx512 > avx2 > scalar). An unknown or
// unsupported pin warns once to stderr and falls through, so a stale pin
// degrades loudly instead of crashing or silently lying. The variable is
// re-read on every Resolve call (not latched at registry construction) so
// tests can setenv/unsetenv around index construction.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "kernels/verify_backend.h"

namespace accl::kernels {

class BackendRegistry {
 public:
  static const BackendRegistry& Instance();

  // Registered backend with the given name, or nullptr. Registered implies
  // compiled in AND executable on this host.
  const VerifyBackend* Find(const std::string& name) const;

  // The ACCL_FORCE_BACKEND pin, else the widest registered backend; never
  // null (scalar is always registered). `requested` must be empty: there
  // is no per-call pin. If `note` is non-null it receives a one-line
  // description of why this backend was chosen (for logs / bench metadata).
  // Safe to call concurrently.
  const VerifyBackend* Resolve(const std::string& requested,
                               std::string* note = nullptr) const;

  const std::vector<const VerifyBackend*>& All() const { return all_; }
  const CpuFeatures& host() const { return host_; }

  // "scalar avx2 avx512" — for error messages.
  std::string BackendNames() const;

 private:
  BackendRegistry();

  CpuFeatures host_;
  std::vector<std::unique_ptr<VerifyBackend>> owned_;
  std::vector<const VerifyBackend*> all_;     // registration order
  const VerifyBackend* widest_ = nullptr;
};

}  // namespace accl::kernels
