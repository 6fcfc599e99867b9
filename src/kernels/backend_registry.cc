#include "kernels/backend_registry.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "kernels/backends.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace accl::kernels {

BackendRegistry::BackendRegistry() : host_(HostCpuFeatures()) {
  auto add = [this](std::unique_ptr<VerifyBackend> b) {
    if (!b || !b->SupportedOnHost(host_)) return;
    all_.push_back(b.get());
    if (widest_ == nullptr ||
        b->vector_width_floats() > widest_->vector_width_floats()) {
      widest_ = b.get();
    }
    owned_.push_back(std::move(b));
  };
  add(MakeScalarBackend());
#if defined(ACCL_KERNEL_HAVE_AVX2)
  add(MakeAvx2Backend());
#endif
#if defined(ACCL_KERNEL_HAVE_AVX512)
  add(MakeAvx512Backend());
#endif
  // Per-backend dispatch counters live on the process-default registry:
  // the backends are process-wide singletons (this registry is leaked),
  // so the lifetime contract of Attach holds trivially.
  for (const VerifyBackend* b : all_) {
    obs::MetricsRegistry::Default().Attach(
        std::string("accl_kernel_dispatch_") + b->name() + "_total",
        b->dispatch_counter(),
        "VerifyBatch dispatches through this backend");
  }
}

const BackendRegistry& BackendRegistry::Instance() {
  static const BackendRegistry registry;
  return registry;
}

const VerifyBackend* BackendRegistry::Find(const std::string& name) const {
  for (const VerifyBackend* b : all_) {
    if (name == b->name()) return b;
  }
  return nullptr;
}

const VerifyBackend* BackendRegistry::Resolve(const std::string& requested,
                                              std::string* note) const {
  ACCL_CHECK(requested.empty());
  if (const char* env = std::getenv("ACCL_FORCE_BACKEND");
      env != nullptr && env[0] != '\0') {
    if (const VerifyBackend* b = Find(env)) {
      if (note) *note = std::string("pinned by ACCL_FORCE_BACKEND=") + env;
      return b;
    }
    // Indexes are constructed concurrently (one per shard), so the
    // warn-once latch must be atomic.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "accl: ACCL_FORCE_BACKEND=%s is not a registered verify "
                   "backend (have: %s); ignoring the pin\n",
                   env, BackendNames().c_str());
    }
  }
  if (note) *note = "widest supported on host";
  return widest_;
}

std::string BackendRegistry::BackendNames() const {
  std::string names;
  for (const VerifyBackend* b : all_) {
    if (!names.empty()) names += ' ';
    names += b->name();
  }
  return names;
}

}  // namespace accl::kernels
