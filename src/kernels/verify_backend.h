// VerifyBackend — the interface every batched-verification kernel variant
// implements: scalar (the reference), AVX2 and AVX-512. Its only job is
// VerifyBatch, the paper's per-object verification (the C term of the cost
// model); the signature admit filter is scalar and lives in SignatureTable.
//
// The backends are *observationally identical by contract*: for the same
// inputs every backend must produce the same match set, in the same order,
// with the same cost accounting. Vector width may only change how fast the
// answer arrives, never what the answer is — the kernel-parity property
// test (tests/kernel_parity_test.cc) enforces this against the scalar
// reference for every registered backend.
#pragma once

#include <cstdint>
#include <vector>

#include "api/types.h"
#include "geometry/predicates.h"
#include "kernels/cpu_features.h"
#include "obs/metrics.h"

namespace accl::kernels {

/// One batched-verification kernel implementation.
class VerifyBackend {
 public:
  virtual ~VerifyBackend() = default;

  /// Stable lower-case identifier ("scalar", "avx2", "avx512"). This is
  /// the name ACCL_FORCE_BACKEND pins by, and the name surfaced in metrics
  /// and BENCH JSON.
  virtual const char* name() const = 0;

  /// Floats compared per vector step (1 for scalar, 8/16 for
  /// AVX2/AVX-512). Registry auto-selection picks the widest supported
  /// backend; ties break toward earlier registration.
  virtual uint32_t vector_width_floats() const = 0;

  /// True when `host` can execute this backend's instructions. A backend
  /// may be registered (compiled into the binary) yet unsupported on the
  /// machine that loaded it — selection filters on this.
  virtual bool SupportedOnHost(const CpuFeatures& host) const = 0;

  // ---- The dims-accounting contract ----------------------------------
  //
  // VerifyBatch verifies `n` records of a flat coordinate block (stride
  // 2*nd floats, layout [lo0, hi0, lo1, hi1, ...] — the SlotArray layout)
  // against the precomputed query image `bq`, appends the ids of matching
  // records to `*out` IN RECORD ORDER, and returns the match count.
  //
  // `*dims_checked` is incremented by the number of LOGICAL dimension
  // reads — per record, exactly what the scalar early-exit loop
  // (SatisfiesCounting) would report:
  //
  //     first failing dimension + 1   on a reject,
  //     nd                            on a match,
  //
  // where the first failing dimension is derived from the first failing
  // FLOAT position k as k/2 (each dimension spans two floats). This is a
  // *logical reads* count, not a physical-probe count: a wide backend
  // that speculatively compares 16 floats past the failing position, or
  // re-probes a chunk to locate the first failing bit, performs more
  // physical comparisons but must still charge only the scalar early-exit
  // figure. The cost model prices verification from this counter
  // (verify_ms_per_byte * (4*n + 8*dims_checked)); a backend that let its
  // physical probe count leak into it would silently skew every
  // split/merge decision the adaptive clustering makes — and would do so
  // differently per machine, making cost-model traces
  // hardware-dependent. Backends are free to vectorize however they like
  // as long as this accounting (and the match set) is bit-for-bit the
  // scalar reference's.
  virtual size_t VerifyBatch(const float* coords, const ObjectId* ids,
                             size_t n, const BatchQuery& bq,
                             std::vector<ObjectId>* out,
                             uint64_t* dims_checked) const = 0;

  // ---- Dispatch accounting -------------------------------------------
  //
  // Call sites that resolve a backend once and loop (the adaptive index's
  // verify loop) note each dispatch here; the BackendRegistry attaches
  // every registered backend's counter to the process-default
  // MetricsRegistry as accl_kernel_dispatch_<name>_total, so engine
  // metric dumps show which kernel actually ran and how often.
  void NoteDispatch() const { dispatch_count_.Add(1); }
  uint64_t dispatch_count() const { return dispatch_count_.Value(); }
  obs::Counter* dispatch_counter() const { return &dispatch_count_; }

 private:
  mutable obs::Counter dispatch_count_;
};

}  // namespace accl::kernels
