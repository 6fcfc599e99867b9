// Scalar verify backend — the portable reference every other backend must
// match bit-for-bit (match sets, ordering, dims accounting). Runs anywhere;
// the registry guarantees it is always registered, which is what makes
// ACCL_FORCE_BACKEND=scalar a valid pin on every machine CI ever lands on.
#include "kernels/backends.h"
#include "kernels/verify_common.h"

namespace accl::kernels {

namespace {

struct ScalarProbe {
  // No chunked sweep: kChunk == 0 selects the skeleton's per-float
  // early-exit loop for the whole record. Only this backend runs it.
  static constexpr size_t kChunk = 0;
};

class ScalarBackend final : public VerifyBackend {
 public:
  const char* name() const override { return "scalar"; }
  uint32_t vector_width_floats() const override { return 1; }
  bool SupportedOnHost(const CpuFeatures&) const override { return true; }

  size_t VerifyBatch(const float* coords, const ObjectId* ids, size_t n,
                     const BatchQuery& bq, std::vector<ObjectId>* out,
                     uint64_t* dims_checked) const override {
    return detail::VerifyBatchImpl<ScalarProbe>(coords, ids, n, bq, out,
                                                dims_checked);
  }
};

}  // namespace

std::unique_ptr<VerifyBackend> MakeScalarBackend() {
  return std::make_unique<ScalarBackend>();
}

}  // namespace accl::kernels
