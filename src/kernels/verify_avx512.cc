// AVX-512F verify backend: one 512-bit compare pair covers the whole
// 16-float chunk, and the fail mask comes back in a mask register —
// movemask and the OR tree disappear entirely. Compiled with -mavx512f
// per-file; reached only via MakeAvx512Backend after the CPUID probe.
//
// Chunk remains 16 floats, matching AVX2, so first-fail positions and
// dims accounting are structurally identical. The floats past the last
// whole chunk take one masked compare pair (FirstFailMasked); see
// verify_common.h.
#include <immintrin.h>

#include "kernels/backends.h"
#include "kernels/verify_common.h"

namespace accl::kernels {

namespace {

struct Avx512Probe {
  static constexpr size_t kChunk = 16;
  static inline size_t FirstFail(const float* o, const float* bg,
                                 const float* bl) {
    const __m512 ov = _mm512_loadu_ps(o);
    const __mmask16 m = static_cast<__mmask16>(
        _mm512_cmp_ps_mask(ov, _mm512_loadu_ps(bg), _CMP_GT_OQ) |
        _mm512_cmp_ps_mask(ov, _mm512_loadu_ps(bl), _CMP_LT_OQ));
    return m != 0 ? static_cast<size_t>(__builtin_ctz(m)) : kChunk;
  }
  // The first `count` floats only: masked-out lanes are neither loaded
  // (so they cannot fault) nor compared (so they report no failure).
  static inline size_t FirstFailMasked(const float* o, const float* bg,
                                       const float* bl, size_t count) {
    const __mmask16 lanes = static_cast<__mmask16>((1u << count) - 1);
    const __m512 ov = _mm512_maskz_loadu_ps(lanes, o);
    const __mmask16 m = static_cast<__mmask16>(
        _mm512_mask_cmp_ps_mask(lanes, ov, _mm512_maskz_loadu_ps(lanes, bg),
                                _CMP_GT_OQ) |
        _mm512_mask_cmp_ps_mask(lanes, ov, _mm512_maskz_loadu_ps(lanes, bl),
                                _CMP_LT_OQ));
    return m != 0 ? static_cast<size_t>(__builtin_ctz(m)) : kChunk;
  }
};

class Avx512Backend final : public VerifyBackend {
 public:
  const char* name() const override { return "avx512"; }
  uint32_t vector_width_floats() const override { return 16; }
  bool SupportedOnHost(const CpuFeatures& host) const override {
    return host.avx512f;
  }

  size_t VerifyBatch(const float* coords, const ObjectId* ids, size_t n,
                     const BatchQuery& bq, std::vector<ObjectId>* out,
                     uint64_t* dims_checked) const override {
    return detail::VerifyBatchImpl<Avx512Probe>(coords, ids, n, bq, out,
                                                dims_checked);
  }
};

}  // namespace

std::unique_ptr<VerifyBackend> MakeAvx512Backend() {
  return std::make_unique<Avx512Backend>();
}

}  // namespace accl::kernels
