// AVX2 verify backend: 16 floats (8 dimensions) per probe step via two
// 256-bit compares. This TU is compiled with -mavx2 (set per-file by CMake,
// never globally), so nothing outside it may call into it directly — the
// registry reaches it only through the MakeAvx2Backend factory, and only
// after the CPUID probe confirmed the host executes AVX2.
//
// The chunk is 16 floats — same as AVX-512 — so the first-fail positions,
// and therefore the dims accounting, are structurally identical across
// backends.
#include <immintrin.h>

#include "kernels/backends.h"
#include "kernels/verify_common.h"

namespace accl::kernels {

namespace {

struct Avx2Probe {
  static constexpr size_t kChunk = 16;
  static inline size_t FirstFail(const float* o, const float* bg,
                                 const float* bl) {
    uint32_t m = 0;
    for (size_t g = 0; g < 16; g += 8) {
      const __m256 ov = _mm256_loadu_ps(o + g);
      const __m256 f = _mm256_or_ps(
          _mm256_cmp_ps(ov, _mm256_loadu_ps(bg + g), _CMP_GT_OQ),
          _mm256_cmp_ps(ov, _mm256_loadu_ps(bl + g), _CMP_LT_OQ));
      m |= static_cast<uint32_t>(_mm256_movemask_ps(f)) << g;
    }
    return m != 0 ? static_cast<size_t>(__builtin_ctz(m)) : kChunk;
  }
};

class Avx2Backend final : public VerifyBackend {
 public:
  const char* name() const override { return "avx2"; }
  uint32_t vector_width_floats() const override { return 8; }
  bool SupportedOnHost(const CpuFeatures& host) const override {
    return host.avx2;
  }

  size_t VerifyBatch(const float* coords, const ObjectId* ids, size_t n,
                     const BatchQuery& bq, std::vector<ObjectId>* out,
                     uint64_t* dims_checked) const override {
    return detail::VerifyBatchImpl<Avx2Probe>(coords, ids, n, bq, out,
                                              dims_checked);
  }
};

}  // namespace

std::unique_ptr<VerifyBackend> MakeAvx2Backend() {
  return std::make_unique<Avx2Backend>();
}

}  // namespace accl::kernels
