// AVX2 verify backend: 16 floats (8 dimensions) per probe step via two
// 256-bit compares. This TU is compiled with -mavx2 (set per-file by CMake,
// never globally), so nothing outside it may call into it directly — the
// registry reaches it only through the MakeAvx2Backend factory, and only
// after the CPUID probe confirmed the host executes AVX2.
//
// The chunk is 16 floats — same as AVX-512 — so the first-fail positions,
// and therefore the dims accounting, are structurally identical across
// backends. Records that are not a whole number of chunks (a 6-d record is
// 12 floats) finish with FirstFailMasked; see verify_common.h.
#include <immintrin.h>

#include "kernels/backends.h"
#include "kernels/verify_common.h"

namespace accl::kernels {

namespace {

struct Avx2Probe {
  static constexpr size_t kChunk = 16;
  static inline size_t FirstFail(const float* o, const float* bg,
                                 const float* bl) {
    const uint32_t m =
        HalfFail(o, bg, bl) | HalfFail(o + 8, bg + 8, bl + 8) << 8;
    return m != 0 ? static_cast<size_t>(__builtin_ctz(m)) : kChunk;
  }
  // The first `count` floats only. A half that lies wholly inside the
  // record is probed as in FirstFail; the half holding the record's end is
  // loaded with _mm256_maskload_ps under an iota-compare lane mask, so a
  // lane past the record is never read and cannot fault.
  static inline size_t FirstFailMasked(const float* o, const float* bg,
                                       const float* bl, size_t count) {
    const uint32_t m =
        count <= 8 ? MaskedHalfFail(o, bg, bl, count)
                   : HalfFail(o, bg, bl) |
                         MaskedHalfFail(o + 8, bg + 8, bl + 8, count - 8) << 8;
    return m != 0 ? static_cast<size_t>(__builtin_ctz(m)) : kChunk;
  }

 private:
  // Fail bits of the 8 floats at `o`.
  static inline uint32_t HalfFail(const float* o, const float* bg,
                                  const float* bl) {
    const __m256 ov = _mm256_loadu_ps(o);
    return static_cast<uint32_t>(_mm256_movemask_ps(_mm256_or_ps(
        _mm256_cmp_ps(ov, _mm256_loadu_ps(bg), _CMP_GT_OQ),
        _mm256_cmp_ps(ov, _mm256_loadu_ps(bl), _CMP_LT_OQ))));
  }
  // Fail bits of the first `count` (1..8) floats at `o`. The lane mask is
  // ANDed into the compare result, so a masked-out lane reports no failure.
  static inline uint32_t MaskedHalfFail(const float* o, const float* bg,
                                        const float* bl, size_t count) {
    const __m256i lanes =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const __m256 ov = _mm256_maskload_ps(o, lanes);
    const __m256 f = _mm256_or_ps(
        _mm256_cmp_ps(ov, _mm256_maskload_ps(bg, lanes), _CMP_GT_OQ),
        _mm256_cmp_ps(ov, _mm256_maskload_ps(bl, lanes), _CMP_LT_OQ));
    return static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_and_ps(f, _mm256_castsi256_ps(lanes))));
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
