// Spatial relations between a query object and database objects.
//
// The paper's spatial selections: intersection, containment ("find objects
// contained in the query"), enclosure ("find objects enclosing the query"),
// with point-enclosing as the degenerate enclosure case.
#pragma once

#include <cstdint>
#include <vector>

#include "api/types.h"
#include "geometry/box.h"

namespace accl {

/// The spatial relation requested between the query object Q and a database
/// object O for O to belong to the answer set.
enum class Relation : uint8_t {
  kIntersects = 0,  ///< O ∩ Q ≠ ∅
  kContainedBy,     ///< O ⊆ Q (containment query)
  kEncloses,        ///< O ⊇ Q (enclosure query; point-enclosing when Q is a point)
};

const char* RelationName(Relation r);

/// True iff `obj` stands in relation `rel` to `query`. Both boxes must have
/// the same dimensionality.
bool Satisfies(BoxView obj, BoxView query, Relation rel);

/// As Satisfies(), but additionally reports how many dimensions were compared
/// before the verdict (early exit on the first failing dimension). This is
/// the per-object verification cost the paper's footnote 4 discusses: for
/// unselective queries, more attributes must be checked on average.
bool SatisfiesCounting(BoxView obj, BoxView query, Relation rel,
                       uint32_t* dims_checked);

/// Precomputed query image for batched verification.
///
/// Per record float k (layout [lo0, hi0, lo1, hi1, ...]) the image holds two
/// bounds such that the float fails its dimension iff
///
///     o[k] > gt_bound[k]  ||  o[k] < lt_bound[k]
///
/// with +/-infinity in the positions a relation does not constrain. This
/// encodes all three relations into data: the kernel runs one uniform,
/// branch-free two-compare loop with no per-object or per-dimension
/// dispatch, and the failing-float position is exactly the early-exit
/// dimension the cost accounting needs.
class BatchQuery {
 public:
  BatchQuery() = default;
  BatchQuery(BoxView query, Relation rel) { Assign(query, rel); }

  /// (Re)builds the image for a new query, reusing the buffers — keep one
  /// instance around to avoid per-query allocations on the hot path.
  void Assign(BoxView query, Relation rel);

  Dim dims() const { return nd_; }
  Relation relation() const { return rel_; }
  const float* gt_bounds() const { return gt_.data(); }
  const float* lt_bounds() const { return lt_.data(); }

 private:
  Dim nd_ = 0;
  Relation rel_ = Relation::kIntersects;
  std::vector<float> gt_;  // 2*nd, fail if o[k] > gt_[k]
  std::vector<float> lt_;  // 2*nd, fail if o[k] < lt_[k]
};

// The batched verification kernel that consumes a BatchQuery lives in
// src/kernels/ (verify_backend.h / backend_registry.h): one algorithm,
// three runtime-dispatched variants (scalar, avx2, avx512). BatchQuery
// stays here because it is pure query-image data — geometry remains below
// the kernel layer.

/// Convenience wrappers.
inline bool Intersects(BoxView a, BoxView b) {
  return Satisfies(a, b, Relation::kIntersects);
}
inline bool ContainedBy(BoxView inner, BoxView outer) {
  return Satisfies(inner, outer, Relation::kContainedBy);
}
inline bool Encloses(BoxView outer, BoxView inner) {
  return Satisfies(outer, inner, Relation::kEncloses);
}

}  // namespace accl
