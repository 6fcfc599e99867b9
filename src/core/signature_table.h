// Structure-of-arrays image of all live cluster signatures.
//
// AdaptiveIndex::Execute must test every materialized cluster's signature
// against the query (paper Fig. 5 step 2). Walking the cluster table for that
// chases one heap pointer per cluster and re-dispatches on the relation per
// dimension; with hundreds of clusters the admit filter dominates query wall
// time. This table keeps a packed parallel-array copy of the per-dimension
// signature bounds (amin/amax/bmin/bmax) in a dense slot order, maintained
// incrementally as clusters are created and freed, so the filter becomes a
// branch-light sweep over contiguous floats.
//
// Layout: four float arrays, each dimension-major with stride `cap_`
// (entry [d * cap_ + slot]), so the per-dimension filter pass reads each
// array sequentially and auto-vectorizes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cluster.h"
#include "core/signature.h"
#include "geometry/query.h"

namespace accl {

/// Packed admit-filter index over live cluster signatures.
///
/// Thread safety: CollectAdmitted is const but reuses mutable per-query
/// scratch buffers (flags/survivor lists), so even concurrent *const* use
/// from multiple threads is a data race. Callers must serialize access per
/// table — AdaptiveIndex inherits this contract and documents it.
class SignatureTable {
 public:
  explicit SignatureTable(Dim nd);

  Dim dims() const { return nd_; }
  size_t size() const { return cluster_of_.size(); }

  /// Registers a cluster's signature; returns its (dense) slot.
  uint32_t Add(ClusterId id, const Signature& sig);

  /// Swap-removes `slot`. Returns the cluster id that now occupies `slot`
  /// (kNoCluster when `slot` was the last entry) so the caller can fix that
  /// cluster's stored slot.
  ClusterId Remove(uint32_t slot);

  /// Drops all entries (used when rebuilding an index from images).
  void Clear();

  /// Appends the cluster ids of every signature admitting `q`, in slot
  /// order. Exactly the clusters for which Signature::AdmitsQuery is true.
  void CollectAdmitted(const Query& q, std::vector<ClusterId>* out) const;

  /// Consistency probe for CheckInvariants: slot holds `id` with exactly
  /// `sig`'s bounds.
  bool SlotMatches(uint32_t slot, ClusterId id, const Signature& sig) const;

 private:
  void Grow(size_t need);

  Dim nd_;
  size_t cap_ = 0;
  std::vector<ClusterId> cluster_of_;  ///< slot -> cluster id
  // Signature bounds, [d * cap_ + slot]:
  std::vector<float> amin_;  ///< start_var(d).lo
  std::vector<float> amax_;  ///< start_var(d).hi
  std::vector<float> bmin_;  ///< end_var(d).lo
  std::vector<float> bmax_;  ///< end_var(d).hi
  /// True iff the stored bounds of (dim, slot) can reject some in-domain
  /// query, i.e. the variation intervals are narrower than the full domain.
  bool RefinedAt(Dim d, uint32_t slot) const {
    return amin_[d * cap_ + slot] != kDomainMin ||
           amax_[d * cap_ + slot] != kDomainMax ||
           bmin_[d * cap_ + slot] != kDomainMin ||
           bmax_[d * cap_ + slot] != kDomainMax;
  }

  /// Slots whose signature is refined (non-full-domain) on each dimension.
  /// A full-domain dimension passes every relation's admit test for any
  /// query inside the domain, so the filter only has to test each slot on
  /// the dimensions listed here — typically one or two per cluster.
  std::vector<std::vector<uint32_t>> refined_;
  mutable std::vector<uint8_t> flags_;  ///< per-query admit flags scratch
  // Per-query survivor-list scratch for the out-of-domain fallback path.
  mutable std::vector<uint32_t> survivors_;
  mutable std::vector<uint32_t> scratch_;
};

}  // namespace accl
