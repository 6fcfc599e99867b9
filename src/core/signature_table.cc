#include "core/signature_table.h"

#include <algorithm>

#include "util/check.h"

namespace accl {

namespace {

// One dimension of the admit test over packed per-slot bound arrays: slot s
// survives iff le[s] <= le_bound && ge[s] >= ge_bound. Both sweeps are
// branch-free compactions (write unconditionally, advance on survival) and
// emit surviving slots in ascending order.

// Scans slots [0, n); `out` has capacity >= n.
size_t FilterDense(const float* le, const float* ge, float le_bound,
                   float ge_bound, size_t n, uint32_t* out) {
  size_t count = 0;
  for (size_t s = 0; s < n; ++s) {
    out[count] = static_cast<uint32_t>(s);
    count += (le[s] <= le_bound) & (ge[s] >= ge_bound);
  }
  return count;
}

// Scans the ascending slot list `in` of length n; `out` may not alias `in`.
size_t FilterSparse(const float* le, const float* ge, float le_bound,
                    float ge_bound, const uint32_t* in, size_t n,
                    uint32_t* out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = in[i];
    out[count] = s;
    count += (le[s] <= le_bound) & (ge[s] >= ge_bound);
  }
  return count;
}

}  // namespace

SignatureTable::SignatureTable(Dim nd) : nd_(nd), refined_(nd) {
  ACCL_CHECK(nd > 0);
}

void SignatureTable::Grow(size_t need) {
  size_t ncap = std::max<size_t>(16, cap_ * 2);
  while (ncap < need) ncap *= 2;
  const size_t used = cluster_of_.size();
  for (std::vector<float>* arr : {&amin_, &amax_, &bmin_, &bmax_}) {
    std::vector<float> fresh(static_cast<size_t>(nd_) * ncap);
    for (Dim d = 0; d < nd_; ++d) {
      std::copy_n(arr->data() + d * cap_, used, fresh.data() + d * ncap);
    }
    *arr = std::move(fresh);
  }
  cap_ = ncap;
}

uint32_t SignatureTable::Add(ClusterId id, const Signature& sig) {
  ACCL_DCHECK(sig.dims() == nd_);
  const uint32_t slot = static_cast<uint32_t>(cluster_of_.size());
  if (cluster_of_.size() + 1 > cap_) Grow(cluster_of_.size() + 1);
  cluster_of_.push_back(id);
  for (Dim d = 0; d < nd_; ++d) {
    amin_[d * cap_ + slot] = sig.start_var(d).lo;
    amax_[d * cap_ + slot] = sig.start_var(d).hi;
    bmin_[d * cap_ + slot] = sig.end_var(d).lo;
    bmax_[d * cap_ + slot] = sig.end_var(d).hi;
    if (RefinedAt(d, slot)) refined_[d].push_back(slot);
  }
  return slot;
}

ClusterId SignatureTable::Remove(uint32_t slot) {
  ACCL_CHECK(slot < cluster_of_.size());
  const uint32_t last = static_cast<uint32_t>(cluster_of_.size()) - 1;
  // Drop the removed slot from the per-dimension refined lists (its bounds
  // are still intact), then rename `last` to `slot` in the lists of the
  // cluster that fills the hole. Removals only happen on merges, so the
  // linear list scans are off the hot path.
  for (Dim d = 0; d < nd_; ++d) {
    if (!RefinedAt(d, slot)) continue;
    auto& lst = refined_[d];
    auto it = std::find(lst.begin(), lst.end(), slot);
    ACCL_DCHECK(it != lst.end());
    *it = lst.back();
    lst.pop_back();
  }
  ClusterId moved = kNoCluster;
  if (slot != last) {
    for (Dim d = 0; d < nd_; ++d) {
      if (!RefinedAt(d, last)) continue;
      auto& lst = refined_[d];
      auto it = std::find(lst.begin(), lst.end(), last);
      ACCL_DCHECK(it != lst.end());
      *it = slot;
    }
    for (Dim d = 0; d < nd_; ++d) {
      amin_[d * cap_ + slot] = amin_[d * cap_ + last];
      amax_[d * cap_ + slot] = amax_[d * cap_ + last];
      bmin_[d * cap_ + slot] = bmin_[d * cap_ + last];
      bmax_[d * cap_ + slot] = bmax_[d * cap_ + last];
    }
    cluster_of_[slot] = cluster_of_[last];
    moved = cluster_of_[slot];
  }
  cluster_of_.pop_back();
  return moved;
}

void SignatureTable::Clear() {
  cluster_of_.clear();
  for (auto& lst : refined_) lst.clear();
}

void SignatureTable::CollectAdmitted(const Query& q,
                                     std::vector<ClusterId>* out) const {
  ACCL_DCHECK(q.dims() == nd_);
  const size_t nslots = cluster_of_.size();
  if (nslots == 0) return;
  const float* qc = q.box.data();

  // Per dimension, every relation's admit test is two bound comparisons
  // against one of the packed arrays (see Signature::AdmitsQuery):
  //   intersects:    amin <= q.hi  &&  bmax >= q.lo
  //   contained-by:  bmin <= q.hi  &&  amax >= q.lo
  //   encloses:      amin <= q.lo  &&  bmax >= q.hi
  const float* le_arr = nullptr;  // array compared with <=
  const float* ge_arr = nullptr;  // array compared with >=
  bool le_bound_is_hi = true;     // which query coordinate bounds it
  switch (q.rel) {
    case Relation::kIntersects:
      le_arr = amin_.data();
      ge_arr = bmax_.data();
      le_bound_is_hi = true;
      break;
    case Relation::kContainedBy:
      le_arr = bmin_.data();
      ge_arr = amax_.data();
      le_bound_is_hi = true;
      break;
    case Relation::kEncloses:
      le_arr = amin_.data();
      ge_arr = bmax_.data();
      le_bound_is_hi = false;
      break;
  }

  // Fast path for queries inside the domain: a full-domain dimension passes
  // every relation's admit test for such a query, so each slot only needs
  // testing on the dimensions where its signature is refined — the
  // per-dimension refined lists make that Sum(|refined_[d]|) work, roughly
  // one test per live cluster, instead of nslots * nd.
  bool in_domain = true;
  for (Dim d = 0; d < nd_; ++d) {
    in_domain &= (qc[2 * d] >= kDomainMin) & (qc[2 * d + 1] <= kDomainMax);
  }
  if (in_domain) {
    flags_.assign(nslots, 1);
    uint8_t* __restrict__ f = flags_.data();
    for (Dim d = 0; d < nd_; ++d) {
      const std::vector<uint32_t>& lst = refined_[d];
      if (lst.empty()) continue;
      const float qlo = qc[2 * d];
      const float qhi = qc[2 * d + 1];
      const float le_b = le_bound_is_hi ? qhi : qlo;
      const float ge_b = le_bound_is_hi ? qlo : qhi;
      const float* __restrict__ le = le_arr + d * cap_;
      const float* __restrict__ ge = ge_arr + d * cap_;
      for (const uint32_t s : lst) {
        f[s] &= static_cast<uint8_t>((le[s] <= le_b) & (ge[s] >= ge_b));
      }
    }
    for (size_t s = 0; s < nslots; ++s) {
      if (f[s]) out->push_back(cluster_of_[s]);
    }
    return;
  }

  // Out-of-domain fallback: dense first pass over dimension 0, then sparse
  // passes over the shrinking survivor list: total work is nslots + sum of
  // survivor counts, which for selective queries collapses after two or
  // three dimensions.
  survivors_.resize(nslots);
  scratch_.resize(nslots);
  uint32_t* __restrict__ cur = survivors_.data();
  uint32_t* __restrict__ nxt = scratch_.data();
  size_t count = 0;
  {
    const float le_b = le_bound_is_hi ? qc[1] : qc[0];
    const float ge_b = le_bound_is_hi ? qc[0] : qc[1];
    count = FilterDense(le_arr, ge_arr, le_b, ge_b, nslots, cur);
  }
  for (Dim d = 1; d < nd_ && count > 0; ++d) {
    const float qlo = qc[2 * d];
    const float qhi = qc[2 * d + 1];
    const float le_b = le_bound_is_hi ? qhi : qlo;
    const float ge_b = le_bound_is_hi ? qlo : qhi;
    count = FilterSparse(le_arr + d * cap_, ge_arr + d * cap_, le_b, ge_b,
                         cur, count, nxt);
    std::swap(cur, nxt);
  }
  for (size_t i = 0; i < count; ++i) out->push_back(cluster_of_[cur[i]]);
}

bool SignatureTable::SlotMatches(uint32_t slot, ClusterId id,
                                 const Signature& sig) const {
  if (slot >= cluster_of_.size() || cluster_of_[slot] != id) return false;
  for (Dim d = 0; d < nd_; ++d) {
    if (amin_[d * cap_ + slot] != sig.start_var(d).lo) return false;
    if (amax_[d * cap_ + slot] != sig.start_var(d).hi) return false;
    if (bmin_[d * cap_ + slot] != sig.end_var(d).lo) return false;
    if (bmax_[d * cap_ + slot] != sig.end_var(d).hi) return false;
  }
  return true;
}

}  // namespace accl
