#include "adapt/selectivity.h"

#include <algorithm>

namespace accl::adapt {

namespace {

/// Cumulative endpoint counts: out[t] = number of endpoints in bins
/// [0, t), i.e. endpoints strictly below the bin boundary t/kPatternBins.
void Cumulate(const std::array<uint64_t, kPatternBins>& bins,
              std::array<uint64_t, kPatternBins + 1>* out) {
  (*out)[0] = 0;
  for (size_t b = 0; b < kPatternBins; ++b) {
    (*out)[b + 1] = (*out)[b] + bins[b];
  }
}

/// Uniform interior fences: j/(n+1) for j = 1..n. Strictly ascending for
/// any n < kPatternBins-scale counts the engine accepts.
std::vector<float> UniformFences(size_t n_fences) {
  std::vector<float> f(n_fences);
  for (size_t j = 0; j < n_fences; ++j) {
    f[j] = static_cast<float>(j + 1) / static_cast<float>(n_fences + 1);
  }
  return f;
}

/// Bin-boundary indices (1..kPatternBins-1) of the planned fences for
/// `dim`, shared by Analyze (to price the plan) and PlanFences (to emit
/// it). Empty when the mass is too degenerate for a strictly ascending
/// quantile plan — callers fall back to uniform fences.
std::vector<size_t> QuantileBoundaries(const PatternSnapshot& p, Dim dim,
                                       size_t n_fences) {
  std::array<uint64_t, kPatternBins + 1> cum_lo, cum_hi;
  Cumulate(p.sub_dims[dim].lo, &cum_lo);
  Cumulate(p.sub_dims[dim].hi, &cum_hi);
  // Center mass below boundary t, doubled to stay integral: a box whose
  // endpoints both lie below t contributes 2, one spanning t contributes
  // 1 — exactly twice the "half the box is below t" center approximation.
  const uint64_t total2 = cum_lo[kPatternBins] + cum_hi[kPatternBins];
  if (total2 == 0 || n_fences == 0) return {};
  std::vector<size_t> bounds;
  bounds.reserve(n_fences);
  size_t t = 1;
  for (size_t j = 1; j <= n_fences; ++j) {
    // Smallest boundary with at least j/(n+1) of the center mass below it.
    const uint64_t target = total2 * j / (n_fences + 1);
    while (t < kPatternBins && cum_lo[t] + cum_hi[t] < target) ++t;
    // Strict ascent: a boundary colliding with its predecessor (a single
    // bin holding multiple quantiles) is nudged right.
    if (!bounds.empty() && t <= bounds.back()) t = bounds.back() + 1;
    if (t >= kPatternBins) return {};  // ran off the domain: degenerate
    bounds.push_back(t);
    ++t;
  }
  return bounds;
}

}  // namespace

std::vector<DimensionEstimate> SelectivityAnalyzer::Analyze(
    const PatternSnapshot& p, uint32_t slices) {
  const size_t nd = p.event_dims.size();
  std::vector<DimensionEstimate> est(nd);
  if (p.events == 0 || p.subscriptions == 0 || slices < 1) return est;
  const size_t n_fences = static_cast<size_t>(slices) - 1;
  for (size_t d = 0; d < nd; ++d) {
    std::vector<size_t> bounds =
        QuantileBoundaries(p, static_cast<Dim>(d), n_fences);
    if (bounds.empty() && n_fences > 0) {
      // Degenerate mass: price the uniform fallback PlanFences would emit.
      bounds.resize(n_fences);
      for (size_t j = 0; j < n_fences; ++j) {
        bounds[j] = std::max<size_t>(
            1, (j + 1) * kPatternBins / (n_fences + 1));
        if (j > 0 && bounds[j] <= bounds[j - 1]) bounds[j] = bounds[j - 1] + 1;
        bounds[j] = std::min(bounds[j], kPatternBins - 1);
      }
    }
    std::array<uint64_t, kPatternBins + 1> ev_lo, ev_hi, sub_lo, sub_hi;
    Cumulate(p.event_dims[d].lo, &ev_lo);
    Cumulate(p.event_dims[d].hi, &ev_hi);
    Cumulate(p.sub_dims[d].lo, &sub_lo);
    Cumulate(p.sub_dims[d].hi, &sub_hi);
    uint64_t ev_crossings = 0;
    uint64_t sub_crossings = 0;
    for (const size_t t : bounds) {
      ev_crossings += ev_lo[t] - ev_hi[t];
      sub_crossings += sub_lo[t] - sub_hi[t];
    }
    DimensionEstimate& e = est[d];
    e.expected_shard_visits =
        1.0 +
        static_cast<double>(ev_crossings) / static_cast<double>(p.events) +
        1.0;  // home slice + crossed fences + the overflow visit
    e.straddler_fraction =
        std::min(1.0, static_cast<double>(sub_crossings) /
                          static_cast<double>(p.subscriptions));
    e.score = e.expected_shard_visits +
              e.straddler_fraction * static_cast<double>(slices);
  }
  return est;
}

std::vector<float> SelectivityAnalyzer::PlanFences(const PatternSnapshot& p,
                                                   Dim dim, size_t n_fences) {
  if (n_fences == 0) return {};
  const std::vector<size_t> bounds = QuantileBoundaries(p, dim, n_fences);
  if (bounds.empty()) return UniformFences(n_fences);
  std::vector<float> fences(n_fences);
  for (size_t j = 0; j < n_fences; ++j) {
    fences[j] =
        static_cast<float>(bounds[j]) / static_cast<float>(kPatternBins);
  }
  return fences;
}

FenceChoice ChooseFenceDimension(const PatternSnapshot& p,
                                 uint32_t current_dim, uint32_t slices) {
  FenceChoice c;
  if (p.events == 0 || p.subscriptions == 0 || slices < 2) {
    return c;  // nothing observed yet, or a single slice: nothing to route
  }
  c.estimates = SelectivityAnalyzer::Analyze(p, slices);
  if (current_dim >= c.estimates.size()) return c;
  size_t best = current_dim;
  for (size_t cand = 0; cand < c.estimates.size(); ++cand) {
    if (c.estimates[cand].score < c.estimates[best].score) best = cand;
  }
  const double best_score = c.estimates[best].score;
  if (best != current_dim && best_score > 0.0 &&
      c.estimates[current_dim].score >= kSwitchThreshold * best_score) {
    c.switch_dimension = true;
    c.dim = static_cast<uint32_t>(best);
    c.fences = SelectivityAnalyzer::PlanFences(p, static_cast<Dim>(best),
                                               slices - 1);
  }
  return c;
}

}  // namespace accl::adapt
