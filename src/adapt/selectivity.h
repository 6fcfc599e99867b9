// SelectivityAnalyzer — predicts, for every candidate fence dimension,
// what range routing would cost if the fences were placed there.
//
// Pure functions over a PatternSnapshot: no locks, no engine state, fully
// deterministic — routing decisions (and therefore the fuzzers' replays)
// are reproducible from the histogram contents alone.
//
// The model, per dimension d with R range slices:
//
//   - Fence placement: R-1 interior fences at equal-mass quantiles of the
//     subscription interval-center distribution (approximated at bin
//     resolution by the mean of the lower- and upper-endpoint cumulative
//     histograms). PlanFences emits exactly these fences, and it is the
//     engine's only fence planner (dimension switches and RebalanceOnce),
//     so the estimate prices the fences the engine would install.
//   - Expected shard visits per event: an event visits one slice per fence
//     its interval crosses, plus its home slice, plus the overflow shard.
//     Intervals crossing fence f at bin boundary t number
//     count(lo < t) - count(hi < t) — exact at bin resolution.
//   - Straddler fraction: subscriptions crossing >= 1 fence would live in
//     the overflow shard. Summed per fence and clamped to 1 (a box
//     crossing two fences is counted twice; the overestimate is shared by
//     every candidate dimension, so the comparison stays fair).
//   - Score: expected visits + straddler_fraction * R. Every event visits
//     the overflow shard, so an overflow holding fraction f of all
//     subscriptions adds ~f of a broadcast's verification work — pricing
//     it as f extra "slice-equivalents" keeps a dimension that routes
//     narrowly but straddles everything from winning.
#pragma once

#include <cstdint>
#include <vector>

#include "adapt/pattern_tracker.h"
#include "api/adaptive_routing.h"
#include "api/types.h"

namespace accl::adapt {

class SelectivityAnalyzer {
 public:
  /// Per-dimension estimates under an optimal fence set of `slices` range
  /// slices. Returns one entry per dimension of `p`; all-zero estimates
  /// when the snapshot holds no events or no subscriptions.
  static std::vector<DimensionEstimate> Analyze(const PatternSnapshot& p,
                                                uint32_t slices);

  /// Equal-mass quantile fence plan for dimension `dim`: `n_fences`
  /// strictly ascending interior fences at bin-boundary resolution.
  /// Degenerate mass (everything in a handful of bins) falls back to a
  /// uniform split so the result is always a valid boundary array.
  static std::vector<float> PlanFences(const PatternSnapshot& p, Dim dim,
                                       size_t n_fences);
};

/// A dimension switch needs the current fence dimension's score to be at
/// least this multiple of the best candidate's: a margin of 1 or less would
/// let estimation noise flip the dimension back and forth every window.
inline constexpr double kSwitchThreshold = 1.5;

/// One observation window's routing decision (ChooseFenceDimension).
struct FenceChoice {
  /// Analyze's per-dimension estimates; empty when the window saw no
  /// events or no subscriptions, or when there is a single slice.
  std::vector<DimensionEstimate> estimates;
  /// True when routing should re-fence on `dim` with `fences`.
  bool switch_dimension = false;
  uint32_t dim = 0;
  std::vector<float> fences;  ///< slices-1 interior fences on `dim`
};

/// The adaptive routing rule: take the lowest-scoring dimension from
/// Analyze and switch to it when `current_dim`'s score is at least
/// kSwitchThreshold times that best score, with PlanFences' fences on it.
/// Pure: the outcome depends on the arguments alone.
FenceChoice ChooseFenceDimension(const PatternSnapshot& p,
                                 uint32_t current_dim, uint32_t slices);

}  // namespace accl::adapt
