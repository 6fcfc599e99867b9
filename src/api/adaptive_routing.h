// Configuration and statistics types of the workload-adaptive routing
// subsystem (src/adapt/): online fence-dimension selection for the
// range-routed SDI engine.
//
// The paper's index adapts each cluster to its observed queries; these
// types lift the same idea one level up, to the *routing* layer. kRange
// slices shards over one fence dimension — dimension 0 at construction —
// and parks fence-straddlers in an overflow shard. When the workload's
// real selectivity lives on another axis, routing degrades toward
// broadcast. The adaptive subsystem observes event and subscription
// interval distributions per dimension (QueryPatternTracker), predicts
// each candidate dimension's routing selectivity under an optimal fence
// set (SelectivityAnalyzer), and, when another dimension is predicted
// kSwitchThreshold times cheaper, re-fences on it online
// (ChooseFenceDimension) through the same epoch-snapshot +
// double-residency migration rebalancing uses — so match sets stay
// byte-identical to the serial oracle at every instant.
//
// These types live in api/ so the engine's options/stats surface does not
// depend on the adapt/ implementation layer.
#pragma once

#include <cstdint>
#include <vector>

namespace accl {

/// Knobs of the adaptive routing subsystem (EngineOptions::adaptive).
/// Validated by SubscriptionEngine::ValidateOptions; every violation is a
/// descriptive Status from Create, never a crash in the first window.
struct AdaptiveRoutingOptions {
  /// Master switch. Requires ShardingPolicy::kRange. Off by default: the
  /// tracker's sampling is cheap but not free, and non-range policies have
  /// no routing dimension to adapt.
  bool enabled = false;

  /// Events between routing evaluations (the observation window). Each
  /// window the engine snapshots the pattern histograms, re-estimates
  /// per-dimension selectivity, and may switch the fence dimension. Must
  /// be >= 1 when enabled (a zero window would evaluate on every event).
  uint32_t sample_window = 4096;
};

/// What the analyzer predicts for routing on one candidate dimension,
/// assuming equal-mass quantile fences on that dimension.
struct DimensionEstimate {
  /// Expected shards visited per event: the fences an average event's
  /// interval crosses, plus its home slice, plus the overflow visit.
  double expected_shard_visits = 0.0;
  /// Fraction of subscriptions predicted to straddle at least one fence
  /// (they would live in the overflow shard, which every event visits).
  double straddler_fraction = 0.0;
  /// Comparable routing cost: expected_shard_visits plus the straddler
  /// fraction weighted by the slice count (an overflow shard holding
  /// fraction f of all subscriptions costs an event roughly f times a
  /// broadcast's verification work). Lower is better.
  double score = 0.0;
};

/// Point-in-time view of the adaptive subsystem
/// (SubscriptionEngine::adaptive_stats()).
struct AdaptiveRoutingStats {
  bool enabled = false;
  /// Fence dimension of the current routing snapshot.
  uint32_t fence_dimension = 0;
  uint64_t dimension_switches = 0;
  /// Observation windows evaluated (each may or may not switch).
  uint64_t windows_evaluated = 0;
  /// Lifetime samples the tracker has folded in.
  uint64_t events_observed = 0;
  uint64_t subscriptions_observed = 0;
  /// Per-dimension estimates of the most recent window (empty before the
  /// first window, and after one that saw no events or no subscriptions).
  std::vector<DimensionEstimate> last_estimates;
};

}  // namespace accl
