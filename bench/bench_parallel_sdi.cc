// Sharded SDI matching throughput: one engine, K shards, MatchBatch fanned
// across 1/2/4/8 matcher threads.
//
// Two scaling views are reported per thread count:
//   - wall: measured wall-clock events/sec on this machine (honest, but
//     bounded by the host's core count — a single-core container shows ~1x
//     regardless of thread count);
//   - sim: cost-model events/sec under the repo's virtual-clock convention
//     (the same substitution SimDisk makes for the paper's 2004 testbed).
//     Per batch, each shard's cost-model milliseconds are scheduled LPT
//     onto N virtual workers and the batch is charged the makespan. This
//     is deterministic and hardware-independent, which is what makes the
//     scaling trajectory trackable across commits.
//
// A second scenario stresses dispatch selectivity under skew: subscriptions
// and events draw their leading-dimension position from a Zipf bin
// distribution and are compared across three dispatch modes — broadcast
// (kHashId), range-routed (kRange), and range-routed after one
// RebalanceOnce re-fences at the residents' equal-mass quantiles — on
// shard visits per event, wall throughput, and the
// LPT-simulated cost. The per-event match digest must be identical across
// modes (routing and rebalancing are not allowed to change answers).
//
// A third scenario measures match-under-rebalance: the same skewed
// workload matched continuously while a dedicated thread hammers
// RebalanceOnce and wholesale SetRangeBoundaries swaps. Under the
// epoch-published snapshot model every batch must still be digest-equal
// to the quiesced run (the subscription set is fixed), so this scenario
// both gates mid-migration exactness and prices the epoch machinery
// (grace periods, snapshot publishes) under live traffic.
//
// A fourth scenario prices durable ingest: concurrent Subscribe traffic
// through the WAL (durability/) in group-commit mode vs per-record-flush
// mode — the batching factor (records per fsync) is the whole point of
// group commit, and the gate requires >= 2x Subscribe throughput — plus
// the recovery replay rate: reopening the written log and rebuilding the
// engine from it, timed.
//
// Emits BENCH_parallel.json (override path with ACCL_PARSDI_JSON, disable
// with an empty value) and prints the same numbers as a table.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "durability/checkpoint.h"
#include "durability/segment.h"
#include "durability/wal.h"
#include "kernels/backend_registry.h"
#include "obs/alloc_hook.h"
#include "obs/trace.h"
#include "sdi/subscription_engine.h"
#include "util/digest.h"
#include "util/rng.h"
#include "util/timer.h"

// Process-wide allocation counter: the obs hook's global operator
// new/delete replace libstdc++'s for the whole binary, so the bench can
// assert the steady-state batch path stopped allocating — and every
// engine's DumpMetrics() in this process reports live allocation counts.
// (GCC pairs the inlined malloc in the replaced operator new with the free
// in the replaced operator delete and mis-reports a mismatch; the pair is
// consistent by construction.)
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
ACCL_OBS_INSTALL_GLOBAL_ALLOC_HOOK();

namespace accl {
namespace {

constexpr Dim kNd = 6;

size_t EnvSize(const char* name, size_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return static_cast<size_t>(std::strtoull(v, nullptr, 10));
}

double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::strtod(v, nullptr);
}

Box RandomSubscription(Rng& rng) {
  Box b(kNd);
  for (Dim d = 0; d < kNd; ++d) {
    const float len = 0.25f * rng.NextFloat();
    const float start = (1.0f - len) * rng.NextFloat();
    b.set(d, start, start + len);
  }
  return b;
}

std::vector<Event> MakeEvents(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<Event> evs;
  evs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.5)) {
      std::vector<float> pt(kNd);
      for (auto& x : pt) x = rng.NextFloat();
      evs.push_back(Event::Point(std::move(pt)));
    } else {
      Box b(kNd);
      for (Dim d = 0; d < kNd; ++d) {
        const float len = 0.15f * rng.NextFloat();
        const float start = (1.0f - len) * rng.NextFloat();
        b.set(d, start, start + len);
      }
      evs.push_back(Event::Range(std::move(b)));
    }
  }
  return evs;
}

/// LPT makespan of `costs` on `workers` identical machines.
double Makespan(std::vector<double> costs, size_t workers) {
  std::sort(costs.begin(), costs.end(), std::greater<double>());
  std::vector<double> load(std::max<size_t>(workers, 1), 0.0);
  for (const double c : costs) {
    *std::min_element(load.begin(), load.end()) += c;
  }
  return *std::max_element(load.begin(), load.end());
}

struct RunResult {
  size_t threads;
  double wall_ms;
  double sim_ms;
  uint64_t total_matches;
  uint64_t match_digest;     ///< FNV over (event index, sorted ids)
  double allocs_per_batch;   ///< steady-state heap allocations per MatchBatch
  uint64_t sink_matches;     ///< streamed-sink pass total (parity-checked)
  /// Residual-serialization counters summed over the timed passes: shard
  /// try-lock misses (worker found a shard queue's mutex held and stole
  /// elsewhere) and failed ready-stack head-CAS pops. These localize where
  /// the remaining wall-scaling gap serializes.
  uint64_t trylock_failures = 0;
  uint64_t ready_pop_retries = 0;
};

RunResult RunAtThreads(size_t threads, size_t subs, size_t n_events,
                       size_t batch, uint32_t shards) {
  EngineOptions opts;
  opts.index.reorg_period = 100;
  opts.default_policy = MatchPolicy::kIntersecting;
  opts.shards = shards;
  opts.match_threads = static_cast<uint32_t>(threads);
  AttributeSchema schema;
  for (Dim d = 0; d < kNd; ++d) {
    schema.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  SubscriptionEngine engine(std::move(schema), opts);
  Rng rng(42);
  for (size_t i = 0; i < subs; ++i) {
    engine.SubscribeBox(RandomSubscription(rng));
  }
  const std::vector<Event> events = MakeEvents(43, n_events);

  struct PassResult {
    double wall_ms = 0.0;
    double sim_ms = 0.0;
    uint64_t total_matches = 0;
    uint64_t match_digest = kFnvOffsetBasis;
    uint64_t allocs = 0;  ///< heap allocations inside the MatchBatch calls
    size_t batches = 0;
    uint64_t trylock_failures = 0;
    uint64_t ready_pop_retries = 0;
  };
  MatchBatchResult res;
  const auto one_pass = [&] {
    PassResult p;
    size_t event_index = 0;
    for (size_t off = 0; off < events.size(); off += batch) {
      const size_t ne = std::min(batch, events.size() - off);
      // Only the MatchBatch call is timed; digest and makespan accounting
      // are measurement overhead and must not deflate the reported scaling.
      // The allocation window brackets the call alone for the same reason:
      // after warmup the engine's pooled scratch and the reused result must
      // make the batch path allocation-quiet (pool task submission is the
      // only remaining constant-per-batch source).
      const uint64_t a0 = obs::HeapAllocsNow();
      WallTimer wall;
      engine.MatchBatch(Span<const Event>(events.data() + off, ne), &res);
      p.wall_ms += wall.ElapsedMs();
      p.allocs += obs::HeapAllocsNow() - a0;
      ++p.batches;
      std::vector<double> shard_costs;
      shard_costs.reserve(res.per_shard.size());
      for (const ShardMetrics& sm : res.per_shard) {
        shard_costs.push_back(sm.totals.sim_time_ms);
        p.trylock_failures += sm.try_lock_failures;
      }
      p.ready_pop_retries += res.ready_pop_retries;
      p.sim_ms += Makespan(std::move(shard_costs), threads);
      // Digest the exact (event, id) assignment, not just a count: a merge
      // bug that reshuffles matches between events must trip the gate.
      for (const auto& m : res.matches) {
        p.total_matches += m.size();
        p.match_digest = Fnv1a(p.match_digest, event_index++);
        for (const ObjectId id : m) {
          p.match_digest = Fnv1a(p.match_digest, id);
        }
      }
    }
    return p;
  };

  // Warmup passes (untimed: fault in caches, let AC converge on the event
  // stream) then median-of-N timed passes — the 8-thread wall column was
  // drowning in scheduler noise as a single-pass mean.
  const size_t warmup = EnvSize("ACCL_PARSDI_WARMUP", 1);
  const size_t reps = std::max<size_t>(1, EnvSize("ACCL_PARSDI_REPS", 3));
  for (size_t w = 0; w < warmup; ++w) (void)one_pass();

  std::vector<PassResult> passes;
  for (size_t rep = 0; rep < reps; ++rep) passes.push_back(one_pass());
  // The subscription set is fixed, so every pass must produce the same
  // digest — a cross-pass divergence is a determinism bug, not noise.
  for (const PassResult& p : passes) {
    if (p.match_digest != passes.front().match_digest) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: digest %016llx vs %016llx across "
                   "passes at %zu threads\n",
                   static_cast<unsigned long long>(p.match_digest),
                   static_cast<unsigned long long>(passes.front().match_digest),
                   threads);
      std::exit(1);
    }
  }
  std::vector<double> walls;
  for (const PassResult& p : passes) walls.push_back(p.wall_ms);
  std::nth_element(walls.begin(), walls.begin() + walls.size() / 2,
                   walls.end());
  uint64_t allocs = 0;
  size_t batches = 0;
  uint64_t trylock = 0;
  uint64_t pop_retries = 0;
  for (const PassResult& p : passes) {
    allocs += p.allocs;
    batches += p.batches;
    trylock += p.trylock_failures;
    pop_retries += p.ready_pop_retries;
  }

  // Streamed-sink parity: one extra pass through a VectorMatchSink must
  // digest byte-identically to the materialized result — the streamed
  // finalize path and MatchBatchResult path share per-event bytes exactly.
  VectorMatchSink sink;
  uint64_t sink_digest = kFnvOffsetBasis;
  uint64_t sink_matches = 0;
  size_t event_index = 0;
  for (size_t off = 0; off < events.size(); off += batch) {
    const size_t ne = std::min(batch, events.size() - off);
    sink.Reset(ne);
    engine.MatchBatch(Span<const Event>(events.data() + off, ne), &sink);
    for (const auto& m : sink.matches()) {
      sink_matches += m.size();
      sink_digest = Fnv1a(sink_digest, event_index++);
      for (const ObjectId id : m) sink_digest = Fnv1a(sink_digest, id);
    }
  }
  if (sink_digest != passes.front().match_digest) {
    std::fprintf(stderr,
                 "SINK DIVERGENCE: streamed digest %016llx vs materialized "
                 "%016llx at %zu threads\n",
                 static_cast<unsigned long long>(sink_digest),
                 static_cast<unsigned long long>(passes.front().match_digest),
                 threads);
    std::exit(1);
  }

  RunResult r{threads,
              walls[walls.size() / 2],
              passes.back().sim_ms,
              passes.back().total_matches,
              passes.back().match_digest,
              static_cast<double>(allocs) / static_cast<double>(batches),
              sink_matches,
              trylock,
              pop_retries};
  return r;
}

// ---- Skewed (Zipf leading-dimension) dispatch-selectivity scenario ----

constexpr size_t kZipfBins = 64;
constexpr double kZipfS = 1.1;

/// Sets dimension `dim` of `b` to a small interval inside a Zipf-hot bin —
/// the hot-dimension spot both the subscription and event makers share.
void SetZipfDim(Box* b, Dim dim, Rng& rng, const ZipfDistribution& zipf) {
  const float bin = static_cast<float>(zipf.Sample(rng));
  const float cell = 1.0f / static_cast<float>(kZipfBins);
  const float len = 0.6f * cell * rng.NextFloat();
  const float start = bin * cell + (cell - len) * rng.NextFloat();
  b->set(dim, start, start + len);
}

void SetZipfDim0(Box* b, Rng& rng, const ZipfDistribution& zipf) {
  SetZipfDim(b, 0, rng, zipf);
}

/// A subscription whose dim-0 interval lands in a Zipf-hot bin; remaining
/// dimensions are the uniform workload.
Box SkewedSubscription(Rng& rng, const ZipfDistribution& zipf) {
  Box b(kNd);
  SetZipfDim0(&b, rng, zipf);
  for (Dim d = 1; d < kNd; ++d) {
    const float dlen = 0.25f * rng.NextFloat();
    const float dstart = (1.0f - dlen) * rng.NextFloat();
    b.set(d, dstart, dstart + dlen);
  }
  return b;
}

std::vector<Event> MakeSkewedEvents(uint64_t seed, size_t n,
                                    const ZipfDistribution& zipf) {
  Rng rng(seed);
  std::vector<Event> evs;
  evs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Box b(kNd);
    SetZipfDim0(&b, rng, zipf);
    for (Dim d = 1; d < kNd; ++d) {
      const float len = 0.15f * rng.NextFloat();
      const float start = (1.0f - len) * rng.NextFloat();
      b.set(d, start, start + len);
    }
    evs.push_back(Event::Range(std::move(b)));
  }
  return evs;
}

struct SkewedResult {
  const char* mode;
  double wall_ms = 0.0;
  double sim_ms = 0.0;
  uint64_t shard_visits = 0;
  uint64_t total_matches = 0;
  uint64_t match_digest = kFnvOffsetBasis;
  uint64_t boundary_moves = 0;
  uint64_t migrated = 0;
};

SkewedResult RunSkewedMode(const char* mode, ShardingPolicy policy,
                           bool rebalance, size_t threads, size_t subs,
                           size_t n_events, size_t batch, uint32_t shards) {
  EngineOptions opts;
  opts.index.reorg_period = 100;
  opts.default_policy = MatchPolicy::kIntersecting;
  opts.shards = shards;
  opts.match_threads = static_cast<uint32_t>(threads);
  opts.sharding = policy;
  AttributeSchema schema;
  for (Dim d = 0; d < kNd; ++d) {
    schema.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  SubscriptionEngine engine(std::move(schema), opts);

  const ZipfDistribution zipf(kZipfBins, kZipfS);
  Rng rng(1042);
  std::vector<Box> boxes;
  boxes.reserve(subs);
  for (size_t i = 0; i < subs; ++i) {
    boxes.push_back(SkewedSubscription(rng, zipf));
  }
  std::vector<SubscriptionId> ids;
  engine.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()), &ids);
  if (rebalance) engine.RebalanceOnce();
  const std::vector<Event> events = MakeSkewedEvents(1043, n_events, zipf);

  SkewedResult r;
  r.mode = mode;
  MatchBatchResult res;
  size_t event_index = 0;
  for (size_t off = 0; off < events.size(); off += batch) {
    const size_t ne = std::min(batch, events.size() - off);
    WallTimer wall;
    engine.MatchBatch(Span<const Event>(events.data() + off, ne), &res);
    r.wall_ms += wall.ElapsedMs();
    std::vector<double> shard_costs;
    shard_costs.reserve(res.per_shard.size());
    for (const ShardMetrics& sm : res.per_shard) {
      shard_costs.push_back(sm.totals.sim_time_ms);
    }
    r.sim_ms += Makespan(std::move(shard_costs), threads);
    r.shard_visits += res.TotalShardVisits();
    for (const auto& m : res.matches) {
      r.total_matches += m.size();
      r.match_digest = Fnv1a(r.match_digest, event_index++);
      for (const ObjectId id : m) r.match_digest = Fnv1a(r.match_digest, id);
    }
  }
  r.boundary_moves = engine.rebalance_stats().boundary_moves;
  r.migrated = engine.rebalance_stats().subscriptions_migrated;
  return r;
}

// ---- Match-under-rebalance scenario ----

struct UnderRebalanceResult {
  double wall_ms = 0.0;
  size_t events_matched = 0;
  uint64_t total_matches = 0;
  uint64_t match_digest = kFnvOffsetBasis;
  bool digests_stable = true;  ///< every pass produced the same digest
  uint64_t boundary_moves = 0;
  uint64_t migrated = 0;
  uint64_t final_routing_version = 0;
  uint64_t epoch_synchronizes = 0;
  uint64_t epoch_pins = 0;
};

/// Matches the skewed event set `passes` times while a rebalancer thread
/// continuously moves fences. The subscription set is fixed, so every
/// batch's match digest must equal the quiesced skewed run's — the
/// mid-migration exactness the snapshot/epoch model guarantees.
UnderRebalanceResult RunMatchUnderRebalance(size_t threads, size_t subs,
                                            size_t n_events, size_t batch,
                                            uint32_t shards, size_t passes) {
  EngineOptions opts;
  opts.index.reorg_period = 100;
  opts.default_policy = MatchPolicy::kIntersecting;
  opts.shards = shards;
  opts.match_threads = static_cast<uint32_t>(threads);
  opts.sharding = ShardingPolicy::kRange;
  AttributeSchema schema;
  for (Dim d = 0; d < kNd; ++d) {
    schema.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  SubscriptionEngine engine(std::move(schema), opts);

  const ZipfDistribution zipf(kZipfBins, kZipfS);
  Rng rng(1042);  // same population as the skewed scenario
  std::vector<Box> boxes;
  boxes.reserve(subs);
  for (size_t i = 0; i < subs; ++i) {
    boxes.push_back(SkewedSubscription(rng, zipf));
  }
  std::vector<SubscriptionId> ids;
  engine.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()), &ids);
  const std::vector<Event> events = MakeSkewedEvents(1043, n_events, zipf);

  std::atomic<bool> stop{false};
  std::thread rebalancer([&] {
    Rng rr(7);
    const size_t nb = shards - 2;
    while (!stop.load(std::memory_order_relaxed)) {
      if (rr.NextBool(0.25) && nb > 0) {
        std::vector<float> b(nb);
        for (size_t i = 0; i < nb; ++i) {
          const float cell = 0.9f / static_cast<float>(nb + 1);
          b[i] = 0.05f + cell * (static_cast<float>(i + 1) +
                                 0.8f * (rr.NextFloat() - 0.5f));
        }
        engine.SetRangeBoundaries(b);
      } else {
        engine.RebalanceOnce();
      }
    }
  });

  UnderRebalanceResult r;
  MatchBatchResult res;
  for (size_t pass = 0; pass < passes; ++pass) {
    uint64_t pass_digest = kFnvOffsetBasis;
    uint64_t pass_matches = 0;
    size_t event_index = 0;
    WallTimer wall;
    for (size_t off = 0; off < events.size(); off += batch) {
      const size_t ne = std::min(batch, events.size() - off);
      engine.MatchBatch(Span<const Event>(events.data() + off, ne), &res);
      for (const auto& m : res.matches) {
        pass_matches += m.size();
        pass_digest = Fnv1a(pass_digest, event_index++);
        for (const ObjectId id : m) pass_digest = Fnv1a(pass_digest, id);
      }
    }
    r.wall_ms += wall.ElapsedMs();
    r.events_matched += events.size();
    if (pass == 0) {
      r.match_digest = pass_digest;
      r.total_matches = pass_matches;
    } else if (pass_digest != r.match_digest) {
      r.digests_stable = false;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  rebalancer.join();

  r.boundary_moves = engine.rebalance_stats().boundary_moves;
  r.migrated = engine.rebalance_stats().subscriptions_migrated;
  r.final_routing_version = engine.routing_version();
  engine.SynchronizeEpochs();
  const exec::EpochManagerStats es = engine.epoch_stats();
  r.epoch_synchronizes = es.synchronizes;
  r.epoch_pins = es.pins;
  return r;
}

// ---- Workload-adaptive routing scenario ----

/// The hot (selective) dimension of the dimension-shifted workload. NOT
/// dimension 0: the whole point is that routing starts on the wrong axis.
constexpr Dim kAdaptHotDim = 3;

/// A subscription that is Zipf-narrow on kAdaptHotDim and wide (0.2–0.5
/// extent) on every other dimension: fences on any non-hot dimension cut a
/// large fraction of the population, fences on the hot dimension almost
/// none.
Box DimShiftedSubscription(Rng& rng, const ZipfDistribution& zipf) {
  Box b(kNd);
  for (Dim d = 0; d < kNd; ++d) {
    const float len = 0.2f + 0.3f * rng.NextFloat();
    const float start = (1.0f - len) * rng.NextFloat();
    b.set(d, start, start + len);
  }
  SetZipfDim(&b, kAdaptHotDim, rng, zipf);
  return b;
}

std::vector<Event> MakeDimShiftedEvents(uint64_t seed, size_t n,
                                        const ZipfDistribution& zipf) {
  Rng rng(seed);
  std::vector<Event> evs;
  evs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Box b(kNd);
    for (Dim d = 0; d < kNd; ++d) {
      const float len = 0.15f * rng.NextFloat();
      const float start = (1.0f - len) * rng.NextFloat();
      b.set(d, start, start + len);
    }
    SetZipfDim(&b, kAdaptHotDim, rng, zipf);
    evs.push_back(Event::Range(std::move(b)));
  }
  return evs;
}

struct AdaptiveRoutingResult {
  size_t converge_events = 0;   ///< events streamed until the switch fired
  size_t rounds = 0;            ///< full event-set passes streamed
  uint32_t fence_dim_final = 0;
  uint64_t dimension_switches = 0;
  uint64_t windows_evaluated = 0;
  double visits_pre = 0.0;   ///< shard visits/event, first (dim-0) batch
  double visits_post = 0.0;  ///< shard visits/event, post-convergence pass
  double wall_ms_post = 0.0;
  uint64_t total_matches = 0;        ///< broadcast-oracle total, one pass
  uint64_t match_digest = 0;         ///< broadcast-oracle digest, one pass
  bool digests_equal = true;         ///< adaptive == broadcast, every pass
  bool converged = false;
};

/// Streams a dimension-shifted workload through an adaptive-routing kRange
/// engine until the online fence-dimension switch fires, then measures the
/// post-convergence routing economics. A broadcast engine with the same
/// subscription ids provides the exact per-event oracle: every pass of the
/// adaptive engine — including the pass during which the switch and its
/// migration happen — must produce the broadcast digest.
AdaptiveRoutingResult RunAdaptiveRouting(size_t threads, size_t subs,
                                         size_t n_events, size_t batch,
                                         uint32_t shards,
                                         size_t sample_window,
                                         size_t max_rounds) {
  AttributeSchema schema;
  for (Dim d = 0; d < kNd; ++d) {
    schema.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  EngineOptions aopts;
  aopts.index.reorg_period = 100;
  aopts.default_policy = MatchPolicy::kIntersecting;
  aopts.shards = shards;
  aopts.match_threads = static_cast<uint32_t>(threads);
  aopts.sharding = ShardingPolicy::kRange;
  aopts.adaptive.enabled = true;
  aopts.adaptive.sample_window = static_cast<uint32_t>(sample_window);
  SubscriptionEngine adaptive(schema, aopts);
  EngineOptions bopts = aopts;
  bopts.sharding = ShardingPolicy::kHashId;
  bopts.adaptive = AdaptiveRoutingOptions();  // broadcast has no routing
  SubscriptionEngine broadcast(std::move(schema), bopts);

  const ZipfDistribution zipf(kZipfBins, kZipfS);
  Rng rng(2042);
  std::vector<Box> boxes;
  boxes.reserve(subs);
  for (size_t i = 0; i < subs; ++i) {
    boxes.push_back(DimShiftedSubscription(rng, zipf));
  }
  // Same insertion order from a fresh id counter in both engines: the
  // digest compares exact (event, id) assignments across them.
  std::vector<SubscriptionId> ids;
  adaptive.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()), &ids);
  ids.clear();
  broadcast.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()),
                           &ids);
  const std::vector<Event> events =
      MakeDimShiftedEvents(2043, n_events, zipf);

  AdaptiveRoutingResult r;

  // Broadcast oracle digest of one full event-set pass (the subscription
  // set is fixed, so every adaptive pass must reproduce it).
  {
    MatchBatchResult res;
    size_t event_index = 0;
    uint64_t digest = kFnvOffsetBasis;
    for (size_t off = 0; off < events.size(); off += batch) {
      const size_t ne = std::min(batch, events.size() - off);
      broadcast.MatchBatch(Span<const Event>(events.data() + off, ne), &res);
      for (const auto& m : res.matches) {
        r.total_matches += m.size();
        digest = Fnv1a(digest, event_index++);
        for (const ObjectId id : m) digest = Fnv1a(digest, id);
      }
    }
    r.match_digest = digest;
  }

  MatchBatchResult res;
  const auto one_pass = [&](double* wall_ms, uint64_t* visits) {
    uint64_t pass_digest = kFnvOffsetBasis;
    size_t event_index = 0;
    bool first_batch = true;
    for (size_t off = 0; off < events.size(); off += batch) {
      const size_t ne = std::min(batch, events.size() - off);
      WallTimer wall;
      adaptive.MatchBatch(Span<const Event>(events.data() + off, ne), &res);
      if (wall_ms != nullptr) *wall_ms += wall.ElapsedMs();
      if (visits != nullptr) *visits += res.TotalShardVisits();
      if (first_batch && r.rounds == 0) {
        // Pre-adaptation snapshot: the first batch runs before the first
        // adaptive window (batch < sample_window), still fenced on dim 0.
        r.visits_pre = static_cast<double>(res.TotalShardVisits()) /
                       static_cast<double>(ne);
        first_batch = false;
      }
      for (const auto& m : res.matches) {
        pass_digest = Fnv1a(pass_digest, event_index++);
        for (const ObjectId id : m) pass_digest = Fnv1a(pass_digest, id);
      }
    }
    if (pass_digest != r.match_digest) r.digests_equal = false;
  };

  // Converge: stream full passes until the engine switches dimensions.
  while (r.rounds < max_rounds) {
    one_pass(nullptr, nullptr);
    ++r.rounds;
    if (adaptive.adaptive_stats().dimension_switches > 0) {
      r.converged = true;
      break;
    }
  }
  r.converge_events = r.rounds * events.size();

  // Post-convergence measurement pass (counted whether or not the switch
  // fired — a non-convergence failure should still report its economics).
  uint64_t post_visits = 0;
  one_pass(&r.wall_ms_post, &post_visits);
  ++r.rounds;
  r.visits_post = static_cast<double>(post_visits) /
                  static_cast<double>(events.size());

  const AdaptiveRoutingStats st = adaptive.adaptive_stats();
  r.fence_dim_final = st.fence_dimension;
  r.dimension_switches = st.dimension_switches;
  r.windows_evaluated = st.windows_evaluated;
  return r;
}

// ---- Durable ingest scenario ----

struct DurableIngestMode {
  const char* mode;
  double wall_ms = 0.0;
  double subs_per_sec = 0.0;
  uint64_t records = 0;
  uint64_t flush_batches = 0;
  double records_per_flush = 0.0;
  size_t acked = 0;
};

/// Ingests `boxes` through a durable engine from `threads` concurrent
/// subscribers; the WAL files are left on disk for the recovery probe.
DurableIngestMode RunDurableIngestMode(bool group_commit, size_t threads,
                                       const std::vector<Box>& boxes,
                                       const std::string& wal_path,
                                       const std::string& ckpt_path) {
  durability::RemoveWalFiles(wal_path);  // the whole segment chain
  std::remove(ckpt_path.c_str());
  EngineOptions opts;
  opts.index.reorg_period = 100;
  opts.shards = 8;
  opts.match_threads = 0;
  AttributeSchema schema;
  for (Dim d = 0; d < kNd; ++d) {
    schema.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  DurabilityOptions dopts;
  dopts.group_commit = group_commit;
  durability::DurableEngine de;
  Status st;
  if (!durability::OpenDurable(std::move(schema), opts, dopts, wal_path,
                               ckpt_path, nullptr, &de, &st)) {
    std::fprintf(stderr, "durable_ingest: OpenDurable failed: %s\n",
                 st.message().c_str());
    std::exit(1);
  }
  DurableIngestMode r;
  r.mode = group_commit ? "group_commit" : "per_record_flush";
  std::atomic<size_t> acked{0};
  WallTimer wall;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      size_t ok = 0;
      for (size_t i = t; i < boxes.size(); i += threads) {
        if (de.engine->SubscribeBox(boxes[i]) != kInvalidObject) ++ok;
      }
      acked.fetch_add(ok, std::memory_order_relaxed);
    });
  }
  for (auto& w : workers) w.join();
  r.wall_ms = wall.ElapsedMs();
  r.subs_per_sec = 1000.0 * static_cast<double>(boxes.size()) / r.wall_ms;
  r.acked = acked.load();
  const WalStats ws = de.wal->stats();
  r.records = ws.records_appended;
  r.flush_batches = ws.flush_batches;
  r.records_per_flush = ws.records_per_flush();
  return r;
}

struct DurableRecoveryProbe {
  double wall_ms = 0.0;
  size_t recovered = 0;
  uint64_t replayed_records = 0;
  double replay_ms = 0.0;
};

/// Reopens the group-commit run's files and times the full recovery (no
/// checkpoint was written, so this is a pure WAL-replay rebuild).
DurableRecoveryProbe RunDurableRecovery(const std::string& wal_path,
                                        const std::string& ckpt_path) {
  EngineOptions opts;
  opts.index.reorg_period = 100;
  opts.shards = 8;
  opts.match_threads = 0;
  AttributeSchema schema;
  for (Dim d = 0; d < kNd; ++d) {
    schema.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  durability::DurableEngine de;
  Status st;
  DurableRecoveryProbe p;
  WallTimer wall;
  if (!durability::OpenDurable(std::move(schema), opts, DurabilityOptions(),
                               wal_path, ckpt_path, nullptr, &de, &st)) {
    std::fprintf(stderr, "durable_ingest: recovery failed: %s\n",
                 st.message().c_str());
    std::exit(1);
  }
  p.wall_ms = wall.ElapsedMs();
  p.recovered = de.engine->subscription_count();
  p.replayed_records = de.recovery.wal_records_scanned;
  p.replay_ms = de.recovery.replay_ms;
  return p;
}

// ---- Observability-overhead scenario ----
//
// Prices the flight recorder's two states against the same workload:
// tracing disabled (the steady production state — every ACCL_TRACE_* site
// is one predicted branch) and tracing enabled (rings recording). Two
// disabled runs bound the measurement noise floor; the enabled run's
// excess over the faster disabled run is the recorder's true cost. The
// enabled run's trace is drained to Chrome JSON (TRACE_parallel.json) and
// the engine's combined metrics dump is embedded in BENCH_parallel.json.
struct ObsOverheadResult {
  double off_a_ms = 0.0;   ///< disabled, first timed run (min of reps)
  double off_b_ms = 0.0;   ///< disabled, repeated (noise floor probe)
  double on_ms = 0.0;      ///< tracing enabled (min of reps)
  double off_delta = 0.0;  ///< |off_b - off_a| / off_a
  double on_ratio = 0.0;   ///< on / min(off_a, off_b) - 1
  size_t trace_events = 0;
  uint64_t digest_off = 0;
  uint64_t digest_on = 0;
  std::string metrics_json;
  std::string trace_json;
};

ObsOverheadResult RunObsOverhead(size_t threads, size_t subs,
                                 size_t n_events, size_t batch,
                                 uint32_t shards, size_t reps) {
  EngineOptions opts;
  opts.index.reorg_period = 100;
  opts.default_policy = MatchPolicy::kIntersecting;
  opts.shards = shards;
  opts.match_threads = static_cast<uint32_t>(threads);
  AttributeSchema schema;
  for (Dim d = 0; d < kNd; ++d) {
    schema.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  SubscriptionEngine engine(std::move(schema), opts);
  Rng rng(77);
  for (size_t i = 0; i < subs; ++i) {
    engine.SubscribeBox(RandomSubscription(rng));
  }
  const std::vector<Event> events = MakeEvents(78, n_events);

  MatchBatchResult res;
  const auto one_pass = [&](uint64_t* digest) {
    uint64_t d = kFnvOffsetBasis;
    size_t event_index = 0;
    WallTimer wall;
    for (size_t off = 0; off < events.size(); off += batch) {
      const size_t ne = std::min(batch, events.size() - off);
      engine.MatchBatch(Span<const Event>(events.data() + off, ne), &res);
      for (const auto& m : res.matches) {
        d = Fnv1a(d, event_index++);
        for (const ObjectId id : m) d = Fnv1a(d, id);
      }
    }
    if (digest != nullptr) *digest = d;
    return wall.ElapsedMs();
  };
  const auto min_of = [&](uint64_t* digest) {
    double best = one_pass(digest);
    for (size_t r = 1; r < reps; ++r) best = std::min(best, one_pass(nullptr));
    return best;
  };

  ObsOverheadResult o;
  SubscriptionEngine::SetTracing(false);
  (void)one_pass(nullptr);  // warmup: fault caches, settle the scratch pool
  o.off_a_ms = min_of(&o.digest_off);
  o.off_b_ms = min_of(nullptr);
  SubscriptionEngine::SetTracing(true);
  o.on_ms = min_of(&o.digest_on);
  SubscriptionEngine::SetTracing(false);
  // Quiesced drain: the last MatchBatch's pool synchronization ordered
  // every worker's ring writes before this point.
  o.trace_json = engine.DumpTrace();
  o.trace_events = obs::TraceRecorder::Global().EventCount();
  o.metrics_json = engine.DumpMetricsJson();

  o.off_delta = std::abs(o.off_b_ms - o.off_a_ms) / o.off_a_ms;
  o.on_ratio = o.on_ms / std::min(o.off_a_ms, o.off_b_ms) - 1.0;
  return o;
}

}  // namespace
}  // namespace accl

int main() {
  using namespace accl;
  const size_t subs = EnvSize("ACCL_PARSDI_SUBS", 30000);
  const size_t n_events = EnvSize("ACCL_PARSDI_EVENTS", 4096);
  const size_t batch = EnvSize("ACCL_PARSDI_BATCH", 256);
  const uint32_t shards =
      static_cast<uint32_t>(EnvSize("ACCL_PARSDI_SHARDS", 8));

  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf(
      "parallel_sdi: %zu subscriptions, %zu events (batch %zu), %u shards, "
      "nd=%u, host cores=%u\n",
      subs, n_events, batch, shards, kNd, host_cores);
  std::printf("%8s %12s %14s %12s %14s %10s %10s %9s %9s\n", "threads",
              "wall ms", "wall ev/s", "sim ms", "sim ev/s", "sim spdup",
              "alloc/bat", "trylock", "popretry");

  const size_t thread_counts[] = {1, 2, 4, 8};
  std::vector<RunResult> results;
  uint64_t matches0 = 0;
  uint64_t digest0 = 0;
  for (const size_t t : thread_counts) {
    const RunResult r = RunAtThreads(t, subs, n_events, batch, shards);
    if (results.empty()) {
      matches0 = r.total_matches;
      digest0 = r.match_digest;
    } else if (r.match_digest != digest0) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: per-event match digest %016llx "
                   "at %zu threads vs %016llx at 1 thread\n",
                   static_cast<unsigned long long>(r.match_digest), t,
                   static_cast<unsigned long long>(digest0));
      return 1;
    }
    results.push_back(r);
    const double base_sim = results.front().sim_ms;
    std::printf("%8zu %12.1f %14.0f %12.1f %14.0f %9.2fx %10.1f %9llu "
                "%9llu\n",
                t, r.wall_ms,
                1000.0 * static_cast<double>(n_events) / r.wall_ms, r.sim_ms,
                1000.0 * static_cast<double>(n_events) / r.sim_ms,
                base_sim / r.sim_ms, r.allocs_per_batch,
                static_cast<unsigned long long>(r.trylock_failures),
                static_cast<unsigned long long>(r.ready_pop_retries));
  }
  // Wall-scaling gate: speedup at the top thread count vs 1 thread. Wall
  // time is host-bound — a 1-core container physically cannot scale, so the
  // default is off and CI (which knows its runner shape) sets the floor via
  // ACCL_PARSDI_WALL_GATE. The sim/digest gates above stay unconditional.
  const double wall_gate = EnvDouble("ACCL_PARSDI_WALL_GATE", 0.0);
  const double wall_speedup_top =
      results.front().wall_ms / results.back().wall_ms;
  if (wall_gate > 0.0 && wall_speedup_top < wall_gate) {
    std::fprintf(stderr,
                 "WALL SCALING REGRESSION: %.2fx at %zu threads over 1 "
                 "thread (gate: >= %.2fx, host cores: %u)\n",
                 wall_speedup_top, results.back().threads, wall_gate,
                 host_cores);
    return 1;
  }
  // Steady-state allocation gate: after warmup, a MatchBatch call must not
  // allocate beyond the constant pool-submission overhead. The old path
  // re-allocated queues/scratch/merge state every call — thousands per
  // batch; the floor catches that shape returning. Tunable, 0 disables.
  const double alloc_gate = EnvDouble("ACCL_PARSDI_ALLOC_GATE", 512.0);
  for (const RunResult& r : results) {
    if (alloc_gate > 0.0 && r.allocs_per_batch > alloc_gate) {
      std::fprintf(stderr,
                   "ALLOCATION REGRESSION: %.1f heap allocations per batch "
                   "at %zu threads (gate: <= %.0f)\n",
                   r.allocs_per_batch, r.threads, alloc_gate);
      return 1;
    }
  }

  // ---- Skewed dispatch-selectivity scenario ----
  const size_t sk_subs = EnvSize("ACCL_PARSDI_SKEW_SUBS", 20000);
  const size_t sk_events = EnvSize("ACCL_PARSDI_SKEW_EVENTS", 2048);
  const size_t sk_threads = EnvSize("ACCL_PARSDI_SKEW_THREADS", 4);
  std::printf(
      "\nskewed (Zipf dim-0): %zu subscriptions, %zu events, %u shards, "
      "%zu threads\n",
      sk_subs, sk_events, shards, sk_threads);
  std::printf("%20s %12s %14s %12s %14s %8s %9s\n", "mode", "wall ms",
              "wall ev/s", "sim ms", "visits/ev", "moves", "migrated");
  const SkewedResult skewed[] = {
      RunSkewedMode("broadcast", ShardingPolicy::kHashId, false, sk_threads,
                    sk_subs, sk_events, batch, shards),
      RunSkewedMode("routed", ShardingPolicy::kRange, false, sk_threads,
                    sk_subs, sk_events, batch, shards),
      RunSkewedMode("routed+rebalance", ShardingPolicy::kRange, true,
                    sk_threads, sk_subs, sk_events, batch, shards),
  };
  for (const SkewedResult& r : skewed) {
    std::printf("%20s %12.1f %14.0f %12.1f %14.2f %8llu %9llu\n", r.mode,
                r.wall_ms,
                1000.0 * static_cast<double>(sk_events) / r.wall_ms, r.sim_ms,
                static_cast<double>(r.shard_visits) /
                    static_cast<double>(sk_events),
                static_cast<unsigned long long>(r.boundary_moves),
                static_cast<unsigned long long>(r.migrated));
    if (r.match_digest != skewed[0].match_digest ||
        r.total_matches != skewed[0].total_matches) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: skewed mode %s digest %016llx vs "
                   "broadcast %016llx\n",
                   r.mode, static_cast<unsigned long long>(r.match_digest),
                   static_cast<unsigned long long>(skewed[0].match_digest));
      return 1;
    }
  }
  if (skewed[1].shard_visits >= skewed[0].shard_visits) {
    std::fprintf(stderr,
                 "SELECTIVITY REGRESSION: routed dispatch visited %llu "
                 "shard-events, broadcast %llu\n",
                 static_cast<unsigned long long>(skewed[1].shard_visits),
                 static_cast<unsigned long long>(skewed[0].shard_visits));
    return 1;
  }

  // ---- Match-under-rebalance scenario ----
  const size_t ur_passes = EnvSize("ACCL_PARSDI_UR_PASSES", 4);
  const UnderRebalanceResult ur = RunMatchUnderRebalance(
      sk_threads, sk_subs, sk_events, batch, shards, ur_passes);
  std::printf(
      "\nmatch under rebalance: %zu passes x %zu events, %zu threads\n",
      ur_passes, sk_events, sk_threads);
  std::printf("%12s %14s %8s %9s %9s %9s\n", "wall ms", "wall ev/s",
              "moves", "migrated", "snapver", "graceper");
  std::printf(
      "%12.1f %14.0f %8llu %9llu %9llu %9llu\n", ur.wall_ms,
      1000.0 * static_cast<double>(ur.events_matched) / ur.wall_ms,
      static_cast<unsigned long long>(ur.boundary_moves),
      static_cast<unsigned long long>(ur.migrated),
      static_cast<unsigned long long>(ur.final_routing_version),
      static_cast<unsigned long long>(ur.epoch_synchronizes));
  // Mid-migration exactness gate: the subscription set is fixed, so every
  // pass — rebalances in flight or not — must reproduce the quiesced
  // skewed digest exactly.
  if (!ur.digests_stable || ur.match_digest != skewed[0].match_digest ||
      ur.total_matches != skewed[0].total_matches) {
    std::fprintf(stderr,
                 "MID-MIGRATION DIVERGENCE: digest %016llx (stable=%d) vs "
                 "quiesced %016llx\n",
                 static_cast<unsigned long long>(ur.match_digest),
                 ur.digests_stable ? 1 : 0,
                 static_cast<unsigned long long>(skewed[0].match_digest));
    return 1;
  }

  // ---- Workload-adaptive routing scenario ----
  const size_t ad_subs = EnvSize("ACCL_PARSDI_ADAPT_SUBS", sk_subs);
  const size_t ad_events = EnvSize("ACCL_PARSDI_ADAPT_EVENTS", sk_events);
  const size_t ad_window = EnvSize("ACCL_PARSDI_ADAPT_WINDOW", 512);
  const AdaptiveRoutingResult ad = RunAdaptiveRouting(
      sk_threads, ad_subs, ad_events, batch, shards, ad_window,
      /*max_rounds=*/6);
  std::printf(
      "\nadaptive routing (hot dim %u, fences start on dim 0): %zu "
      "subscriptions, %zu events/pass, window %zu\n",
      static_cast<unsigned>(kAdaptHotDim), ad_subs, ad_events, ad_window);
  std::printf("%12s %12s %10s %8s %10s\n", "visits pre", "visits post",
              "fence dim", "switches", "windows");
  std::printf("%12.2f %12.2f %10u %8llu %10llu\n", ad.visits_pre,
              ad.visits_post, ad.fence_dim_final,
              static_cast<unsigned long long>(ad.dimension_switches),
              static_cast<unsigned long long>(ad.windows_evaluated));
  // Exactness gate: every adaptive pass — including the one carrying the
  // dimension-switch migration — must reproduce the broadcast digest.
  if (!ad.digests_equal) {
    std::fprintf(stderr,
                 "ADAPTIVE DIVERGENCE: an adaptive pass diverged from the "
                 "broadcast oracle digest %016llx\n",
                 static_cast<unsigned long long>(ad.match_digest));
    return 1;
  }
  // Convergence gate: routing must actually move off dimension 0.
  if (!ad.converged || ad.fence_dim_final != kAdaptHotDim) {
    std::fprintf(stderr,
                 "ADAPTIVE CONVERGENCE FAILURE: %llu switches in %zu "
                 "rounds, final fence dim %u (want %u)\n",
                 static_cast<unsigned long long>(ad.dimension_switches),
                 ad.rounds, ad.fence_dim_final,
                 static_cast<unsigned>(kAdaptHotDim));
    return 1;
  }
  // Routing-economics gate: post-convergence dispatch must be routed, not
  // broadcast — visits/event at or under the floor (tunable for CI via
  // ACCL_PARSDI_VISIT_GATE; 0 disables).
  const double visit_gate = EnvDouble("ACCL_PARSDI_VISIT_GATE", 2.5);
  if (visit_gate > 0.0 && ad.visits_post > visit_gate) {
    std::fprintf(stderr,
                 "ADAPTIVE ROUTING REGRESSION: %.2f shard visits/event "
                 "after convergence (gate: <= %.2f; pre-switch %.2f)\n",
                 ad.visits_post, visit_gate, ad.visits_pre);
    return 1;
  }

  // ---- Durable ingest scenario ----
  const size_t du_subs = EnvSize("ACCL_PARSDI_DURABLE_SUBS", 8000);
  const size_t du_threads = EnvSize("ACCL_PARSDI_DURABLE_THREADS", 8);
  const std::string du_wal = "bench_durable.wal";
  const std::string du_ckpt = "bench_durable.ck";
  std::vector<Box> du_boxes;
  {
    Rng rng(4242);
    du_boxes.reserve(du_subs);
    for (size_t i = 0; i < du_subs; ++i) {
      du_boxes.push_back(RandomSubscription(rng));
    }
  }
  // Per-record first so the group-commit run's files are the ones the
  // recovery probe reopens.
  const DurableIngestMode du_per = RunDurableIngestMode(
      false, du_threads, du_boxes, du_wal, du_ckpt);
  const DurableIngestMode du_grp = RunDurableIngestMode(
      true, du_threads, du_boxes, du_wal, du_ckpt);
  const DurableRecoveryProbe du_rec = RunDurableRecovery(du_wal, du_ckpt);
  durability::RemoveWalFiles(du_wal);
  std::remove(du_ckpt.c_str());
  const double du_speedup = du_grp.subs_per_sec / du_per.subs_per_sec;
  std::printf(
      "\ndurable ingest: %zu subscriptions, %zu subscriber threads\n",
      du_subs, du_threads);
  std::printf("%20s %12s %14s %10s %12s\n", "mode", "wall ms", "subs/s",
              "syncs", "recs/sync");
  for (const DurableIngestMode* m : {&du_per, &du_grp}) {
    std::printf("%20s %12.1f %14.0f %10llu %12.2f\n", m->mode, m->wall_ms,
                m->subs_per_sec,
                static_cast<unsigned long long>(m->flush_batches),
                m->records_per_flush);
  }
  std::printf(
      "group-commit speedup %.2fx; recovery: %zu subscriptions replayed "
      "from %llu records in %.1f ms (%.0f subs/s)\n",
      du_speedup, du_rec.recovered,
      static_cast<unsigned long long>(du_rec.replayed_records),
      du_rec.wall_ms,
      1000.0 * static_cast<double>(du_rec.recovered) / du_rec.wall_ms);
  // Gates: every subscription must be acknowledged and recovered exactly,
  // and batching must actually pay — group commit >= 2x the per-record
  // flush throughput.
  if (du_per.acked != du_subs || du_grp.acked != du_subs ||
      du_rec.recovered != du_subs) {
    std::fprintf(stderr,
                 "DURABILITY LOSS: acked per-record %zu / group %zu, "
                 "recovered %zu of %zu\n",
                 du_per.acked, du_grp.acked, du_rec.recovered, du_subs);
    return 1;
  }
  // The loss gates above are deterministic; this one is a wall-clock
  // ratio and fsync cost varies by environment, so the threshold is
  // tunable (ACCL_PARSDI_GC_GATE; 0 disables) — CI smoke runs a relaxed
  // gate, the dev-box default stays at the 2x target.
  const double gc_gate = EnvDouble("ACCL_PARSDI_GC_GATE", 2.0);
  if (gc_gate > 0.0 && du_speedup < gc_gate) {
    std::fprintf(stderr,
                 "GROUP-COMMIT REGRESSION: %.2fx over per-record flush "
                 "(gate: >= %.2fx)\n",
                 du_speedup, gc_gate);
    return 1;
  }

  // ---- Observability-overhead scenario ----
  const size_t ob_subs = EnvSize("ACCL_PARSDI_OBS_SUBS", 10000);
  const size_t ob_events = EnvSize("ACCL_PARSDI_OBS_EVENTS", 2048);
  const size_t ob_reps = std::max<size_t>(1, EnvSize("ACCL_PARSDI_OBS_REPS", 3));
  const ObsOverheadResult ob = RunObsOverhead(
      sk_threads, ob_subs, ob_events, batch, shards, ob_reps);
  std::printf(
      "\nobservability overhead: %zu subscriptions, %zu events, %zu threads, "
      "min of %zu reps\n",
      ob_subs, ob_events, sk_threads, ob_reps);
  std::printf("%14s %14s %14s %12s %12s %12s\n", "trace-off ms", "off-again ms",
              "trace-on ms", "off delta", "on overhead", "trace evts");
  std::printf("%14.1f %14.1f %14.1f %11.2f%% %11.2f%% %12zu\n", ob.off_a_ms,
              ob.off_b_ms, ob.on_ms, 100.0 * ob.off_delta,
              100.0 * ob.on_ratio, ob.trace_events);
  // Determinism gate (unconditional): tracing on/off must not perturb the
  // match results.
  if (ob.digest_on != ob.digest_off) {
    std::fprintf(stderr,
                 "OBS DIVERGENCE: digest %016llx with tracing on vs %016llx "
                 "off\n",
                 static_cast<unsigned long long>(ob.digest_on),
                 static_cast<unsigned long long>(ob.digest_off));
    return 1;
  }
  // The trace must actually contain the pipeline's spans.
  if (ob.trace_events == 0 ||
      ob.trace_json.find("match_batch") == std::string::npos ||
      ob.trace_json.find("shard_execute") == std::string::npos) {
    std::fprintf(stderr, "OBS TRACE EMPTY: %zu events, %zu bytes\n",
                 ob.trace_events, ob.trace_json.size());
    return 1;
  }
  // Overhead gates are wall-clock ratios on a shared machine, so both are
  // env-armed (CI sets them; 0/unset disables). The disabled-path gate
  // bounds the two trace-off runs' spread — the instrumentation's
  // steady-state cost cannot exceed what run-to-run noise already shows.
  const double obs_gate = EnvDouble("ACCL_PARSDI_OBS_GATE", 0.0);
  if (obs_gate > 0.0 && ob.off_delta > obs_gate) {
    std::fprintf(stderr,
                 "OBS DISABLED-PATH REGRESSION: %.2f%% spread between "
                 "trace-off runs (gate: <= %.2f%%)\n",
                 100.0 * ob.off_delta, 100.0 * obs_gate);
    return 1;
  }
  const double obs_trace_gate = EnvDouble("ACCL_PARSDI_OBS_TRACE_GATE", 0.0);
  if (obs_trace_gate > 0.0 && ob.on_ratio > obs_trace_gate) {
    std::fprintf(stderr,
                 "OBS TRACING OVERHEAD REGRESSION: %.2f%% over the "
                 "trace-off baseline (gate: <= %.2f%%)\n",
                 100.0 * ob.on_ratio, 100.0 * obs_trace_gate);
    return 1;
  }
  // Perfetto-loadable flight recording of the enabled run.
  const char* trace_path = std::getenv("ACCL_PARSDI_TRACE");
  if (trace_path == nullptr) trace_path = "TRACE_parallel.json";
  if (*trace_path != '\0') {
    if (std::FILE* tf = std::fopen(trace_path, "w")) {
      std::fwrite(ob.trace_json.data(), 1, ob.trace_json.size(), tf);
      std::fclose(tf);
      std::printf("wrote %s (%zu trace events)\n", trace_path,
                  ob.trace_events);
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path);
      return 1;
    }
  }

  const char* path = std::getenv("ACCL_PARSDI_JSON");
  if (path == nullptr) path = "BENCH_parallel.json";
  if (*path == '\0') return 0;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  const auto& kreg = kernels::BackendRegistry::Instance();
  std::fprintf(f,
               "{\n  \"bench\": \"parallel_sdi\",\n  \"shards\": %u,\n"
               "  \"subscriptions\": %zu,\n  \"events\": %zu,\n"
               "  \"batch\": %zu,\n  \"dims\": %u,\n  \"host_cores\": %u,\n"
               "  \"cpu_features\": \"%s\",\n  \"verify_backend\": \"%s\",\n"
               "  \"warmup_passes\": %zu,\n  \"timed_reps\": %zu,\n"
               "  \"matches\": %llu,\n"
               "  \"match_digest\": \"%016llx\",\n"
               "  \"sink_digest_equal\": true,\n  \"runs\": [\n",
               shards, subs, n_events, batch, kNd, host_cores,
               kernels::CpuFeatureString(kreg.host()).c_str(),
               kreg.Resolve("")->name(),
               EnvSize("ACCL_PARSDI_WARMUP", 1),
               std::max<size_t>(1, EnvSize("ACCL_PARSDI_REPS", 3)),
               static_cast<unsigned long long>(matches0),
               static_cast<unsigned long long>(digest0));
  const double base_wall = results.front().wall_ms;
  const double base_sim = results.front().sim_ms;
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(
        f,
        "    {\"threads\": %zu, \"wall_ms\": %.3f, "
        "\"wall_events_per_sec\": %.1f, \"wall_speedup_vs_1t\": %.3f, "
        "\"sim_ms\": %.3f, \"sim_events_per_sec\": %.1f, "
        "\"sim_speedup_vs_1t\": %.3f, \"allocs_per_batch\": %.1f, "
        "\"shard_trylock_failures\": %llu, \"ready_pop_retries\": %llu}%s\n",
        r.threads, r.wall_ms,
        1000.0 * static_cast<double>(n_events) / r.wall_ms,
        base_wall / r.wall_ms, r.sim_ms,
        1000.0 * static_cast<double>(n_events) / r.sim_ms,
        base_sim / r.sim_ms, r.allocs_per_batch,
        static_cast<unsigned long long>(r.trylock_failures),
        static_cast<unsigned long long>(r.ready_pop_retries),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"skewed\": {\n    \"subscriptions\": %zu,\n"
               "    \"events\": %zu,\n    \"threads\": %zu,\n"
               "    \"zipf_bins\": %zu,\n    \"zipf_s\": %.2f,\n"
               "    \"matches\": %llu,\n    \"match_digest\": \"%016llx\",\n"
               "    \"modes\": [\n",
               sk_subs, sk_events, sk_threads, kZipfBins, kZipfS,
               static_cast<unsigned long long>(skewed[0].total_matches),
               static_cast<unsigned long long>(skewed[0].match_digest));
  for (size_t i = 0; i < 3; ++i) {
    const SkewedResult& r = skewed[i];
    std::fprintf(
        f,
        "      {\"mode\": \"%s\", \"wall_ms\": %.3f, "
        "\"wall_events_per_sec\": %.1f, \"sim_ms\": %.3f, "
        "\"shard_visits_per_event\": %.3f, \"boundary_moves\": %llu, "
        "\"subscriptions_migrated\": %llu}%s\n",
        r.mode, r.wall_ms,
        1000.0 * static_cast<double>(sk_events) / r.wall_ms, r.sim_ms,
        static_cast<double>(r.shard_visits) /
            static_cast<double>(sk_events),
        static_cast<unsigned long long>(r.boundary_moves),
        static_cast<unsigned long long>(r.migrated), i + 1 < 3 ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(
      f,
      "  \"match_under_rebalance\": {\n"
      "    \"passes\": %zu,\n    \"events_matched\": %zu,\n"
      "    \"threads\": %zu,\n    \"wall_ms\": %.3f,\n"
      "    \"wall_events_per_sec\": %.1f,\n    \"matches\": %llu,\n"
      "    \"match_digest\": \"%016llx\",\n    \"digests_stable\": %s,\n"
      "    \"boundary_moves\": %llu,\n    \"subscriptions_migrated\": %llu,\n"
      "    \"final_routing_version\": %llu,\n"
      "    \"epoch_synchronizes\": %llu,\n    \"epoch_pins\": %llu\n"
      "  },\n",
      ur_passes, ur.events_matched, sk_threads, ur.wall_ms,
      1000.0 * static_cast<double>(ur.events_matched) / ur.wall_ms,
      static_cast<unsigned long long>(ur.total_matches),
      static_cast<unsigned long long>(ur.match_digest),
      ur.digests_stable ? "true" : "false",
      static_cast<unsigned long long>(ur.boundary_moves),
      static_cast<unsigned long long>(ur.migrated),
      static_cast<unsigned long long>(ur.final_routing_version),
      static_cast<unsigned long long>(ur.epoch_synchronizes),
      static_cast<unsigned long long>(ur.epoch_pins));
  std::fprintf(
      f,
      "  \"adaptive_routing\": {\n"
      "    \"subscriptions\": %zu,\n    \"events_per_pass\": %zu,\n"
      "    \"threads\": %zu,\n    \"sample_window\": %zu,\n"
      "    \"hot_dim\": %u,\n    \"fence_dim_final\": %u,\n"
      "    \"dimension_switches\": %llu,\n"
      "    \"windows_evaluated\": %llu,\n"
      "    \"converge_events\": %zu,\n"
      "    \"visits_per_event_pre\": %.3f,\n"
      "    \"visits_per_event_post\": %.3f,\n"
      "    \"visit_gate\": %.2f,\n"
      "    \"wall_ms_post\": %.3f,\n"
      "    \"wall_events_per_sec_post\": %.1f,\n"
      "    \"matches\": %llu,\n    \"match_digest\": \"%016llx\",\n"
      "    \"digest_equal_broadcast\": %s\n  },\n",
      ad_subs, ad_events, sk_threads, ad_window,
      static_cast<unsigned>(kAdaptHotDim), ad.fence_dim_final,
      static_cast<unsigned long long>(ad.dimension_switches),
      static_cast<unsigned long long>(ad.windows_evaluated),
      ad.converge_events, ad.visits_pre, ad.visits_post, visit_gate,
      ad.wall_ms_post,
      1000.0 * static_cast<double>(ad_events) / ad.wall_ms_post,
      static_cast<unsigned long long>(ad.total_matches),
      static_cast<unsigned long long>(ad.match_digest),
      ad.digests_equal ? "true" : "false");
  std::fprintf(
      f,
      "  \"durable_ingest\": {\n"
      "    \"subscriptions\": %zu,\n    \"subscriber_threads\": %zu,\n"
      "    \"modes\": [\n",
      du_subs, du_threads);
  for (size_t i = 0; i < 2; ++i) {
    const DurableIngestMode& m = i == 0 ? du_per : du_grp;
    std::fprintf(
        f,
        "      {\"mode\": \"%s\", \"wall_ms\": %.3f, \"subs_per_sec\": "
        "%.1f, \"wal_records\": %llu, \"wal_syncs\": %llu, "
        "\"records_per_sync\": %.3f}%s\n",
        m.mode, m.wall_ms, m.subs_per_sec,
        static_cast<unsigned long long>(m.records),
        static_cast<unsigned long long>(m.flush_batches),
        m.records_per_flush, i == 0 ? "," : "");
  }
  std::fprintf(
      f,
      "    ],\n    \"group_commit_speedup\": %.3f,\n"
      "    \"recovery\": {\"wall_ms\": %.3f, \"replay_ms\": %.3f, "
      "\"recovered_subscriptions\": %zu, \"wal_records_replayed\": %llu, "
      "\"recovered_subs_per_sec\": %.1f}\n  },\n",
      du_speedup, du_rec.wall_ms, du_rec.replay_ms, du_rec.recovered,
      static_cast<unsigned long long>(du_rec.replayed_records),
      1000.0 * static_cast<double>(du_rec.recovered) / du_rec.wall_ms);
  std::fprintf(
      f,
      "  \"observability\": {\n"
      "    \"subscriptions\": %zu,\n    \"events\": %zu,\n"
      "    \"threads\": %zu,\n    \"reps\": %zu,\n"
      "    \"trace_off_ms\": %.3f,\n    \"trace_off_again_ms\": %.3f,\n"
      "    \"trace_on_ms\": %.3f,\n    \"disabled_delta\": %.4f,\n"
      "    \"tracing_overhead\": %.4f,\n    \"trace_events\": %zu,\n"
      "    \"digest_equal_traced\": %s\n  },\n",
      ob_subs, ob_events, sk_threads, ob_reps, ob.off_a_ms, ob.off_b_ms,
      ob.on_ms, ob.off_delta, ob.on_ratio, ob.trace_events,
      ob.digest_on == ob.digest_off ? "true" : "false");
  // The obs engine's combined metric dump (its registry + the
  // process-default registry), embedded verbatim — DumpMetricsJson()
  // returns one JSON object.
  std::fprintf(f, "  \"metrics\": %s\n}\n", ob.metrics_json.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return 0;
}
