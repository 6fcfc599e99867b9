#include "sdi/subscription_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>

#include <cmath>

#include "adapt/pattern_tracker.h"
#include "adapt/selectivity.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "exec/shard_queues.h"
#include "obs/alloc_hook.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace accl {

namespace {

/// Slice of coordinate `x` under the interior fences: the index of the
/// first fence strictly greater than `x`. A coordinate exactly on a fence
/// therefore belongs to the slice on the fence's right, which is also what
/// makes routing exact for touching intervals: an event ending exactly on
/// a fence still routes to the right slice, whose subscriptions may start
/// exactly there.
uint32_t SliceOf(const std::vector<float>& bounds, float x) {
  return static_cast<uint32_t>(
      std::upper_bound(bounds.begin(), bounds.end(), x) - bounds.begin());
}

/// The one fence-array check: exactly `size` entries, every value finite,
/// strictly ascending. Returns null for a usable array, else what is wrong
/// with it. Finiteness is checked per element, so a one-fence array —
/// which has no adjacent pair for the ascent check — cannot smuggle in a
/// NaN that would break SliceOf's ordering.
const char* FenceArrayProblem(const std::vector<float>& fences, size_t size) {
  if (fences.size() != size) return "has the wrong number of fences";
  for (size_t i = 0; i < fences.size(); ++i) {
    if (!std::isfinite(fences[i])) return "must hold only finite values";
    if (i > 0 && !(fences[i - 1] < fences[i])) {
      return "must be strictly ascending";
    }
  }
  return nullptr;
}

/// Shard-queue positions are executed in fixed chunks of this many queries.
/// Chunk boundaries are fixed multiples (position p lives in chunk
/// p / kMatchChunkSize), so a finalizer can locate any position's output
/// without knowing the claim history. Small enough that one hot shard's
/// queue is split across many mutex acquisitions (other workers and
/// concurrent callers' runs interleave, so none is starved), large enough
/// that the per-chunk lock/unlock and countdown overhead stays amortized.
constexpr size_t kMatchChunkSize = 16;

}  // namespace

// Reusable per-batch state of the streamed matching pipeline. Pooled by
// the engine (AcquireScratch/ReleaseScratch) so capacity survives across
// batches — at steady state a batch of stable shape allocates nothing.
struct SubscriptionEngine::PipelineScratch {
  exec::ShardQueues queues;

  // ---- Per-event state (grow-only capacity) ----
  /// Shard visits not yet executed; the worker that decrements one to zero
  /// owns that event's finalization.
  std::unique_ptr<std::atomic<uint32_t>[]> remaining;
  /// Intrusive links of the ready stack. Written once per event (before
  /// the releasing head-CAS publishes it), so plain storage is race-free.
  std::unique_ptr<int64_t[]> ready_next;
  size_t event_cap = 0;
  std::vector<uint32_t> matched;   ///< per event, post-dedup match count
  std::vector<uint64_t> verified;  ///< per event, objects verified

  /// Treiber stack of events whose last visit completed, awaiting
  /// finalization (-1 = empty). Each event is pushed exactly once per
  /// batch and never re-pushed, so the classic ABA hazard cannot arise.
  std::atomic<int64_t> ready_head{-1};
  std::atomic<size_t> events_done{0};

  // ---- Chunk output buffers ----
  /// Chunk c of shard s covers queue positions
  /// [c*kMatchChunkSize, min((c+1)*kMatchChunkSize, queue length)); its
  /// buffer is written under the shard mutex by whichever worker claimed
  /// it and read by finalizers strictly after the countdown handoff.
  struct Chunk {
    std::vector<ObjectId> ids;       ///< concatenated per-position matches
    std::vector<uint32_t> offsets;   ///< chunk length + 1 entries
    std::vector<uint64_t> verified;  ///< per position
  };
  std::vector<Chunk> chunks;  ///< grow-only; stale tails are never read

  struct ShardRun {
    size_t chunk_base = 0;  ///< index of this shard's first chunk
    /// Next unclaimed queue position. Advanced only under the shard mutex
    /// (claims are chunk-aligned); read racily as a skip hint elsewhere.
    std::atomic<size_t> next_pos{0};
  };
  std::unique_ptr<ShardRun[]> shard_runs;
  size_t shard_cap = 0;

  /// Per-worker finalize gather buffers (worker-indexed, disjoint).
  std::vector<std::vector<ObjectId>> gather;
  /// Per-worker reusable Query objects: Query owns a heap-backed Box, so
  /// constructing one per execution was one allocation per (event, shard)
  /// visit — the dominant steady-state churn. Copy-assigning the event box
  /// into a warm same-dimension Box reuses its storage instead.
  std::vector<Query> worker_query;

  /// Metrics landing zone for the sink overloads (no caller-provided
  /// result object); pooled with the rest of the scratch.
  MatchBatchResult sink_result;

  // ---- Residual-serialization counters (worker-indexed, disjoint;
  // folded into the result after the fan-out joins) ----
  /// try_lock_fail[w][s]: worker w's failed claim attempts on shard s.
  std::vector<std::vector<uint64_t>> try_lock_fail;
  /// pop_retry[w]: worker w's failed ready-stack head-CAS iterations.
  std::vector<uint64_t> pop_retry;

  /// Off-lock fold buffer for the adaptive tracker's event sampling
  /// (pooled here so steady-state batches allocate nothing).
  adapt::PatternAccumulator pattern;
};

// Registry-owned handles for the engine's own metrics. Everything here is
// created on (and owned by) the engine's MetricsRegistry, so the handles
// are plain pointers with the registry's lifetime; components the engine
// merely wires in (WAL, checkpointer, epoch manager) own their metrics
// themselves and Attach() them instead.
struct SubscriptionEngine::EngineObs {
  explicit EngineObs(obs::MetricsRegistry* r)
      : batches(r->GetCounter("accl_pipeline_batches_total",
                              "pipeline runs (one per Match or MatchBatch)")),
        events(r->GetCounter("accl_pipeline_events_total",
                             "events matched (Match and MatchBatch)")),
        events_routed(r->GetCounter(
            "accl_pipeline_events_routed_total",
            "per-shard event dispatches (one event may visit many shards)")),
        chunks_claimed(r->GetCounter("accl_pipeline_chunks_claimed_total",
                                     "shard-queue chunks executed")),
        chunks_stolen(r->GetCounter(
            "accl_pipeline_chunks_stolen_total",
            "chunks a worker claimed off its affine shard")),
        trylock_failures(r->GetCounter(
            "accl_pipeline_trylock_failures_total",
            "failed shard-mutex claim attempts (residual serialization)")),
        ready_pop_retries(r->GetCounter(
            "accl_pipeline_ready_pop_retries_total",
            "lost ready-stack head races (finalize contention)")),
        matches(r->GetCounter("accl_pipeline_matches_total",
                              "post-dedup subscription notifications")),
        objects_verified(r->GetCounter(
            "accl_pipeline_objects_verified_total",
            "subscriptions verified against events, summed over shards")),
        batch_us(r->GetHistogram(
            "accl_pipeline_batch_us",
            "Match/MatchBatch end-to-end duration (us)")),
        boundary_moves(r->GetCounter("accl_rebalance_boundary_moves_total",
                                     "fence moves applied")),
        subs_migrated(r->GetCounter(
            "accl_rebalance_subscriptions_migrated_total",
            "subscriptions moved by the double-residency protocol")),
        migration_us(r->GetHistogram(
            "accl_rebalance_migration_us",
            "scan+insert+grace+cleanup duration per routing change (us)")),
        dimension_switches(r->GetCounter(
            "accl_adapt_dimension_switches_total",
            "online fence-dimension switches (adaptive or manual)")),
        windows_evaluated(r->GetCounter("accl_adapt_windows_evaluated_total",
                                        "adaptive routing windows evaluated")),
        subscriptions(r->GetGauge("accl_engine_subscriptions",
                                  "live subscriptions")),
        heap_allocs(r->GetGauge(
            "accl_process_heap_allocs",
            "lifetime heap allocations (0 unless the binary installed "
            "ACCL_OBS_INSTALL_GLOBAL_ALLOC_HOOK)")),
        heap_alloc_hook(r->GetGauge(
            "accl_process_heap_alloc_hook",
            "1 when the global allocation hook is installed")) {}

  obs::Counter* batches;
  obs::Counter* events;
  obs::Counter* events_routed;
  obs::Counter* chunks_claimed;
  obs::Counter* chunks_stolen;
  obs::Counter* trylock_failures;
  obs::Counter* ready_pop_retries;
  obs::Counter* matches;
  obs::Counter* objects_verified;
  obs::Histogram* batch_us;
  obs::Counter* boundary_moves;
  obs::Counter* subs_migrated;
  obs::Histogram* migration_us;
  obs::Counter* dimension_switches;
  obs::Counter* windows_evaluated;
  obs::Gauge* subscriptions;
  obs::Gauge* heap_allocs;
  obs::Gauge* heap_alloc_hook;
};

Event Event::Point(std::vector<float> normalized_point) {
  Event e;
  e.is_point = true;
  e.box = Box::Point(normalized_point);
  return e;
}

Event Event::Range(Box normalized_box) {
  Event e;
  e.is_point = false;
  e.box = std::move(normalized_box);
  return e;
}

Status SubscriptionEngine::ValidateOptions(const AttributeSchema& schema,
                                           const EngineOptions& o) {
  if (schema.dims() == 0) {
    return Status::InvalidArgument(
        "schema must define at least one attribute");
  }
  if (o.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (o.index.division_factor < 2) {
    return Status::InvalidArgument(
        "index.division_factor must be >= 2 (the clustering function "
        "cannot divide a domain into fewer than two parts)");
  }
  if (o.index.max_clusters < 1) {
    return Status::InvalidArgument("index.max_clusters must be >= 1");
  }
  if (o.sharding == ShardingPolicy::kRange) {
    if (o.shards < 2) {
      return Status::InvalidArgument(
          "ShardingPolicy::kRange needs shards >= 2 (K-1 slice shards plus "
          "the overflow shard)");
    }
    const size_t n = static_cast<size_t>(o.shards) - 2;
    const char* why =
        o.range_boundaries.empty()
            ? nullptr
            : FenceArrayProblem(o.range_boundaries, n);
    if (why != nullptr) {
      return Status::InvalidArgument(
          std::string("range_boundaries ") + why +
          " (exactly shards-2 interior fences, or empty for a uniform "
          "split)");
    }
  }
  if (o.adaptive.enabled) {
    if (o.sharding != ShardingPolicy::kRange) {
      return Status::InvalidArgument(
          "adaptive routing (adaptive.enabled) requires "
          "ShardingPolicy::kRange — kHashId has no fence dimension to adapt");
    }
    if (o.adaptive.sample_window < 1) {
      return Status::InvalidArgument(
          "adaptive.sample_window must be >= 1 (a zero window would "
          "evaluate routing on every event)");
    }
  }
  // match_threads == 0 is documented as "caller thread does everything".
  return Status::Ok();
}

std::unique_ptr<SubscriptionEngine> SubscriptionEngine::Create(
    AttributeSchema schema, EngineOptions options, Status* status) {
  const Status st = ValidateOptions(schema, options);
  if (status != nullptr) *status = st;
  if (!st.ok()) return nullptr;
  return std::unique_ptr<SubscriptionEngine>(
      new SubscriptionEngine(std::move(schema), std::move(options)));
}

SubscriptionEngine::SubscriptionEngine(AttributeSchema schema,
                                       EngineOptions options)
    : schema_(std::move(schema)),
      options_(std::move(options)),
      // Slot sizing is a contention hint: the pool's fan-out runs under the
      // caller's single pin, so concurrent pins ~= concurrent callers.
      epoch_(static_cast<size_t>(options_.match_threads) + 8) {
  const Status st = ValidateOptions(schema_, options_);
  if (!st.ok()) {
    std::fprintf(stderr, "SubscriptionEngine: invalid configuration: %s\n",
                 st.message().c_str());
    std::abort();
  }
  metrics_ = std::make_unique<obs::MetricsRegistry>();
  obs_ = std::make_unique<EngineObs>(metrics_.get());
  epoch_.AttachMetrics(metrics_.get());
  options_.index.nd = schema_.dims();
  RoutingPlan plan;  // kRange starts fenced on dimension 0
  if (options_.sharding == ShardingPolicy::kRange) {
    range_routed_ = true;
    num_range_shards_ = options_.shards - 1;
    if (!options_.range_boundaries.empty()) {
      plan.bounds = options_.range_boundaries;
    } else {
      for (uint32_t i = 1; i < num_range_shards_; ++i) {
        plan.bounds.push_back(
            kDomainMin + (kDomainMax - kDomainMin) * static_cast<float>(i) /
                             static_cast<float>(num_range_shards_));
      }
    }
    if (options_.adaptive.enabled) {
      tracker_ =
          std::make_unique<adapt::QueryPatternTracker>(schema_.dims());
    }
  }
  shards_.reserve(options_.shards);
  for (uint32_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_.index));
  }
  // ParallelFor includes the calling thread, so N-way matching needs N-1
  // workers; 0 or 1 requested threads means no pool at all.
  if (options_.match_threads > 1) {
    pool_ = std::make_unique<exec::ThreadPool>(options_.match_threads - 1);
  }
  snapshot_.store(new RoutingSnapshot{std::move(plan), 1},
                  std::memory_order_seq_cst);
}

SubscriptionEngine::~SubscriptionEngine() {
  pool_.reset();  // join workers before tearing down routing state
  delete snapshot_.load(std::memory_order_acquire);
}

uint32_t SubscriptionEngine::RangeShardFor(const RoutingPlan& plan,
                                           BoxView box) const {
  const Dim fd = static_cast<Dim>(plan.dim);
  const uint32_t a = SliceOf(plan.bounds, box.lo(fd));
  const uint32_t b = SliceOf(plan.bounds, box.hi(fd));
  return a == b ? a : static_cast<uint32_t>(shards_.size() - 1);
}

void SubscriptionEngine::RouteEvent(const RoutingPlan& plan, const Box& box,
                                    std::vector<uint32_t>* out) const {
  // The slice span of the event's fence-dimension interval, then the
  // overflow shard: ascending, which the pipeline's deterministic
  // per-shard execution order relies on.
  const Dim fd = static_cast<Dim>(plan.dim);
  const uint32_t a = SliceOf(plan.bounds, box.lo(fd));
  const uint32_t b = SliceOf(plan.bounds, box.hi(fd));
  for (uint32_t s = a; s <= b; ++s) out->push_back(s);
  out->push_back(static_cast<uint32_t>(shards_.size() - 1));
}

uint32_t SubscriptionEngine::ShardFor(SubscriptionId id, BoxView box,
                                      const RoutingPlan& plan) const {
  const uint32_t k = static_cast<uint32_t>(shards_.size());
  if (k == 1) return 0;
  if (range_routed_) return RangeShardFor(plan, box);
  uint64_t state = id;
  return static_cast<uint32_t>(SplitMix64(&state) % k);
}

SubscriptionId SubscriptionEngine::Subscribe(
    const std::vector<AttributeRange>& ranges) {
  Box box;
  if (!schema_.MakeBox(ranges, &box)) return kInvalidObject;
  return SubscribeBox(box);
}

SubscriptionId SubscriptionEngine::SubscribeBox(const Box& box) {
  std::vector<SubscriptionId> ids;
  SubscribeBatch(Span<const Box>(&box, 1), &ids);
  return ids.empty() ? kInvalidObject : ids[0];
}

void SubscriptionEngine::SubscribeBatch(Span<const Box> boxes,
                                        std::vector<SubscriptionId>* out) {
  const size_t n = boxes.size();
  out->clear();
  if (n == 0) return;
  const size_t stride = 2 * static_cast<size_t>(schema_.dims());
  std::vector<float> coords(n * stride);
  for (size_t i = 0; i < n; ++i) {
    ACCL_CHECK(boxes[i].dims() == schema_.dims());
    std::copy(boxes[i].data(), boxes[i].data() + stride,
              coords.data() + i * stride);
  }
  SubscriptionId first;
  {
    // One id-allocation critical section for the whole batch.
    std::lock_guard<std::mutex> lk(meta_mu_);
    first = next_id_;
    next_id_ += static_cast<SubscriptionId>(n);
  }
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*out)[i] = first + static_cast<SubscriptionId>(i);
  }
  const Span<const SubscriptionId> ids(out->data(), n);
  if (wal_ != nullptr) {
    // Durable path: one record (and typically one shared sync) for the
    // whole batch, on disk before any of it is applied or acknowledged.
    // On log failure `out` is emptied: none of the batch is applied (the
    // allocated ids are simply never used — ids are not reused anyway).
    const Lsn lsn = wal_->AppendSubscribe(first, static_cast<uint32_t>(n),
                                          schema_.dims(), coords.data());
    if (!wal_->WaitDurable(lsn)) {
      out->clear();
      return;
    }
    InsertSubscriptions(ids, coords.data());
    wal_->MarkApplied(lsn);
  } else {
    InsertSubscriptions(ids, coords.data());
  }
  if (tracker_ != nullptr) {
    // Fold the whole batch off the tracker lock, merge once (the stats
    // discipline every hot path here follows).
    adapt::PatternAccumulator acc;
    acc.Reset(schema_.dims());
    for (const Box& b : boxes) acc.AddSubscription(b);
    tracker_->Record(acc);
  }
  NotifyCheckpointer(n);
}

void SubscriptionEngine::InsertSubscriptions(Span<const SubscriptionId> ids,
                                             const float* coords) {
  const size_t n = ids.size();
  if (n == 0) return;
  const Dim nd = schema_.dims();
  const size_t stride = 2 * static_cast<size_t>(nd);
  // kRange holds the rebalance lock from routing through owner-map
  // publish: a boundary change (the whole double-residency protocol runs
  // under rebalance_mu_) is then serialized either entirely before the
  // group (so it is routed with the new table) or after it (so the
  // migration scan sees these inserts). Matching needs no lock held here,
  // so it proceeds throughout.
  static const RoutingPlan kNoPlan;
  std::unique_lock<std::mutex> rebalance_lk;
  const RoutingPlan* plan = &kNoPlan;
  if (range_routed_) {
    rebalance_lk = std::unique_lock<std::mutex>(rebalance_mu_);
    plan = &SnapshotUnderRebalanceLock()->plan;
  }

  // Group per target shard. Each group keeps input order, so a shard's
  // insert sequence is exactly the subsequence an Insert loop over the
  // input would have produced; the groups are laid out back to back so
  // each lands with one BulkInsert behind one shard-lock acquisition.
  exec::ShardQueues queues;
  queues.Build(n, shards_.size(), [&](size_t i, std::vector<uint32_t>* t) {
    t->push_back(ShardFor(ids[i], BoxView(coords + i * stride, nd), *plan));
  });
  std::vector<ObjectId> group_ids(n);
  std::vector<float> group_coords(n * stride);
  SubscriptionId max_id = 0;
  size_t at = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const size_t nq = queues.size(s);
    if (nq == 0) continue;
    const uint32_t* items = queues.items(s);
    const size_t begin = at;
    for (size_t j = 0; j < nq; ++j, ++at) {
      group_ids[at] = ids[items[j]];
      std::copy(coords + items[j] * stride, coords + (items[j] + 1) * stride,
                group_coords.data() + at * stride);
      max_id = std::max(max_id, group_ids[at]);
    }
    {
      std::lock_guard<std::mutex> lk(shards_[s]->mu);
      shards_[s]->index->BulkInsert(
          Span<const ObjectId>(group_ids.data() + begin, nq),
          Span<const float>(group_coords.data() + begin * stride,
                            nq * stride));
    }
    shards_[s]->subs.fetch_add(nq, std::memory_order_relaxed);
  }
  // Publish the owner map only after the inserts: nobody can hold these
  // ids yet, and Unsubscribe consults the map first. The count bumps in
  // the same critical section — once an entry exists the id is
  // Unsubscribe-able, and its decrement must never precede our increment.
  std::lock_guard<std::mutex> lk(meta_mu_);
  at = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (size_t j = 0; j < queues.size(s); ++j, ++at) {
      shard_of_.emplace(group_ids[at], static_cast<uint32_t>(s));
    }
  }
  subscription_count_.fetch_add(n, std::memory_order_relaxed);
  if (max_id + 1 > next_id_) next_id_ = max_id + 1;
}

bool SubscriptionEngine::Unsubscribe(SubscriptionId id) {
  if (wal_ == nullptr) return ApplyUnsubscribe(id);
  {
    // Don't log mutations that are no-ops from this caller's view. The
    // check races concurrent unsubscribes of the same id, but a logged
    // no-op record replays as a no-op — harmless either way.
    std::lock_guard<std::mutex> lk(meta_mu_);
    if (shard_of_.find(id) == shard_of_.end()) return false;
  }
  const Lsn lsn = wal_->AppendUnsubscribe(id);
  if (!wal_->WaitDurable(lsn)) return false;
  const bool ok = ApplyUnsubscribe(id);
  wal_->MarkApplied(lsn);
  NotifyCheckpointer(1);
  return ok;
}

bool SubscriptionEngine::ApplyUnsubscribe(SubscriptionId id) {
  uint32_t s;
  uint32_t second = 0;
  bool has_second = false;
  {
    std::lock_guard<std::mutex> lk(meta_mu_);
    auto it = shard_of_.find(id);
    if (it == shard_of_.end()) return false;
    s = it->second;
    shard_of_.erase(it);
    auto jt = second_home_.find(id);
    if (jt != second_home_.end()) {
      second = jt->second;
      has_second = true;
      second_home_.erase(jt);
    }
  }
  // Both map entries are gone in one atomic step, so no migration phase
  // will touch this id again (each phase re-checks the maps under
  // meta_mu_) — the index copies below are exclusively ours to erase, and
  // a mapped id must exist in its mapped shard(s).
  {
    std::lock_guard<std::mutex> lk(shards_[s]->mu);
    const bool erased = shards_[s]->index->Erase(id);
    ACCL_CHECK(erased);
  }
  shards_[s]->subs.fetch_sub(1, std::memory_order_relaxed);
  if (has_second) {
    // Mid-migration double residency: the destination copy was inserted
    // under the same meta critical section that registered second_home_,
    // so it must still be present. It never counted toward the
    // destination's `subs` (ownership stays at the source until cleanup),
    // so no counter update here.
    std::lock_guard<std::mutex> lk(shards_[second]->mu);
    const bool erased = shards_[second]->index->Erase(id);
    ACCL_CHECK(erased);
  }
  subscription_count_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

size_t SubscriptionEngine::ShardOf(SubscriptionId id) const {
  std::lock_guard<std::mutex> lk(meta_mu_);
  auto it = shard_of_.find(id);
  return it == shard_of_.end() ? shards_.size() : it->second;
}

std::vector<SubscriptionEngine::ShardInfo> SubscriptionEngine::GetShardInfos()
    const {
  std::vector<ShardInfo> infos;
  infos.reserve(shards_.size());
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    infos.push_back(ShardInfo{sh->index->size(), sh->index->cluster_count(),
                              sh->routed.load(std::memory_order_relaxed)});
  }
  return infos;
}

std::vector<float> SubscriptionEngine::GetRangeBoundaries() const {
  exec::EpochManager::Guard guard = epoch_.Pin();
  // The copy happens while pinned; the guard dies after the return value
  // is constructed.
  return snapshot_.load(std::memory_order_seq_cst)->plan.bounds;
}

uint32_t SubscriptionEngine::routing_dimension() const {
  exec::EpochManager::Guard guard = epoch_.Pin();
  return snapshot_.load(std::memory_order_seq_cst)->plan.dim;
}

uint64_t SubscriptionEngine::routing_version() const {
  exec::EpochManager::Guard guard = epoch_.Pin();
  return snapshot_.load(std::memory_order_seq_cst)->version;
}

void SubscriptionEngine::SynchronizeEpochs() { epoch_.Synchronize(); }

void SubscriptionEngine::AttachDurability(durability::WriteAheadLog* wal) {
  wal_ = wal;
  if (wal_ != nullptr) wal_->AttachMetrics(metrics_.get());
}

void SubscriptionEngine::SetCheckpointer(durability::Checkpointer* cp) {
  checkpointer_ = cp;
  if (checkpointer_ != nullptr) checkpointer_->AttachMetrics(metrics_.get());
}

void SubscriptionEngine::RefreshGaugesForDump() const {
  obs_->subscriptions->Set(static_cast<int64_t>(
      subscription_count_.load(std::memory_order_relaxed)));
  obs_->heap_allocs->Set(static_cast<int64_t>(obs::HeapAllocsNow()));
  obs_->heap_alloc_hook->Set(obs::HeapAllocHookInstalled() ? 1 : 0);
}

std::string SubscriptionEngine::DumpMetrics() const {
  RefreshGaugesForDump();
  // The engine registry holds everything wired through this engine (its
  // own families plus attached WAL/checkpoint/epoch metrics);
  // the process-default registry holds per-backend kernel dispatch
  // counters shared by every engine in the binary.
  return metrics_->PrometheusText() +
         obs::MetricsRegistry::Default().PrometheusText();
}

std::string SubscriptionEngine::DumpMetricsJson() const {
  RefreshGaugesForDump();
  obs::MetricsSnapshot snap = metrics_->Snapshot();
  obs::MetricsSnapshot proc = obs::MetricsRegistry::Default().Snapshot();
  snap.values.insert(snap.values.end(), proc.values.begin(),
                     proc.values.end());
  std::sort(snap.values.begin(), snap.values.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return obs::JsonDump(snap);
}

std::string SubscriptionEngine::DumpTrace() const {
  return obs::TraceRecorder::Global().DrainChromeJson();
}

void SubscriptionEngine::SetTracing(bool on) {
  obs::TraceRecorder::Global().SetEnabled(on);
}

bool SubscriptionEngine::tracing_enabled() {
  return obs::TraceRecorder::enabled();
}

void SubscriptionEngine::NotifyCheckpointer(uint64_t mutations) {
  if (checkpointer_ != nullptr) checkpointer_->OnMutations(mutations);
}

void SubscriptionEngine::CaptureDurableImage(
    durability::EngineImage* out) const {
  // The low-water is read BEFORE any shard scan: every record at or below
  // it was applied (MarkApplied) before this point, and each apply's shard
  // insert completed under the shard lock the scan takes below — so the
  // image provably contains the effect of every record it claims to cover.
  out->lsn = wal_ != nullptr ? wal_->applied_low_water() : kNoLsn;
  out->nd = schema_.dims();
  out->ids.clear();
  out->coords.clear();
  {
    std::lock_guard<std::mutex> lk(meta_mu_);
    out->next_id = next_id_;
  }
  // kRange: hold the rebalance lock so a double-residency migration is
  // ordered entirely before or after the scan — otherwise a subscription
  // mid-flight from a not-yet-scanned source into an already-scanned
  // destination would be invisible to both scans (and, being older than
  // the WAL tail, lost). Subscribes briefly serialize with the capture;
  // matching takes no lock we hold and never stalls.
  std::unique_lock<std::mutex> rebalance_lk;
  if (range_routed_) {
    rebalance_lk = std::unique_lock<std::mutex>(rebalance_mu_);
  }
  exec::EpochManager::Guard guard = epoch_.Pin();
  const RoutingSnapshot* snap = snapshot_.load(std::memory_order_seq_cst);
  // The image stores the fence positions only: the learned fence DIMENSION
  // is runtime state, and a recovered engine starts on dimension 0 (routing
  // stays exact either way because residency is always computed under the
  // recovering engine's own snapshot).
  out->fences = snap->plan.bounds;
  out->routing_version = snap->version;
  const size_t stride = 2 * static_cast<size_t>(schema_.dims());
  std::unordered_set<SubscriptionId> seen;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    sh->index->ForEachObject([&](ObjectId id, BoxView b) {
      if (!seen.insert(id).second) return;  // double-resident: capture once
      out->ids.push_back(id);
      out->coords.insert(out->coords.end(), b.data(), b.data() + stride);
    });
  }
}

Relation SubscriptionEngine::RelationFor(const Event& event,
                                         MatchPolicy policy) {
  // Point events are enclosure queries under either policy (a point
  // intersects a subscription iff the subscription encloses it).
  return event.is_point || policy == MatchPolicy::kCovering
             ? Relation::kEncloses
             : Relation::kIntersects;
}

void SubscriptionEngine::Match(const Event& event,
                               std::vector<SubscriptionId>* out) {
  Match(event, options_.default_policy, out);
}

void SubscriptionEngine::Match(const Event& event, MatchPolicy policy,
                               std::vector<SubscriptionId>* out) {
  // A one-event pipeline run whose sink appends the event's sorted,
  // deduplicated span: the same routing, execution and finalization as
  // every batch, on the calling thread (see MatchBatchImpl's worker count).
  class AppendSink final : public MatchSink {
   public:
    explicit AppendSink(std::vector<SubscriptionId>* out) : out_(out) {}
    void OnEventMatches(size_t, Span<const ObjectId> matches,
                        uint64_t) override {
      out_->insert(out_->end(), matches.begin(), matches.end());
    }

   private:
    std::vector<SubscriptionId>* out_;
  };
  AppendSink sink(out);
  MatchBatchImpl(Span<const Event>(&event, 1), policy, nullptr, &sink);
}

void SubscriptionEngine::MatchBatch(Span<const Event> events,
                                    MatchBatchResult* out) {
  MatchBatchImpl(events, options_.default_policy, out, nullptr);
}

void SubscriptionEngine::MatchBatch(Span<const Event> events,
                                    MatchPolicy policy,
                                    MatchBatchResult* out) {
  MatchBatchImpl(events, policy, out, nullptr);
}

void SubscriptionEngine::MatchBatch(Span<const Event> events,
                                    MatchSink* sink) {
  MatchBatchImpl(events, options_.default_policy, nullptr, sink);
}

void SubscriptionEngine::MatchBatch(Span<const Event> events,
                                    MatchPolicy policy, MatchSink* sink) {
  MatchBatchImpl(events, policy, nullptr, sink);
}

std::unique_ptr<SubscriptionEngine::PipelineScratch>
SubscriptionEngine::AcquireScratch() {
  {
    std::lock_guard<std::mutex> lk(scratch_pool_mu_);
    if (!scratch_pool_.empty()) {
      std::unique_ptr<PipelineScratch> s = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return s;
    }
  }
  return std::make_unique<PipelineScratch>();
}

void SubscriptionEngine::ReleaseScratch(std::unique_ptr<PipelineScratch> s) {
  std::lock_guard<std::mutex> lk(scratch_pool_mu_);
  scratch_pool_.push_back(std::move(s));
}

// Streamed shard-affine pipeline.
//
// The former shape — one task per shard holding the shard mutex across its
// whole queue, then a single-threaded cursor-walk merge — serialized the
// wall path three ways: the merge ran on one core while the pool idled,
// one hot shard's task bounded the fan-out's makespan behind a single
// mutex hold, and every call re-allocated queues/scratch/results. The
// pipeline removes all three:
//
//   - Shard queues are executed in fixed kMatchChunkSize chunks; a worker
//     claims the next chunk of (preferably) its affine shard under a
//     try_lock, so a hot shard is interleaved across workers and a
//     concurrent caller's run (a one-event Match included) is never
//     starved for a whole batch.
//     Per-shard execution order stays the queue order regardless of which
//     worker runs a chunk (claims advance under the shard mutex), so the
//     per-shard adaptation sequence — and therefore every structure
//     decision — is byte-identical to the serial engine's.
//   - Each event carries a remaining-visit countdown initialized to its
//     routing degree. The worker whose chunk performs an event's last
//     visit pushes it onto a ready stack; workers drain that stack and
//     finalize (gather via the queues' inverse item->(shard,position) CSR,
//     sort, dedup under kRange, emit to the result slot or MatchSink)
//     while other chunks are still executing. The merge therefore overlaps
//     execution and spreads across all workers; no barrier remains.
//   - All transient state lives in a pooled PipelineScratch and the
//     capacity-preserving MatchBatchResult, so steady-state batches
//     allocate nothing (gated by bench_parallel_sdi's allocation counter).
//
// Memory ordering: chunk output is written under the shard mutex, the
// countdown decrement is acq_rel (the last decrementer observes every
// earlier visit's writes through the chain of decrements), the ready-stack
// push/pop are release/acquire — so a finalizer reads fully published
// chunk buffers even when three different workers executed the visits.
void SubscriptionEngine::MatchBatchImpl(Span<const Event> events,
                                        MatchPolicy policy,
                                        MatchBatchResult* out,
                                        MatchSink* sink) {
  const size_t ne = events.size();
  const size_t k = shards_.size();
  std::unique_ptr<PipelineScratch> scratch = AcquireScratch();
  PipelineScratch& ps = *scratch;
  MatchBatchResult* res = out != nullptr ? out : &ps.sink_result;
  res->Clear();
  if (out != nullptr) res->matches.resize(ne);
  res->per_shard.resize(k);
  if (ne == 0) {
    ReleaseScratch(std::move(scratch));
    return;
  }
  ACCL_TRACE_SPAN_ARG("match_batch", static_cast<uint32_t>(ne));
  obs_->batches->Add(1);
  obs_->events->Add(ne);
  WallTimer t;

  // Pin once for the whole batch; the pool workers below run under this
  // pin (they finish before the fan-out returns, and the guard outlives
  // it), so they never touch the epoch machinery themselves.
  exec::EpochManager::Guard guard = epoch_.Pin();
  const RoutingSnapshot* snap = snapshot_.load(std::memory_order_seq_cst);
  res->routing_version = snap->version;
  res->epoch = guard.epoch();

  // Per-shard work queues. Broadcast policies enqueue every event on every
  // shard; kRange asks the router, under the one snapshot the whole batch
  // shares, which shards each event's box overlaps.
  {
    ACCL_TRACE_SPAN("route_scatter");
    if (range_routed_) {
      ps.queues.Build(ne, k, [&](size_t e, std::vector<uint32_t>* targets) {
        RouteEvent(snap->plan, events[e].box, targets);
      });
    } else {
      ps.queues.BuildBroadcast(ne, k);
    }
  }
  uint64_t routed_total = 0;
  for (size_t s = 0; s < k; ++s) {
    res->per_shard[s].events_routed = ps.queues.size(s);
    res->per_shard[s].resident_subscriptions =
        shards_[s]->subs.load(std::memory_order_relaxed);
    shards_[s]->routed.fetch_add(ps.queues.size(s), std::memory_order_relaxed);
    routed_total += ps.queues.size(s);
  }
  obs_->events_routed->Add(routed_total);

  // Per-event countdowns and the ready stack.
  if (ps.event_cap < ne) {
    ps.remaining.reset(new std::atomic<uint32_t>[ne]);
    ps.ready_next.reset(new int64_t[ne]);
    ps.event_cap = ne;
  }
  ps.matched.assign(ne, 0);
  ps.verified.assign(ne, 0);
  ps.ready_head.store(-1, std::memory_order_relaxed);
  ps.events_done.store(0, std::memory_order_relaxed);
  for (size_t e = 0; e < ne; ++e) {
    const size_t deg = ps.queues.item_degree(e);
    // Every event visits >= 1 shard (kRange always includes the overflow
    // shard; broadcast fans to all K >= 1), so the countdown cannot start
    // at zero and every event is finalized by exactly one worker.
    ACCL_DCHECK(deg > 0);
    ps.remaining[e].store(static_cast<uint32_t>(deg),
                          std::memory_order_relaxed);
  }

  // Fixed chunk layout per shard.
  if (ps.shard_cap < k) {
    ps.shard_runs.reset(new PipelineScratch::ShardRun[k]);
    ps.shard_cap = k;
  }
  size_t total_chunks = 0;
  for (size_t s = 0; s < k; ++s) {
    ps.shard_runs[s].chunk_base = total_chunks;
    ps.shard_runs[s].next_pos.store(0, std::memory_order_relaxed);
    total_chunks +=
        (ps.queues.size(s) + kMatchChunkSize - 1) / kMatchChunkSize;
  }
  if (ps.chunks.size() < total_chunks) ps.chunks.resize(total_chunks);

  // A one-event run (Match, or a one-event MatchBatch) stays on the
  // calling thread: its at most K one-query chunks are less work than a
  // pool hand-off.
  const size_t workers =
      pool_ != nullptr && ne > 1
          ? std::min(pool_->concurrency(), std::max<size_t>(1, total_chunks))
          : 1;
  if (ps.gather.size() < workers) ps.gather.resize(workers);
  if (ps.worker_query.size() < workers) ps.worker_query.resize(workers);
  // Residual-serialization counters: one row per worker (disjoint writes),
  // folded below after the fan-out joins.
  if (ps.try_lock_fail.size() < workers) ps.try_lock_fail.resize(workers);
  for (size_t w = 0; w < workers; ++w) ps.try_lock_fail[w].assign(k, 0);
  ps.pop_retry.assign(workers, 0);

  if (workers > 1) {
    pool_->ParallelFor(workers, [&](size_t w) {
      RunPipelineWorker(w, ps, events, policy, res, sink);
    });
  } else {
    RunPipelineWorker(0, ps, events, policy, res, sink);
  }
  ACCL_DCHECK(ps.events_done.load(std::memory_order_relaxed) == ne);
  // Shard reads are done. Unpinning now shortens the grace period
  // concurrent migrations wait for — and MaybeAutoAdapt below must not
  // run pinned.
  guard.Release();

  uint64_t trylock_fail_total = 0;
  uint64_t pop_retry_total = 0;
  for (size_t w = 0; w < workers; ++w) {
    for (size_t s = 0; s < k; ++s) {
      res->per_shard[s].try_lock_failures += ps.try_lock_fail[w][s];
      trylock_fail_total += ps.try_lock_fail[w][s];
    }
    res->ready_pop_retries += ps.pop_retry[w];
    pop_retry_total += ps.pop_retry[w];
  }
  obs_->trylock_failures->Add(trylock_fail_total);
  obs_->ready_pop_retries->Add(pop_retry_total);
  res->AggregateShards();
  uint64_t matched_total = 0;
  uint64_t verified_total = 0;
  for (size_t e = 0; e < ne; ++e) {
    matched_total += ps.matched[e];
    verified_total += ps.verified[e];
  }
  obs_->matches->Add(matched_total);
  obs_->objects_verified->Add(verified_total);
  obs_->batch_us->Record(static_cast<uint64_t>(
      std::max(0.0, std::round(t.ElapsedMs() * 1000.0))));
  if (tracker_ != nullptr) {
    // Off-lock fold (pooled accumulator), one tracker merge per batch.
    ps.pattern.Reset(schema_.dims());
    for (size_t e = 0; e < ne; ++e) ps.pattern.AddEvent(events[e].box);
    tracker_->Record(ps.pattern);
  }
  ReleaseScratch(std::move(scratch));
  MaybeAutoAdapt(ne);
}

void SubscriptionEngine::RunPipelineWorker(size_t worker_id,
                                           PipelineScratch& ps,
                                           Span<const Event> events,
                                           MatchPolicy policy,
                                           MatchBatchResult* res,
                                           MatchSink* sink) {
  const size_t ne = events.size();
  const size_t k = shards_.size();
  ACCL_TRACE_SPAN_ARG("pipeline_worker", static_cast<uint32_t>(worker_id));
  // Claim accounting is kept in locals and flushed once after the loop:
  // the loop body is the engine's hottest path and the obs counters,
  // while cheap, are still shared cache lines.
  uint64_t chunks_claimed = 0;
  uint64_t chunks_stolen = 0;
  std::vector<ObjectId>& buf = ps.gather[worker_id];

  // Finalize one ready event: gather its per-shard slices through the
  // inverse visit CSR, sort, dedup under kRange (double-residency), emit.
  const auto finalize = [&](size_t e) {
    ACCL_TRACE_SPAN_ARG("finalize_event", static_cast<uint32_t>(e));
    buf.clear();
    const size_t deg = ps.queues.item_degree(e);
    const uint32_t* vshards = ps.queues.item_shards(e);
    const uint32_t* vpos = ps.queues.item_positions(e);
    uint64_t verified = 0;
    for (size_t v = 0; v < deg; ++v) {
      const size_t p = vpos[v];
      const PipelineScratch::Chunk& ch =
          ps.chunks[ps.shard_runs[vshards[v]].chunk_base +
                    p / kMatchChunkSize];
      const size_t within = p % kMatchChunkSize;
      buf.insert(buf.end(), ch.ids.begin() + ch.offsets[within],
                 ch.ids.begin() + ch.offsets[within + 1]);
      verified += ch.verified[within];
    }
    // Same deterministic order as the serial oracle: ObjectId-sorted, with
    // the adjacent-unique pass removing double-resident duplicates under
    // kRange. Any worker finalizing in any order produces identical bytes.
    std::sort(buf.begin(), buf.end());
    if (range_routed_) {
      buf.erase(std::unique(buf.begin(), buf.end()), buf.end());
    }
    ps.matched[e] = static_cast<uint32_t>(buf.size());
    ps.verified[e] = verified;
    if (sink == nullptr) {
      res->matches[e].assign(buf.begin(), buf.end());
    } else {
      sink->OnEventMatches(e, Span<const ObjectId>(buf.data(), buf.size()),
                           verified);
    }
    ps.events_done.fetch_add(1, std::memory_order_release);
  };

  const auto pop_ready = [&]() -> int64_t {
    int64_t head = ps.ready_head.load(std::memory_order_acquire);
    // ready_next[head] is immutable once head is published, and events are
    // never re-pushed, so the CAS has no ABA window.
    while (head >= 0 && !ps.ready_head.compare_exchange_weak(
                            head, ps.ready_next[head],
                            std::memory_order_acq_rel,
                            std::memory_order_acquire)) {
      ++ps.pop_retry[worker_id];  // lost the head race to another worker
    }
    return head;
  };
  const auto push_ready = [&](size_t e) {
    int64_t head = ps.ready_head.load(std::memory_order_relaxed);
    do {
      ps.ready_next[e] = head;
    } while (!ps.ready_head.compare_exchange_weak(
        head, static_cast<int64_t>(e), std::memory_order_release,
        std::memory_order_relaxed));
  };

  // Executes the next chunk of shard s (caller holds the shard mutex).
  // Returns the claimed [begin, end) positions; begin == end when another
  // worker drained the queue between our racy check and the lock.
  const auto exec_chunk_locked = [&](size_t s) -> std::pair<size_t, size_t> {
    PipelineScratch::ShardRun& run = ps.shard_runs[s];
    const size_t nq = ps.queues.size(s);
    const size_t p = run.next_pos.load(std::memory_order_relaxed);
    if (p >= nq) return {p, p};
    const size_t end = std::min(p + kMatchChunkSize, nq);
    const uint32_t* q_items = ps.queues.items(s);
    PipelineScratch::Chunk& ch =
        ps.chunks[run.chunk_base + p / kMatchChunkSize];
    const size_t len = end - p;
    ch.ids.clear();
    ch.offsets.resize(len + 1);
    ch.verified.resize(len);
    ch.offsets[0] = 0;
    Shard& sh = *shards_[s];
    Query& q = ps.worker_query[worker_id];
    for (size_t j = 0; j < len; ++j) {
      const Event& ev = events[q_items[p + j]];
      q.box = ev.box;  // copy-assign reuses the warm Box's storage
      q.rel = RelationFor(ev, policy);
      QueryMetrics m;
      sh.index->Execute(q, &ch.ids, &m);
      ch.offsets[j + 1] = static_cast<uint32_t>(ch.ids.size());
      ch.verified[j] = m.objects_verified;
      res->per_shard[s].Add(m);  // only ever touched under this shard's mu
    }
    run.next_pos.store(end, std::memory_order_relaxed);
    return {p, end};
  };

  // Post-execution handoff (mutex released): count down the chunk's events
  // and stack the ones whose last visit just completed. acq_rel: the final
  // decrement observes every other visit's chunk writes via the preceding
  // decrements, and push_ready's release makes them visible to the popper.
  const auto settle = [&](size_t s, size_t p, size_t end) {
    const uint32_t* q_items = ps.queues.items(s);
    for (size_t j = p; j < end; ++j) {
      const uint32_t e = q_items[j];
      if (ps.remaining[e].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        push_ready(e);
      }
    }
  };

  // Spread initial affinities across shards; after a successful claim a
  // worker sticks to its shard (queue locality, amortized adaptation).
  size_t affinity = (worker_id * k) / std::max<size_t>(1, ps.gather.size());
  if (affinity >= k) affinity = k - 1;
  for (;;) {
    // Finalization first: it is the only work no mutex guards, and
    // draining it keeps the emit path ahead of execution.
    for (int64_t e; (e = pop_ready()) >= 0;) finalize(static_cast<size_t>(e));
    if (ps.events_done.load(std::memory_order_acquire) == ne) break;

    bool executed = false;
    size_t first_pending = k;
    for (size_t i = 0; i < k; ++i) {
      const size_t s = (affinity + i) % k;
      if (ps.shard_runs[s].next_pos.load(std::memory_order_relaxed) >=
          ps.queues.size(s)) {
        continue;
      }
      if (first_pending == k) first_pending = s;
      Shard& sh = *shards_[s];
      if (!sh.mu.try_lock()) {  // busy: steal from the next shard
        ++ps.try_lock_fail[worker_id][s];
        continue;
      }
      size_t p, end;
      {
        ACCL_TRACE_SPAN_ARG("shard_execute", static_cast<uint32_t>(s));
        std::tie(p, end) = exec_chunk_locked(s);
      }
      sh.mu.unlock();
      if (p != end) {
        settle(s, p, end);
        ++chunks_claimed;
        if (i != 0) ++chunks_stolen;  // claimed off the affine shard
        affinity = s;
        executed = true;
        break;
      }
    }
    if (executed) continue;
    if (first_pending < k) {
      // Every pending shard's mutex was momentarily held (another worker's
      // chunk, or a concurrent caller's run). If finalize work
      // arrived meanwhile, loop back for it; otherwise block once on the
      // first pending shard — bounded by one chunk of the current holder —
      // instead of spinning.
      if (ps.ready_head.load(std::memory_order_acquire) >= 0) continue;
      Shard& sh = *shards_[first_pending];
      sh.mu.lock();
      size_t p, end;
      {
        ACCL_TRACE_SPAN_ARG("shard_execute",
                            static_cast<uint32_t>(first_pending));
        std::tie(p, end) = exec_chunk_locked(first_pending);
      }
      sh.mu.unlock();
      if (p != end) {
        settle(first_pending, p, end);
        ++chunks_claimed;
        if (first_pending != affinity) ++chunks_stolen;
        affinity = first_pending;
      }
      continue;
    }
    // All chunks claimed; remaining events are finalizing on other
    // workers (or about to land on the ready stack).
    std::this_thread::yield();
  }
  obs_->chunks_claimed->Add(chunks_claimed);
  obs_->chunks_stolen->Add(chunks_stolen);
}

void SubscriptionEngine::MaybeAutoAdapt(uint64_t events) {
  if (tracker_ == nullptr) return;
  if (adapt_events_since_window_.fetch_add(events,
                                           std::memory_order_relaxed) +
          events <
      options_.adaptive.sample_window) {
    return;
  }
  // If a window evaluation is already in flight there is nothing useful
  // to queue behind it. An atomic flag — not mutex try_lock, which the
  // standard allows to fail spuriously — keeps the skip deterministic for
  // deterministic call sequences (single callers always pass).
  if (adapt_inflight_.exchange(true, std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lk(rebalance_mu_);
    adapt_events_since_window_.store(0, std::memory_order_relaxed);
    EvaluateAdaptiveLocked();
  }
  adapt_inflight_.store(false, std::memory_order_release);
}

void SubscriptionEngine::EvaluateAdaptiveLocked() {
  obs_->windows_evaluated->Add(1);
  const adapt::PatternSnapshot pattern = tracker_->Snapshot();
  tracker_->AdvanceWindow();
  adapt::FenceChoice c = adapt::ChooseFenceDimension(
      pattern, SnapshotUnderRebalanceLock()->plan.dim, num_range_shards_);
  {
    std::lock_guard<std::mutex> lk(adapt_estimates_mu_);
    last_estimates_ = std::move(c.estimates);
  }
  if (!c.switch_dimension) return;
  ApplyRoutingLocked(RoutingPlan{c.dim, std::move(c.fences)});
  obs_->dimension_switches->Add(1);
  ACCL_TRACE_INSTANT("adapt_dimension_switch", c.dim);
  // The old pattern argued for this switch; it must not immediately argue
  // again.
  tracker_->ResetWindow();
}

AdaptiveRoutingStats SubscriptionEngine::adaptive_stats() const {
  AdaptiveRoutingStats st;
  st.enabled = tracker_ != nullptr;
  {
    exec::EpochManager::Guard guard = epoch_.Pin();
    const RoutingSnapshot* snap = snapshot_.load(std::memory_order_seq_cst);
    st.fence_dimension = snap->plan.dim;
  }
  st.dimension_switches = obs_->dimension_switches->Value();
  st.windows_evaluated = obs_->windows_evaluated->Value();
  if (tracker_ != nullptr) {
    st.events_observed = tracker_->events_observed();
    st.subscriptions_observed = tracker_->subscriptions_observed();
  }
  {
    std::lock_guard<std::mutex> lk(adapt_estimates_mu_);
    st.last_estimates = last_estimates_;
  }
  return st;
}

SubscriptionEngine::RebalanceStats SubscriptionEngine::rebalance_stats()
    const {
  RebalanceStats st;
  st.boundary_moves = obs_->boundary_moves->Value();
  st.subscriptions_migrated = obs_->subs_migrated->Value();
  st.dimension_switches = obs_->dimension_switches->Value();
  return st;
}

bool SubscriptionEngine::RebalanceOnce() {
  if (!range_routed_) return false;
  std::lock_guard<std::mutex> lk(rebalance_mu_);
  // Migrations run only under rebalance_mu_, so nothing is double-resident
  // now and the fold sees every live subscription exactly once.
  adapt::PatternAccumulator residents;
  residents.Reset(schema_.dims());
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> shard_lk(sh->mu);
    sh->index->ForEachObject(
        [&](ObjectId, BoxView b) { residents.AddSubscription(b); });
  }
  RoutingPlan plan = SnapshotUnderRebalanceLock()->plan;
  std::vector<float> fences = adapt::SelectivityAnalyzer::PlanFences(
      residents.data(), static_cast<Dim>(plan.dim), num_range_shards_ - 1);
  if (fences == plan.bounds) return false;
  plan.bounds = std::move(fences);
  ApplyRoutingLocked(std::move(plan));
  obs_->boundary_moves->Add(1);
  return true;
}

bool SubscriptionEngine::SetRangeBoundaries(const std::vector<float>& bounds) {
  if (!range_routed_) return false;
  const size_t n = static_cast<size_t>(num_range_shards_) - 1;
  if (FenceArrayProblem(bounds, n) != nullptr) return false;
  std::lock_guard<std::mutex> lk(rebalance_mu_);
  // The fence dimension carries over unchanged.
  ApplyRoutingLocked(RoutingPlan{SnapshotUnderRebalanceLock()->plan.dim,
                                 bounds});
  obs_->boundary_moves->Add(1);
  return true;
}

bool SubscriptionEngine::SetRoutingDimension(uint32_t dim) {
  if (!range_routed_ || dim >= schema_.dims()) return false;
  std::lock_guard<std::mutex> lk(rebalance_mu_);
  const RoutingPlan& cur = SnapshotUnderRebalanceLock()->plan;
  if (cur.dim == dim) return true;
  // Fence positions are retained; the straddler SET changes.
  ApplyRoutingLocked(RoutingPlan{dim, cur.bounds});
  obs_->dimension_switches->Add(1);
  ACCL_TRACE_INSTANT("adapt_dimension_switch", dim);
  if (tracker_ != nullptr) tracker_->ResetWindow();
  return true;
}

void SubscriptionEngine::ApplyRoutingLocked(RoutingPlan plan) {
  ACCL_TRACE_SPAN_ARG("routing_migrate",
                      static_cast<uint32_t>(shards_.size()));
  WallTimer migrate_timer;
  const size_t stride = 2 * static_cast<size_t>(schema_.dims());

  // Phase 1 — scan: collect the residents the new table routes elsewhere.
  // Any shard may hold one (a straddler may stop straddling and vice
  // versa), so every shard is scanned. The box views die with the scan
  // lock, so coordinates are copied out per destination. (Between
  // migrations second_home_ is empty, so every physical resident seen here
  // is an owned, single-resident copy.)
  struct Outgoing {
    std::vector<ObjectId> ids;
    std::vector<float> coords;
  };
  struct SrcPlan {
    uint32_t src;
    std::vector<Outgoing> outgoing;                     // indexed by dst
    std::vector<std::pair<ObjectId, uint32_t>> moved;   // (id, dst)
  };
  std::vector<SrcPlan> plans;
  plans.reserve(shards_.size());
  for (uint32_t src = 0; src < shards_.size(); ++src) {
    SrcPlan sp;
    sp.src = src;
    sp.outgoing.resize(shards_.size());
    {
      std::lock_guard<std::mutex> lk(shards_[src]->mu);
      shards_[src]->index->ForEachObject([&](ObjectId id, BoxView b) {
        const uint32_t dst = RangeShardFor(plan, b);
        if (dst == src) return;
        Outgoing& o = sp.outgoing[dst];
        o.ids.push_back(id);
        o.coords.insert(o.coords.end(), b.data(), b.data() + stride);
      });
    }
    plans.push_back(std::move(sp));
  }

  // Phase 2 — double-residency inserts: each moving subscription is copied
  // into its destination shard while the source copy stays live, and its
  // second home is registered in the SAME meta critical section as the
  // insert, so Unsubscribe observes "entry implies both copies present"
  // atomically. Readers still route with the old snapshot and find the
  // source copies; a route covering both shards finds two copies, which
  // the match-side adjacent-unique pass removes.
  size_t migrated = 0;
  for (SrcPlan& sp : plans) {
    for (uint32_t dst = 0; dst < shards_.size(); ++dst) {
      Outgoing& o = sp.outgoing[dst];
      if (o.ids.empty()) continue;
      std::scoped_lock lk(meta_mu_, shards_[dst]->mu);
      std::vector<ObjectId> ins_ids;
      std::vector<float> ins_coords;
      ins_ids.reserve(o.ids.size());
      ins_coords.reserve(o.coords.size());
      for (size_t i = 0; i < o.ids.size(); ++i) {
        const ObjectId id = o.ids[i];
        auto it = shard_of_.find(id);
        // Unsubscribed between scan and insert: nothing to migrate.
        if (it == shard_of_.end() || it->second != sp.src) continue;
        ins_ids.push_back(id);
        ins_coords.insert(ins_coords.end(), o.coords.begin() + i * stride,
                          o.coords.begin() + (i + 1) * stride);
        second_home_.emplace(id, dst);
        sp.moved.emplace_back(id, dst);
      }
      shards_[dst]->index->BulkInsert(
          Span<const ObjectId>(ins_ids.data(), ins_ids.size()),
          Span<const float>(ins_coords.data(), ins_coords.size()));
      migrated += ins_ids.size();
    }
  }

  // Phase 3 — publish, then wait out the grace period: after Synchronize
  // returns, every reader that routed with the old table has finished its
  // shard reads, and any reader it did not wait for is guaranteed to have
  // loaded the new snapshot (the seq_cst swap below; see the epoch
  // manager's memory-ordering contract). Readers of the new table find the
  // moving subscriptions at their destinations, so the source copies below
  // are dead weight for every possible reader — and so is the superseded
  // snapshot, freed right here.
  const RoutingSnapshot* old = SnapshotUnderRebalanceLock();
  snapshot_.store(new RoutingSnapshot{std::move(plan), old->version + 1},
                  std::memory_order_seq_cst);
  epoch_.Synchronize();
  delete old;

  // Phase 4 — deferred source cleanup: flip ownership and bulk-erase the
  // stale source copies. An id whose second_home_ entry is gone was
  // unsubscribed mid-migration (Unsubscribe erased both copies); skip it.
  for (SrcPlan& sp : plans) {
    if (sp.moved.empty()) continue;
    std::scoped_lock lk(meta_mu_, shards_[sp.src]->mu);
    std::vector<ObjectId> erase_ids;
    erase_ids.reserve(sp.moved.size());
    std::vector<size_t> flips(shards_.size(), 0);
    for (const auto& [id, dst] : sp.moved) {
      auto jt = second_home_.find(id);
      if (jt == second_home_.end()) continue;  // unsubscribed mid-flight
      ACCL_DCHECK(jt->second == dst);
      second_home_.erase(jt);
      auto it = shard_of_.find(id);
      ACCL_CHECK(it != shard_of_.end() && it->second == sp.src);
      it->second = dst;
      erase_ids.push_back(id);
      ++flips[dst];
    }
    const size_t erased = shards_[sp.src]->index->BulkErase(
        Span<const ObjectId>(erase_ids.data(), erase_ids.size()));
    ACCL_CHECK(erased == erase_ids.size());
    shards_[sp.src]->subs.fetch_sub(erase_ids.size(),
                                    std::memory_order_relaxed);
    for (uint32_t d = 0; d < shards_.size(); ++d) {
      if (flips[d] != 0) {
        shards_[d]->subs.fetch_add(flips[d], std::memory_order_relaxed);
      }
    }
  }
  obs_->subs_migrated->Add(migrated);
  obs_->migration_us->Record(static_cast<uint64_t>(std::max(
      0.0, std::round(migrate_timer.ElapsedMs() * 1000.0))));
}

bool SubscriptionEngine::MakePointEvent(
    const std::vector<AttributeValue>& values, Event* out) const {
  std::vector<float> pt;
  if (!schema_.MakePoint(values, &pt)) return false;
  *out = Event::Point(std::move(pt));
  return true;
}

bool SubscriptionEngine::MakeRangeEvent(
    const std::vector<AttributeRange>& ranges, Event* out) const {
  Box box;
  if (!schema_.MakeBox(ranges, &box)) return false;
  *out = Event::Range(std::move(box));
  return true;
}

}  // namespace accl
