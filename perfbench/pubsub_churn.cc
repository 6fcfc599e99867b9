// pubsub_churn: durable writes beside reads, across a restart.
//
// A durable engine (durability::OpenDurable: group commit, background
// checkpoints) with kRange sharding and adaptive routing on. Three writer
// threads run paced closed loops of SubscribeBox/Unsubscribe that keep the
// live set steady; one caller runs MatchBatch (match_threads 0). Events are
// Zipf-hot on one dimension, and that dimension shifts midway, so the
// advisor re-fences while writes are in flight. The engine is then closed
// and reopened from its files, and the same traffic continues on the
// recovered engine. The only workload in which the WAL, checkpoints,
// recovery, epoch grace waits and routing migrations do real work.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "sdi/subscription_engine.h"
#include "util/digest.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using accl::Box;
using accl::Dim;
using accl::Event;
using accl::MatchBatchResult;
using accl::MatchPolicy;
using accl::ObjectId;
using accl::Span;
using accl::SubscriptionEngine;
using accl::SubscriptionId;
using accl::durability::DurableEngine;

constexpr Dim kNd = 6;
constexpr size_t kLive = 20000;         // steady live subscription count
constexpr size_t kWriters = 3;
constexpr size_t kBoxesPerWriter = 8192;  // subscribe boxes, cycled
constexpr size_t kBatch = 64;            // matcher batch
constexpr size_t kPoolBatches = 64;      // per hot dimension, cycled
// Each writer starts one Subscribe/Unsubscribe pair every period (one in
// flight; a late writer starts its next pair at once but never bursts to
// catch up), so 3 writers offer 1200 writes/s. A fixed rate keeps the
// writers' share of the host, and their interference with the matcher,
// from following how fast the disk syncs on a given run.
constexpr int64_t kWriterPeriodNs = 5'000'000;
constexpr Dim kHotFirst = 2;             // hot event dimension, first half
constexpr Dim kHotSecond = 4;            // ... after the shift
constexpr size_t kZipfBins = 64;
constexpr double kZipfS = 1.1;
constexpr uint64_t kCheckpointEvery = 5000;  // acknowledged mutations
constexpr size_t kLoadChunk = 1000;
constexpr size_t kMaxConvergeBatches = 2000;
constexpr size_t kMinWarmupPasses = 12;
constexpr size_t kMaxWarmupPasses = 100;
constexpr size_t kOracleEvents = 48;
constexpr int kSetupReps = 5;
constexpr MatchPolicy kPolicy = MatchPolicy::kIntersecting;

accl::AttributeSchema UnitSchema() {
  accl::AttributeSchema s;
  for (Dim d = 0; d < kNd; ++d) s.AddAttribute("a" + std::to_string(d), 0, 1);
  return s;
}

accl::EngineOptions EngineOpts() {
  accl::EngineOptions o;
  o.shards = 8;
  o.sharding = accl::ShardingPolicy::kRange;
  o.adaptive.enabled = true;
  return o;
}

accl::DurabilityOptions DurOpts() {
  accl::DurabilityOptions d;
  d.checkpoint_every_mutations = kCheckpointEvery;
  return d;
}

/// A small interval inside a Zipf-hot bin of dimension `d`.
void SetHot(Box* b, Dim d, accl::Rng& rng, const accl::ZipfDistribution& z) {
  const float cell = 1.0f / static_cast<float>(kZipfBins);
  const float len = 0.6f * cell * rng.NextFloat();
  const float start = static_cast<float>(z.Sample(rng)) * cell +
                      (cell - len) * rng.NextFloat();
  b->set(d, start, start + len);
}

void SetUniform(Box* b, Dim d, float max_len, accl::Rng& rng) {
  const float len = max_len * rng.NextFloat();
  const float start = (1.0f - len) * rng.NextFloat();
  b->set(d, start, start + len);
}

/// Subscriptions are narrow and Zipf-placed on both hot dimensions, so
/// either can route them; events are narrow only on the current one.
Box MakeSubscription(accl::Rng& rng, const accl::ZipfDistribution& z) {
  Box b(kNd);
  for (Dim d = 0; d < kNd; ++d) {
    if (d == kHotFirst || d == kHotSecond) {
      SetHot(&b, d, rng, z);
    } else {
      SetUniform(&b, d, 0.25f, rng);
    }
  }
  return b;
}

/// An event narrow on the `hot` dimension and wide on the other hot one,
/// from a Zipf-hot start: routing on the other dimension then sends it
/// across the dense fences, which is what makes the advisor move.
Event MakeEvent(Dim hot, accl::Rng& rng, const accl::ZipfDistribution& z) {
  const Dim cold = hot == kHotFirst ? kHotSecond : kHotFirst;
  Box b(kNd);
  for (Dim d = 0; d < kNd; ++d) {
    if (d == hot) {
      SetHot(&b, d, rng, z);
    } else if (d == cold) {
      const float start =
          static_cast<float>(z.Sample(rng)) / static_cast<float>(kZipfBins);
      b.set(d, start, std::min(1.0f, start + 0.1f + 0.3f * rng.NextFloat()));
    } else {
      SetUniform(&b, d, 0.3f, rng);
    }
  }
  return Event::Range(std::move(b));
}

struct Inputs {
  std::vector<Box> initial;                  // kLive
  std::vector<std::vector<Box>> writer_boxes;  // per writer
  std::vector<Event> first;                  // hot on kHotFirst
  std::vector<Event> second;                 // hot on kHotSecond
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  const accl::ZipfDistribution zipf(kZipfBins, kZipfS);
  accl::Rng rng(seed * 104729 + 5);
  for (size_t i = 0; i < kLive; ++i) {
    in.initial.push_back(MakeSubscription(rng, zipf));
  }
  in.writer_boxes.resize(kWriters);
  for (auto& boxes : in.writer_boxes) {
    for (size_t i = 0; i < kBoxesPerWriter; ++i) {
      boxes.push_back(MakeSubscription(rng, zipf));
    }
  }
  for (size_t i = 0; i < kPoolBatches * kBatch; ++i) {
    in.first.push_back(MakeEvent(kHotFirst, rng, zipf));
    in.second.push_back(MakeEvent(kHotSecond, rng, zipf));
  }
  return in;
}

Span<const Event> PoolBatch(const std::vector<Event>& pool, size_t b) {
  return Span<const Event>(pool.data() + (b % kPoolBatches) * kBatch, kBatch);
}

/// What the benchmark knows was acknowledged: per writer, the ids it owns
/// (oldest first) with their boxes, and the ids it removed.
struct Ledger {
  std::deque<std::pair<SubscriptionId, const Box*>> live;
  std::vector<SubscriptionId> removed;
  size_t next_box = 0;  ///< position in the writer's box cycle
};

struct Instance {
  Inputs in;
  std::string dir;
  DurableEngine de;
  std::vector<Ledger> ledgers;
  size_t converge_batches = 0;
  size_t warmup_passes = 0;
};

std::string WalPath(const std::string& dir) { return dir + "/wal"; }
std::string CkptPath(const std::string& dir) { return dir + "/ckpt"; }

bool Open(const std::string& dir, DurableEngine* de, Report* rep) {
  accl::Status st;
  if (!accl::durability::OpenDurable(UnitSchema(), EngineOpts(), DurOpts(),
                                     WalPath(dir), CkptPath(dir), nullptr, de,
                                     &st)) {
    rep->Fail("pubsub_churn: OpenDurable failed: " + st.message());
    return false;
  }
  return true;
}

std::unique_ptr<Instance> SetUp(const Args& args, Report* rep) {
  auto x = std::make_unique<Instance>();
  x->dir = args.out_dir + "/churn-seed" + std::to_string(args.seed);
  std::filesystem::remove_all(x->dir);
  std::filesystem::create_directories(x->dir);
  x->in = MakeInputs(args.seed);
  if (!Open(x->dir, &x->de, rep)) return x;
  SubscriptionEngine& e = *x->de.engine;
  x->ledgers.resize(kWriters);
  std::vector<SubscriptionId> ids;
  for (size_t off = 0; off < kLive; off += kLoadChunk) {
    const size_t n = std::min(kLoadChunk, kLive - off);
    e.SubscribeBatch(Span<const Box>(x->in.initial.data() + off, n), &ids);
    rep->attempted.fetch_add(1);
    if (ids.size() != n) {
      rep->Fail("pubsub_churn: SubscribeBatch refused during load");
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      x->ledgers[(off + i) % kWriters].live.emplace_back(
          ids[i], &x->in.initial[off + i]);
    }
  }
  // Advisor convergence: match the first hot stream until routing has
  // moved onto its dimension.
  MatchBatchResult res;
  while (e.routing_dimension() != kHotFirst &&
         x->converge_batches < kMaxConvergeBatches) {
    e.MatchBatch(PoolBatch(x->in.first, x->converge_batches++), kPolicy, &res);
  }
  // AC convergence: pool passes of the first stream, at least
  // kMinWarmupPasses (more than any seed needed to settle when this was
  // written, so set-up does the same work every run) and then until every
  // shard's last reorganization pass made no split and no merge, so the
  // timed matcher does not start on clusterings still being rebuilt.
  while (x->warmup_passes < kMaxWarmupPasses) {
    for (size_t b = 0; b < kPoolBatches; ++b) {
      e.MatchBatch(PoolBatch(x->in.first, b), kPolicy, &res);
    }
    ++x->warmup_passes;
    if (x->warmup_passes >= kMinWarmupPasses && ShardsQuiet(e)) break;
  }
  if (!x->de.checkpointer->CheckpointNow()) {
    rep->Fail("pubsub_churn: set-up checkpoint failed");
  }
  return x;
}

/// Timings and counters of one phase of traffic.
struct PhaseStats {
  std::vector<double> match_us;
  uint64_t trylock = 0;
  uint64_t pop_retries = 0;
  /// First-stream calls with spans off and on (traced run only).
  std::vector<double> untraced_us;
  std::vector<double> traced_us;
  size_t events = 0;
  uint64_t visits_second = 0;  ///< shard visits of second-hot-stream events
  size_t events_second = 0;
  std::vector<std::vector<double>> ack_us{kWriters};
  size_t writes = 0;
  int64_t wall_ns = 0;
  double migration_call_us_max = 0.0;
  std::vector<double> checkpoint_ms;
};

void MaxInto(std::atomic<int64_t>* m, int64_t v) {
  int64_t cur = m->load();
  while (v > cur && !m->compare_exchange_weak(cur, v)) {
  }
}

/// Runs writers and the matcher for `seconds`; the matcher switches from
/// the first to the second hot stream after `shift_after` seconds (0 =
/// second stream throughout). In the traced run, spans are off for the
/// first `untraced_s` seconds, to price tracing on the first stream.
void RunTraffic(Instance* x, double seconds, double shift_after,
                double untraced_s, const char* phase_name, Report* rep,
                PhaseStats* ps) {
  SubscriptionEngine& e = *x->de.engine;
  std::atomic<bool> stop{false};
  std::atomic<size_t> writes{0};
  std::atomic<int64_t> migration_max_ns{0};
  ScopedSpan phase(phase_name, 0, 0);
  const uint32_t phase_id = phase.id();
  const int64_t start = NowNs();
  const int64_t untraced_end = start + static_cast<int64_t>(untraced_s * 1e9);
  if (untraced_s > 0) Tracer::Get().SetOn(false);
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Ledger& led = x->ledgers[w];
      const std::vector<Box>& boxes = x->in.writer_boxes[w];
      uint64_t op = 0;
      // Writers start a third of a period apart.
      int64_t due = start + static_cast<int64_t>(w) * kWriterPeriodNs /
                                static_cast<int64_t>(kWriters);
      while (!stop.load(std::memory_order_relaxed)) {
        const Box* box = &boxes[led.next_box++ % boxes.size()];
        const uint64_t v0 = e.routing_version();
        const int64_t t0 = NowNs();
        SubscriptionId id;
        {
          ScopedSpan s("sdi.SubscribeBox", phase_id, (w << 48) | op);
          id = e.SubscribeBox(*box);
        }
        const int64_t t1 = NowNs();
        rep->attempted.fetch_add(1);
        if (id == accl::kInvalidObject) {
          rep->Fail("pubsub_churn: SubscribeBox refused");
        } else {
          led.live.emplace_back(id, box);
          ps->ack_us[w].push_back(UsBetween(t0, t1));
        }
        if (e.routing_version() != v0) MaxInto(&migration_max_ns, t1 - t0);
        if (!led.live.empty()) {
          const SubscriptionId victim = led.live.front().first;
          const uint64_t v1 = e.routing_version();
          const int64_t t2 = NowNs();
          bool ok;
          {
            ScopedSpan s("sdi.Unsubscribe", phase_id, (w << 48) | op);
            ok = e.Unsubscribe(victim);
          }
          const int64_t t3 = NowNs();
          if (e.routing_version() != v1) MaxInto(&migration_max_ns, t3 - t2);
          rep->attempted.fetch_add(1);
          if (!ok) {
            rep->Fail("pubsub_churn: Unsubscribe of a live id failed");
          } else {
            led.live.pop_front();
            led.removed.push_back(victim);
          }
        }
        writes.fetch_add(2, std::memory_order_relaxed);
        ++op;
        due = std::max(due + kWriterPeriodNs, NowNs());
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
      }
    });
  }
  MatchBatchResult res;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t shift = start + static_cast<int64_t>(shift_after * 1e9);
  uint64_t ckpts_seen = x->de.checkpointer->stats().checkpoints_written;
  size_t b = 0;
  while (Before(end)) {
    if (untraced_s > 0 && !Tracer::Get().on() && !Before(untraced_end)) {
      Tracer::Get().SetOn(true);
    }
    const bool second = !Before(shift);
    const uint64_t v0 = e.routing_version();
    const int64_t t0 = NowNs();
    {
      ScopedSpan s("sdi.MatchBatch", phase_id, b);
      e.MatchBatch(PoolBatch(second ? x->in.second : x->in.first, b), kPolicy,
                   &res);
    }
    const int64_t t1 = NowNs();
    if (e.routing_version() != v0) MaxInto(&migration_max_ns, t1 - t0);
    rep->attempted.fetch_add(kBatch);
    for (const accl::ShardMetrics& sm : res.per_shard) {
      ps->trylock += sm.try_lock_failures;
    }
    ps->pop_retries += res.ready_pop_retries;
    ps->match_us.push_back(UsBetween(t0, t1));
    if (untraced_s > 0 && !second) {
      (Tracer::Get().on() ? ps->traced_us : ps->untraced_us)
          .push_back(UsBetween(t0, t1));
    }
    ps->events += kBatch;
    if (second) {
      ps->visits_second += res.TotalShardVisits();
      ps->events_second += kBatch;
    }
    const accl::CheckpointStats cs = x->de.checkpointer->stats();
    if (cs.checkpoints_written != ckpts_seen) {
      ckpts_seen = cs.checkpoints_written;
      ps->checkpoint_ms.push_back(cs.last_write_ms);
    }
    ++b;
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  ps->wall_ns += NowNs() - start;
  ps->writes += writes.load();
  ps->migration_call_us_max =
      std::max(ps->migration_call_us_max,
               static_cast<double>(migration_max_ns.load()) / 1000.0);
}

uint64_t HashIds(const std::vector<ObjectId>& ids) {
  uint64_t h = accl::kFnvOffsetBasis;
  for (const ObjectId id : ids) h = accl::Fnv1a(h, id);
  return accl::Fnv1a(h, ids.size());
}

/// Quiesced checks against the ledgers: the live count, optionally the
/// residency of every acknowledged id, and sampled match sets against a
/// brute-force pass over the acknowledged live set.
void CheckAgainstLedger(Instance* x, bool residency, const char* when,
                        Report* rep) {
  SubscriptionEngine& e = *x->de.engine;
  std::vector<std::pair<SubscriptionId, const Box*>> live;
  size_t removed = 0;
  for (const Ledger& l : x->ledgers) {
    live.insert(live.end(), l.live.begin(), l.live.end());
    removed += l.removed.size();
  }
  rep->attempted.fetch_add(1);
  if (e.subscription_count() != live.size()) {
    rep->Fail(std::string("pubsub_churn: ") + when + ": engine holds " +
              std::to_string(e.subscription_count()) +
              " subscriptions, acknowledged live set " +
              std::to_string(live.size()));
  }
  if (residency) {
    size_t lost = 0;
    size_t resurrected = 0;
    for (const auto& [id, box] : live) {
      if (e.ShardOf(id) == e.shard_count()) ++lost;
    }
    for (const Ledger& l : x->ledgers) {
      for (const SubscriptionId id : l.removed) {
        if (e.ShardOf(id) != e.shard_count()) ++resurrected;
      }
    }
    rep->attempted.fetch_add(live.size() + removed);
    for (size_t i = 0; i < lost; ++i) {
      rep->Fail(std::string("pubsub_churn: ") + when +
                ": an acknowledged subscribe did not survive");
    }
    for (size_t i = 0; i < resurrected; ++i) {
      rep->Fail(std::string("pubsub_churn: ") + when +
                ": an acknowledged unsubscribe came back");
    }
  }
  std::sort(live.begin(), live.end());
  std::vector<Event> probes;
  for (size_t i = 0; i < kOracleEvents; ++i) {
    const std::vector<Event>& pool = i % 2 ? x->in.second : x->in.first;
    probes.push_back(pool[(i * 131) % pool.size()]);
  }
  MatchBatchResult res;
  e.MatchBatch(Span<const Event>(probes.data(), probes.size()), kPolicy, &res);
  for (size_t i = 0; i < probes.size(); ++i) {
    std::vector<ObjectId> want;
    for (const auto& [id, box] : live) {
      if (accl::Satisfies(box->view(), probes[i].box.view(),
                          accl::Relation::kIntersects)) {
        want.push_back(id);
      }
    }
    rep->attempted.fetch_add(1);
    if (HashIds(want) != HashIds(res.matches[i])) {
      rep->Fail(std::string("pubsub_churn: ") + when +
                ": a match set differs from the oracle");
    }
  }
}

struct Counters {
  accl::WalStats wal;
  uint64_t checkpoints = 0;
  uint64_t grace_waits = 0;
  uint64_t switches = 0;
  uint64_t migrated = 0;
};

Counters Read(const DurableEngine& de) {
  Counters c;
  c.wal = de.wal->stats();
  c.checkpoints = de.checkpointer->stats().checkpoints_written;
  c.grace_waits = de.engine->epoch_stats().grace_waits;
  const SubscriptionEngine::RebalanceStats rs = de.engine->rebalance_stats();
  c.switches = rs.dimension_switches;
  c.migrated = rs.subscriptions_migrated;
  return c;
}

/// Accumulates the counter deltas of one phase.
struct Deltas {
  uint64_t records = 0;
  uint64_t syncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoints = 0;
  uint64_t grace_waits = 0;
  uint64_t switches = 0;
  uint64_t migrated = 0;
  void Add(const Counters& a, const Counters& b) {
    records += b.wal.records_appended - a.wal.records_appended;
    syncs += b.wal.flush_batches - a.wal.flush_batches;
    wal_bytes += b.wal.bytes_appended - a.wal.bytes_appended;
    checkpoints += b.checkpoints - a.checkpoints;
    grace_waits += b.grace_waits - a.grace_waits;
    switches += b.switches - a.switches;
    migrated += b.migrated - a.migrated;
  }
};

}  // namespace

void RunPubsubChurn(const Args& args, Report* rep) {
  const bool traced = Tracer::Get().on();
  Tracer::Get().SetOn(false);
  double setup_s = 0.0;
  std::unique_ptr<Instance> x = RepeatedSetup(
      kSetupReps, &setup_s, [&] { return SetUp(args, rep); });
  Tracer::Get().SetOn(traced);
  if (x->de.engine == nullptr) return;
  rep->Info("pubsub_churn: " +
            std::to_string(x->de.engine->subscription_count()) +
            " live subscriptions, routing on dimension " +
            std::to_string(x->de.engine->routing_dimension()) + " after " +
            std::to_string(x->converge_batches) + " convergence batches and " +
            std::to_string(x->warmup_passes) + " AC warm-up passes");

  const double half = args.seconds / 2.0;
  PhaseStats before;
  PhaseStats after;
  Deltas d;

  Counters c0 = Read(x->de);
  RunTraffic(x.get(), half, half / 2.0, traced ? half / 4.0 : 0.0,
             "bench.before_restart", rep, &before);
  Counters c1 = Read(x->de);
  d.Add(c0, c1);
  rep->Info("before the restart: " + std::to_string(c1.switches - c0.switches) +
            " dimension switches, routing on dimension " +
            std::to_string(x->de.engine->routing_dimension()));
  CheckAgainstLedger(x.get(), false, "before close", rep);
  const uint32_t dim_at_close = x->de.engine->routing_dimension();
  const uint64_t live_segments = x->de.wal->stats().live_segments;

  // Restart: close the engine and recover it from its files.
  x->de = DurableEngine();
  double recovery_s = 0.0;
  {
    ScopedSpan s("durability.OpenDurable", 0, 0);
    const int64_t t0 = NowNs();
    if (!Open(x->dir, &x->de, rep)) return;
    recovery_s = static_cast<double>(NowNs() - t0) / 1e9;
  }
  const accl::RecoveryStats rs = x->de.recovery;
  CheckAgainstLedger(x.get(), true, "after recovery", rep);
  rep->Info("recovered routing dimension " +
            std::to_string(x->de.engine->routing_dimension()) +
            " (was " + std::to_string(dim_at_close) + " before the restart)");

  c0 = Read(x->de);
  RunTraffic(x.get(), half, 0.0, 0.0, "bench.after_restart", rep, &after);
  c1 = Read(x->de);
  d.Add(c0, c1);
  rep->Info("after the restart: " + std::to_string(c1.switches - c0.switches) +
            " dimension switches, routing on dimension " +
            std::to_string(x->de.engine->routing_dimension()));
  CheckAgainstLedger(x.get(), true, "at the end", rep);
  x->de = DurableEngine();
  std::filesystem::remove_all(x->dir);

  // Figures over both phases.
  std::vector<double> match_us = before.match_us;
  match_us.insert(match_us.end(), after.match_us.begin(), after.match_us.end());
  const std::vector<double> match_us_ordered = match_us;
  std::vector<double> ack_us;
  for (const PhaseStats* p : {&before, &after}) {
    for (const auto& v : p->ack_us) ack_us.insert(ack_us.end(), v.begin(), v.end());
  }
  const size_t n_match = match_us.size();
  const size_t n_ack = ack_us.size();
  // Matcher events/s: the median over ten stretches of the two phases.
  const double events_per_s = MedianWindowRate(
      std::vector<double>(n_match, kBatch), match_us, 10);
  const double writes_per_s =
      static_cast<double>(before.writes + after.writes) /
      (static_cast<double>(before.wall_ns + after.wall_ns) / 1e9);
  const double match_p999 = MedianWindowPercentile(match_us, 99.9, 10);
  std::vector<double> m99 = match_us;
  std::vector<double> a99 = ack_us;
  const double match_p50 = Percentile(&match_us, 50);
  const double match_p99 = Percentile(&m99, 99);
  const double ack_p50 = Percentile(&ack_us, 50);
  const double ack_p99 = Percentile(&a99, 99);

  rep->EndToEnd("setup_s", setup_s);
  rep->EndToEnd("read_per_s", events_per_s);
  rep->EndToEnd("read_us_p50", match_p50);
  // The tail is p98 here: about one call in 200-500 waits behind a
  // checkpoint capture or a routing migration, so p99 sits on the edge of
  // those stalls and jumps between runs (their cost shows in
  // adapt.migration_call_us_max and durability.checkpoint_ms).
  rep->EndToEnd("read_us_tail",
                MedianWindowPercentile(match_us_ordered, 98, 10));
  rep->Figure("setup_s", setup_s, "s");
  rep->Figure("churn_match_events_per_s", events_per_s, "1/s",
              before.events + after.events);
  rep->Figure("match_call_us_p50", match_p50, "us", n_match);
  rep->Figure("match_call_us_p99", match_p99, "us", n_match);
  rep->Figure("match_call_us_p999", match_p999, "us", n_match);
  rep->Figure("subscribe_ack_us_p50", ack_p50, "us", n_ack);
  rep->Figure("subscribe_ack_us_p99", ack_p99, "us", n_ack);
  rep->Figure("churn_writes_per_s", writes_per_s, "1/s",
              before.writes + after.writes);
  rep->Figure("recovery_s", recovery_s, "s", 1);
  rep->Figure("match_call_us_p50_before_restart", Median(before.match_us),
              "us", before.match_us.size());
  rep->Figure("match_call_us_p50_after_restart", Median(after.match_us), "us",
              after.match_us.size());

  const auto per = [](double a, double n) { return n == 0 ? 0.0 : a / n; };
  std::vector<double> ckpt_ms = before.checkpoint_ms;
  ckpt_ms.insert(ckpt_ms.end(), after.checkpoint_ms.begin(),
                 after.checkpoint_ms.end());
  if (traced) {
    rep->Layer("obs.bench_trace_overhead",
               Median(before.traced_us) / Median(before.untraced_us) - 1.0);
  }
  rep->Layer("exec.trylock_failures_per_batch",
             per(before.trylock + after.trylock, n_match));
  rep->Layer("exec.ready_pop_retries_per_batch",
             per(before.pop_retries + after.pop_retries, n_match));
  rep->Layer("exec.epoch_grace_waits", static_cast<double>(d.grace_waits));
  rep->Layer("durability.records_per_sync", per(d.records, d.syncs));
  rep->Layer("durability.wal_bytes_per_write",
             per(d.wal_bytes, before.writes + after.writes));
  rep->Layer("durability.checkpoints", static_cast<double>(d.checkpoints));
  rep->Layer("durability.checkpoint_ms", Median(ckpt_ms));
  rep->Layer("durability.replay_records",
             static_cast<double>(rs.wal_records_scanned));
  rep->Layer("durability.replay_ms", rs.replay_ms);
  rep->Layer("durability.live_segments_at_close",
             static_cast<double>(live_segments));
  rep->Layer("adapt.dimension_switches", static_cast<double>(d.switches));
  rep->Layer("adapt.subscriptions_migrated", static_cast<double>(d.migrated));
  rep->Layer("adapt.migration_call_us_max",
             std::max(before.migration_call_us_max,
                      after.migration_call_us_max));
  rep->Layer("adapt.visits_per_event_before_restart",
             per(before.visits_second, before.events_second));
  rep->Layer("adapt.visits_per_event_after_restart",
             per(after.visits_second, after.events_second));
}

}  // namespace perfbench
