// pubsub_match: read-only event matching through
// SubscriptionEngine::MatchBatch.
//
// 30k 6-d subscriptions (1.6 MB, fits a core's 2 MiB L2) in 8 kHashId
// shards; events half point, half range, in batches of 256. Every event
// visits every shard, so shard-mutex contention, the streamed pipeline and
// allocation churn dominate. Two phases: a closed loop with one caller,
// then an open loop at a fixed offered rate whose results are taken
// through a MatchSink and timed from each event's due time. Engine pool
// threads plus the caller equal nproc. Durability and adaptive routing are
// idle.
#include <algorithm>
#include <condition_variable>
#include <cmath>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/alloc_hook.h"
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

constexpr Dim kNd = 6;
constexpr size_t kSubs = 30000;
constexpr uint32_t kShards = 8;
constexpr size_t kBatch = 256;
constexpr size_t kPoolBatches = 32;  // the event pool the loops cycle over
constexpr size_t kPool = kPoolBatches * kBatch;
// Open-loop offered rate, fixed once at about half the closed-loop
// saturated events/s measured when the benchmark was defined (about 21 000
// events/s with two matcher threads on a 4-core Xeon, avx512 verify).
// Never recomputed per run.
constexpr double kOfferedEventsPerS = 10000.0;
constexpr int kSetupReps = 3;
constexpr size_t kMaxWarmupPasses = 8;
constexpr size_t kOracleEvery = 128;  // brute-force check of pool events
constexpr size_t kTraceSinkEvery = 8;  // batches whose emissions get spans
constexpr MatchPolicy kPolicy = MatchPolicy::kIntersecting;

uint64_t HashIds(Span<const ObjectId> ids) {
  uint64_t h = accl::kFnvOffsetBasis;
  for (const ObjectId id : ids) h = accl::Fnv1a(h, id);
  return accl::Fnv1a(h, ids.size());
}

accl::AttributeSchema UnitSchema() {
  accl::AttributeSchema s;
  for (Dim d = 0; d < kNd; ++d) s.AddAttribute("a" + std::to_string(d), 0, 1);
  return s;
}

struct Inputs {
  std::vector<Box> subs;
  std::vector<Event> events;  ///< kPool events
  std::vector<int64_t> due_ns;  ///< open-loop due offsets, per event
};

Inputs MakeInputs(uint64_t seed, double open_seconds) {
  Inputs in;
  accl::Rng rng(seed * 7919 + 11);
  for (size_t i = 0; i < kSubs; ++i) {
    Box b(kNd);
    for (Dim d = 0; d < kNd; ++d) {
      const float len = 0.25f * rng.NextFloat();
      const float start = (1.0f - len) * rng.NextFloat();
      b.set(d, start, start + len);
    }
    in.subs.push_back(std::move(b));
  }
  for (size_t i = 0; i < kPool; ++i) {
    if (i % 2 == 0) {
      std::vector<float> pt(kNd);
      for (float& x : pt) x = rng.NextFloat();
      in.events.push_back(Event::Point(std::move(pt)));
    } else {
      Box b(kNd);
      for (Dim d = 0; d < kNd; ++d) {
        const float len = 0.15f * rng.NextFloat();
        const float start = (1.0f - len) * rng.NextFloat();
        b.set(d, start, start + len);
      }
      in.events.push_back(Event::Range(std::move(b)));
    }
  }
  // Poisson arrivals at the offered rate, whole batches only.
  const size_t n = static_cast<size_t>(kOfferedEventsPerS * open_seconds) /
                   kBatch * kBatch;
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / kOfferedEventsPerS;
    in.due_ns.push_back(static_cast<int64_t>(t * 1e9));
  }
  return in;
}

std::unique_ptr<SubscriptionEngine> LoadEngine(const Inputs& in,
                                               uint32_t match_threads) {
  accl::EngineOptions o;
  o.shards = kShards;
  o.match_threads = match_threads;
  auto e = std::make_unique<SubscriptionEngine>(UnitSchema(), o);
  std::vector<accl::SubscriptionId> ids;
  e->SubscribeBatch(Span<const Box>(in.subs.data(), in.subs.size()), &ids);
  return e;
}

Span<const Event> PoolBatch(const Inputs& in, size_t b) {
  return Span<const Event>(in.events.data() + (b % kPoolBatches) * kBatch,
                           kBatch);
}

struct Instance {
  Inputs in;
  std::unique_ptr<SubscriptionEngine> engine;
  size_t warmup_passes = 0;
};

std::unique_ptr<Instance> SetUp(uint64_t seed, double open_seconds) {
  auto x = std::make_unique<Instance>();
  x->in = MakeInputs(seed, open_seconds);
  // Half the cores: pool threads plus the caller stay within nproc, and a
  // core taken by a neighbour on a shared host stalls a smaller fan-out.
  const unsigned threads =
      std::max(1u, std::thread::hardware_concurrency() / 2);
  x->engine = LoadEngine(x->in, threads);
  // Convergence: full pool passes until every shard's last reorganization
  // pass made no split and no merge.
  MatchBatchResult res;
  while (x->warmup_passes < kMaxWarmupPasses) {
    for (size_t b = 0; b < kPoolBatches; ++b) {
      x->engine->MatchBatch(PoolBatch(x->in, b), kPolicy, &res);
    }
    ++x->warmup_passes;
    if (ShardsQuiet(*x->engine)) break;
  }
  return x;
}

/// Stamps each event's emission and hashes its match set. The engine calls
/// it once per event index, possibly from several workers at once.
class TimedSink final : public accl::MatchSink {
 public:
  void Reset(size_t n) {
    emit_ns.assign(n, 0);
    done_ns.assign(n, 0);
    hash.assign(n, 0);
  }
  void OnEventMatches(size_t i, Span<const ObjectId> m, uint64_t) override {
    emit_ns[i] = NowNs();
    hash[i] = HashIds(m);
    done_ns[i] = NowNs();
  }
  std::vector<int64_t> emit_ns;
  std::vector<int64_t> done_ns;
  std::vector<uint64_t> hash;
};

struct ClosedStats {
  std::vector<double> batch_us;
  int64_t call_ns = 0;
  size_t events = 0;
  uint64_t visits = 0;
  uint64_t verified = 0;
  uint64_t matches = 0;
  double skew_sum = 0.0;
  uint64_t trylock = 0;
  uint64_t pop_retries = 0;
  uint64_t allocs = 0;
};

}  // namespace

bool ShardsQuiet(const SubscriptionEngine& e) {
  for (size_t s = 0; s < e.shard_count(); ++s) {
    const accl::ReorgStats& rs = e.shard_index(s).reorg_stats();
    if (rs.last_pass_splits != 0 || rs.last_pass_merges != 0) return false;
  }
  return true;
}

void RunPubsubMatch(const Args& args, Report* rep) {
  const double closed_s = args.seconds / 2.0;
  const double open_s = args.seconds / 2.0;
  const bool traced = Tracer::Get().on();
  Tracer::Get().SetOn(false);
  double setup_s = 0.0;
  std::unique_ptr<Instance> x = RepeatedSetup(
      kSetupReps, &setup_s, [&] { return SetUp(args.seed, open_s); });
  Tracer::Get().SetOn(traced);
  const Inputs& in = x->in;
  SubscriptionEngine& engine = *x->engine;
  rep->Info("pubsub_match: " + std::to_string(engine.subscription_count()) +
            " subscriptions, " + std::to_string(kShards) + " shards, " +
            std::to_string(x->warmup_passes) + " warm-up pool passes, " +
            "offered rate " + std::to_string(kOfferedEventsPerS) + " ev/s");

  // Per-event answer hashes of the pool; the first closed-loop pass sets
  // them, every later match of the same event must reproduce them.
  std::vector<uint64_t> want(kPool, 0);
  std::vector<bool> have(kPool, false);
  const auto check = [&](size_t pool_index, uint64_t h) {
    rep->attempted.fetch_add(1);
    if (!have[pool_index]) {
      want[pool_index] = h;
      have[pool_index] = true;
    } else if (want[pool_index] != h) {
      rep->Fail("pubsub_match: event " + std::to_string(pool_index) +
                " answered differently across passes");
    }
  };

  const uint64_t grace0 = engine.epoch_stats().grace_waits;
  // ---- Closed loop: one caller, back-to-back batches ----
  ClosedStats cs;
  MatchBatchResult res;
  double untraced_batch_ns = 0.0;
  {
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(closed_s * 1e9);
    // The traced run spends half of this phase untraced, to price tracing.
    const int64_t untraced_end =
        traced ? start + static_cast<int64_t>(closed_s * 0.5e9) : start;
    if (traced) Tracer::Get().SetOn(false);
    ScopedSpan phase("bench.closed_loop", 0, 0);
    size_t b = 0;
    size_t untraced_batches = 0;
    int64_t untraced_call_ns = 0;
    while (Before(end)) {
      if (traced && !Tracer::Get().on() && !Before(untraced_end)) {
        Tracer::Get().SetOn(true);
      }
      const uint64_t a0 = accl::obs::HeapAllocsNow();
      const int64_t t0 = NowNs();
      {
        ScopedSpan s("sdi.MatchBatch", phase.id(), b);
        engine.MatchBatch(PoolBatch(in, b), kPolicy, &res);
      }
      const int64_t t1 = NowNs();
      cs.allocs += accl::obs::HeapAllocsNow() - a0;
      if (traced && !Tracer::Get().on()) {
        ++untraced_batches;
        untraced_call_ns += t1 - t0;
      }
      cs.batch_us.push_back(UsBetween(t0, t1));
      cs.call_ns += t1 - t0;
      cs.events += kBatch;
      cs.visits += res.TotalShardVisits();
      cs.verified += res.total.objects_verified;
      uint64_t max_exec = 0;
      uint64_t sum_exec = 0;
      for (const accl::ShardMetrics& sm : res.per_shard) {
        max_exec = std::max(max_exec, sm.executions);
        sum_exec += sm.executions;
        cs.trylock += sm.try_lock_failures;
      }
      cs.skew_sum += sum_exec == 0 ? 1.0
                                   : static_cast<double>(max_exec) *
                                         static_cast<double>(kShards) /
                                         static_cast<double>(sum_exec);
      cs.pop_retries += res.ready_pop_retries;
      for (size_t e = 0; e < kBatch; ++e) {
        cs.matches += res.matches[e].size();
        check((b % kPoolBatches) * kBatch + e,
              HashIds(Span<const ObjectId>(res.matches[e].data(),
                                           res.matches[e].size())));
      }
      ++b;
    }
    if (traced && untraced_batches > 0) {
      untraced_batch_ns = static_cast<double>(untraced_call_ns) /
                          static_cast<double>(untraced_batches);
      const double traced_batch_ns =
          static_cast<double>(cs.call_ns - untraced_call_ns) /
          static_cast<double>(cs.batch_us.size() - untraced_batches);
      rep->Layer("obs.bench_trace_overhead",
                 traced_batch_ns / untraced_batch_ns - 1.0);
    }
  }
  // Saturated events/s: the median over ten stretches of the phase.
  const double events_per_s = MedianWindowRate(
      std::vector<double>(cs.batch_us.size(), kBatch), cs.batch_us, 10);

  // ---- Open loop: a generator releases each batch when its last event
  // is due; the caller matches it through a sink ----
  const size_t n_open = in.due_ns.size();
  const size_t open_batches = n_open / kBatch;
  std::vector<int64_t> done_ns(n_open, 0);
  std::vector<int64_t> start_ns(open_batches, 0);
  std::vector<int64_t> push_ns(open_batches, 0);
  int64_t t_base = 0;
  {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<size_t> ready;
    bool stop = false;
    ScopedSpan phase("bench.open_loop", 0, 0);
    t_base = NowNs() + 1000000;  // first due time 1 ms from now
    std::thread generator([&] {
      for (size_t b = 0; b < open_batches; ++b) {
        const int64_t due = t_base + in.due_ns[(b + 1) * kBatch - 1];
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        std::lock_guard<std::mutex> lk(mu);
        push_ns[b] = NowNs();
        ready.push_back(b);
        cv.notify_one();
      }
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
      cv.notify_one();
    });
    TimedSink sink;
    for (;;) {
      size_t b;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return stop || !ready.empty(); });
        if (ready.empty()) break;
        b = ready.front();
        ready.pop_front();
      }
      sink.Reset(kBatch);
      start_ns[b] = NowNs();
      uint32_t call_id;
      {
        ScopedSpan s("sdi.MatchBatch_sink", phase.id(), b);
        call_id = s.id();
        engine.MatchBatch(PoolBatch(in, b), kPolicy, &sink);
      }
      for (size_t e = 0; e < kBatch; ++e) {
        done_ns[b * kBatch + e] = sink.emit_ns[e];
        check((b % kPoolBatches) * kBatch + e, sink.hash[e]);
        if (b % kTraceSinkEvery == 0) {
          Tracer::Get().Add("sdi.sink_emit", call_id, b, sink.emit_ns[e],
                            sink.done_ns[e]);
        }
      }
    }
    generator.join();
  }
  const uint64_t grace_waits = engine.epoch_stats().grace_waits - grace0;
  std::vector<int64_t> due_abs(n_open);
  std::vector<double> queue_wait_us(n_open);
  std::vector<double> lag_us(open_batches);
  for (size_t i = 0; i < n_open; ++i) {
    due_abs[i] = t_base + in.due_ns[i];
    queue_wait_us[i] = UsBetween(due_abs[i], start_ns[i / kBatch]);
  }
  for (size_t b = 0; b < open_batches; ++b) {
    lag_us[b] = UsBetween(t_base + in.due_ns[(b + 1) * kBatch - 1], push_ns[b]);
  }
  std::vector<double> latency_us = DueTimeLatenciesUs(due_abs, done_ns);
  const double lat_p999 = MedianWindowPercentile(latency_us, 99.9, 10);
  std::vector<double> lat99 = latency_us;
  const double lat_p50 = Percentile(&latency_us, 50);
  const double lat_p99 = Percentile(&lat99, 99);

  // ---- Correctness: brute force on sampled pool events, and the same
  // stream on a caller-only engine (which also gives the single-thread
  // throughput) ----
  Tracer::Get().SetOn(false);
  for (size_t i = 0; i < kPool; i += kOracleEvery) {
    const Event& ev = in.events[i];
    std::vector<ObjectId> ids;
    for (size_t s = 0; s < in.subs.size(); ++s) {
      if (accl::Satisfies(in.subs[s].view(), ev.box.view(),
                          accl::Relation::kIntersects)) {
        ids.push_back(static_cast<ObjectId>(s));
      }
    }
    rep->attempted.fetch_add(1);
    if (HashIds(Span<const ObjectId>(ids.data(), ids.size())) != want[i]) {
      rep->Fail("pubsub_match: event " + std::to_string(i) +
                " differs from the brute-force answer");
    }
  }
  double single_events_per_s = 0.0;
  {
    std::unique_ptr<SubscriptionEngine> single = LoadEngine(in, 0);
    MatchBatchResult r1;
    int64_t call_ns = 0;
    for (size_t b = 0; b < kPoolBatches; ++b) {
      const int64_t t0 = NowNs();
      single->MatchBatch(PoolBatch(in, b), kPolicy, &r1);
      call_ns += NowNs() - t0;
      for (size_t e = 0; e < kBatch; ++e) {
        check(b * kBatch + e,
              HashIds(Span<const ObjectId>(r1.matches[e].data(),
                                           r1.matches[e].size())));
      }
    }
    single_events_per_s =
        static_cast<double>(kPool) / (static_cast<double>(call_ns) / 1e9);
  }

  const size_t nb = cs.batch_us.size();
  rep->EndToEnd("setup_s", setup_s);
  rep->EndToEnd("read_per_s", events_per_s);
  rep->EndToEnd("read_us_p50", lat_p50);
  rep->EndToEnd("read_us_tail", lat_p999);
  rep->Figure("setup_s", setup_s, "s");
  rep->Figure("match_events_per_s", events_per_s, "1/s", cs.events);
  rep->Figure("event_latency_us_p50", lat_p50, "us", n_open);
  rep->Figure("event_latency_us_p99", lat_p99, "us", n_open);
  rep->Figure("event_latency_us_p999", lat_p999, "us", n_open);
  if (!PercentileSupported(n_open, 99)) {
    rep->Info("event_latency_us_p99 has fewer than 10 samples beyond it");
  }

  const auto per = [](double a, double n) { return n == 0 ? 0.0 : a / n; };
  const double ev = static_cast<double>(cs.events);
  std::vector<double> batch99 = cs.batch_us;
  rep->Layer("sdi.batch_us_p50", Percentile(&cs.batch_us, 50));
  rep->Layer("sdi.batch_us_p99", Percentile(&batch99, 99));
  rep->Layer("sdi.shard_visits_per_event", per(cs.visits, ev));
  rep->Layer("sdi.objects_verified_per_event", per(cs.verified, ev));
  rep->Layer("sdi.match_precision", per(cs.matches, cs.verified));
  rep->Layer("sdi.shard_exec_skew", per(cs.skew_sum, nb));
  rep->Layer("sdi.queue_wait_us_p50", Percentile(&queue_wait_us, 50));
  rep->Layer("sdi.generator_lag_us_p99", Percentile(&lag_us, 99));
  rep->Layer("sdi.single_thread_events_per_s", single_events_per_s);
  rep->Layer("exec.trylock_failures_per_batch", per(cs.trylock, nb));
  rep->Layer("exec.ready_pop_retries_per_batch", per(cs.pop_retries, nb));
  rep->Layer("exec.heap_allocs_per_batch", per(cs.allocs, nb));
  rep->Layer("exec.epoch_grace_waits", static_cast<double>(grace_waits));
  rep->Info("batch p99 over " + std::to_string(nb) + " batches; generator " +
            "lag p99 over " + std::to_string(open_batches) + " batches");
}

}  // namespace perfbench
