// Shared plumbing of the benchmark's workloads: the clock, the span
// tracer, the metric report, and the workload entry points.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace accl {
class SubscriptionEngine;
}

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double UsBetween(int64_t a, int64_t b) {
  return static_cast<double>(b - a) / 1000.0;
}

/// In-memory span recorder for the traced run. Spans wrap the benchmark's
/// own calls into a layer; nothing inside the program is instrumented.
/// Recording is off in the untraced run (Begin then returns an empty span
/// and End does nothing). Thread-safe: ids come from an atomic counter and
/// finished spans are appended under a mutex.
class Tracer {
 public:
  struct Open {
    const char* name = nullptr;
    uint32_t id = 0;
    uint32_t parent = 0;
    uint64_t group = 0;
    int64_t start_ns = 0;
  };

  static Tracer& Get() {
    static Tracer t;
    return t;
  }

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void SetOn(bool on) { on_.store(on, std::memory_order_relaxed); }

  Open Begin(const char* name, uint32_t parent, uint64_t group) {
    if (!on()) return {};
    return Open{name, next_id_.fetch_add(1) + 1, parent, group, NowNs()};
  }
  void End(const Open& s) {
    if (s.id != 0) Store(s, NowNs());
  }
  /// Records a span whose interval was measured elsewhere (e.g. a sink
  /// emission stamped on a pool worker). Returns its id (0 when off).
  uint32_t Add(const char* name, uint32_t parent, uint64_t group,
               int64_t start_ns, int64_t end_ns) {
    if (!on()) return 0;
    const Open s{name, next_id_.fetch_add(1) + 1, parent, group, start_ns};
    Store(s, end_ns);
    return s.id;
  }

  /// Finished spans ordered by id, re-numbered densely (parents of spans
  /// dropped at the cap become roots). Call once recording has stopped.
  std::vector<SpanRecord> Collect(uint64_t* dropped) const;
  /// Writes the spans and the per-name and per-layer self-time tables to
  /// `path` as one JSON object; prints the tables. False on I/O failure.
  bool WriteOut(const std::string& path) const;

 private:
  static constexpr size_t kMaxSpans = 1u << 18;
  void Store(const Open& s, int64_t end_ns) {
    std::lock_guard<std::mutex> lk(mu_);
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back(
        SpanRecord{s.name, s.id, s.parent, s.group, s.start_ns, end_ns});
  }

  std::atomic<bool> on_{false};
  std::atomic<uint32_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  uint64_t dropped_ = 0;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint32_t parent, uint64_t group)
      : s_(Tracer::Get().Begin(name, parent, group)) {}
  ~ScopedSpan() { Tracer::Get().End(s_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return s_.id; }

 private:
  Tracer::Open s_;
};

/// Everything one run reports. End-to-end metrics land in the JSON line of
/// the untraced run, per-layer metrics in that of the traced run; the
/// workload's named figures (what it measures beyond the shared set)
/// are printed as text in both.
class Report {
 public:
  void EndToEnd(const std::string& name, double v) { Put(&e2e_, name, v); }
  void Layer(const std::string& name, double v) { Put(&layer_, name, v); }
  /// A named workload figure; `n` is its sample count (0 = not a sample
  /// statistic).
  void Figure(const std::string& name, double v, const char* unit,
              size_t n = 0);
  void Info(const std::string& line);

  /// Operations attempted and failed (errored, refused or answered wrong).
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  void Fail(const std::string& why);

  /// Prints the per-layer or end-to-end table and, last, the JSON result
  /// line. Returns the process exit code (non-zero on any failure).
  int Finish(bool trace) const;

 private:
  struct Value {
    std::string name;
    double v;
  };
  static void Put(std::vector<Value>* to, const std::string& name, double v);

  std::vector<Value> e2e_;
  std::vector<Value> layer_;
  mutable std::mutex fail_mu_;
  uint64_t fail_lines_ = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Workload entry points; each fills `rep` and returns normally (failures
/// are counted in `rep`, not thrown).
void RunIndexSelect(const Args& args, Report* rep);
void RunPubsubMatch(const Args& args, Report* rep);
void RunPubsubChurn(const Args& args, Report* rep);

/// True when every shard's last AC reorganization pass made no split and
/// no merge: the engine's clusterings have settled for the current traffic.
bool ShardsQuiet(const accl::SubscriptionEngine& e);

/// Closed-loop work counted against a deadline: true while `now` is before
/// `deadline_ns`.
inline bool Before(int64_t deadline_ns) { return NowNs() < deadline_ns; }

/// Sets up `reps` times, keeping the last instance and the median setup
/// time. `make` builds an instance and returns it; the earlier ones are
/// destroyed before the next is built.
template <typename Make>
auto RepeatedSetup(int reps, double* setup_s, Make make) -> decltype(make()) {
  std::vector<double> times;
  decltype(make()) kept{};
  for (int r = 0; r < reps; ++r) {
    kept = decltype(make()){};
    const int64_t t0 = NowNs();
    kept = make();
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  *setup_s = Median(times);
  return kept;
}

}  // namespace perfbench
