// Statistics the benchmark reports: nearest-rank percentiles with their
// support, open-loop latencies measured from due times, and span self time.
// Header-only so stats_test.cc can check it without the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples:
/// the smallest rank r with r >= p/100 * n. 0 when there are no samples.
inline size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  const double exact = p / 100.0 * static_cast<double>(n);
  // Round away the float error of p/100*n before taking the ceiling, so
  // p99 of 1000 samples is rank 990, not 991.
  size_t r = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::min(std::max<size_t>(r, 1), n);
}

/// Samples strictly above the percentile's rank; a percentile is only
/// reported as such when at least ten samples lie beyond it.
inline size_t SamplesBeyond(size_t n, double p) {
  return n - NearestRank(n, p);
}

inline bool PercentileSupported(size_t n, double p) {
  return n > 0 && SamplesBeyond(n, p) >= 10;
}

/// Nearest-rank percentile of `v` (reordered in place); 0 when empty.
inline double Percentile(std::vector<double>* v, double p) {
  const size_t r = NearestRank(v->size(), p);
  if (r == 0) return 0.0;
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(r - 1),
                   v->end());
  return (*v)[r - 1];
}

/// Median of a copy (for small per-repetition vectors).
inline double Median(std::vector<double> v) { return Percentile(&v, 50.0); }

/// Percentile `p` taken over each of up to `max_windows` consecutive,
/// equal-count chunks of `v` (in recording order), then the median of
/// those: a stall that hits one stretch of the run moves one window, not
/// the result. Chunks are never so small that fewer than ten samples lie
/// beyond `p`; with too few samples for two chunks this is the plain
/// percentile.
inline double MedianWindowPercentile(const std::vector<double>& v, double p,
                                     size_t max_windows) {
  size_t w = std::max<size_t>(1, max_windows);
  while (w > 1 && !PercentileSupported(v.size() / w, p)) --w;
  std::vector<double> per;
  for (size_t k = 0; k < w; ++k) {
    std::vector<double> chunk(v.begin() + k * v.size() / w,
                              v.begin() + (k + 1) * v.size() / w);
    per.push_back(Percentile(&chunk, p));
  }
  return Median(per);
}

/// Rate over each of `windows` consecutive, equal-count chunks of
/// operations — `units[i]` of work done in `us[i]` microseconds — then the
/// median of those rates, in units per second.
inline double MedianWindowRate(const std::vector<double>& units,
                               const std::vector<double>& us, size_t windows) {
  const size_t n = std::min(units.size(), us.size());
  const size_t w = std::max<size_t>(1, std::min(windows, n));
  std::vector<double> per;
  for (size_t k = 0; k < w; ++k) {
    double done = 0.0;
    double time = 0.0;
    for (size_t i = k * n / w; i < (k + 1) * n / w; ++i) {
      done += units[i];
      time += us[i];
    }
    if (time > 0.0) per.push_back(done / time * 1e6);
  }
  return per.empty() ? 0.0 : Median(per);
}

/// Open-loop latency: each event is timed from when it was *due*, not from
/// when it was dispatched, so a stall charges every event queued behind it.
/// `due_ns[i]` and `done_ns[i]` are on one clock; the result is in us.
inline std::vector<double> DueTimeLatenciesUs(
    const std::vector<int64_t>& due_ns, const std::vector<int64_t>& done_ns) {
  std::vector<double> out(due_ns.size());
  for (size_t i = 0; i < due_ns.size(); ++i) {
    out[i] = static_cast<double>(done_ns[i] - due_ns[i]) / 1000.0;
  }
  return out;
}

/// One timed call recorded by the benchmark's tracer.
struct SpanRecord {
  const char* name = "";
  uint32_t id = 0;      ///< 1-based position in the recorder
  uint32_t parent = 0;  ///< 0 = root
  uint64_t group = 0;   ///< spans of one operation, event or batch share it
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers (children may overlap
/// when they ran on several threads). Indexed like `spans`; ids are
/// 1-based positions, parents refer to earlier or later entries alike.
inline std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent == 0 || s.parent > spans.size()) continue;
    const SpanRecord& p = spans[s.parent - 1];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) kids[s.parent - 1].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

/// Self time summed per span name, in recording order of first appearance.
inline std::vector<std::pair<std::string, int64_t>> SelfTimeByName(
    const std::vector<SpanRecord>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::vector<std::pair<std::string, int64_t>> out;
  std::unordered_map<std::string, size_t> at;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto [it, fresh] = at.emplace(spans[i].name, out.size());
    if (fresh) out.emplace_back(spans[i].name, 0);
    out[it->second].second += self[i];
  }
  return out;
}

}  // namespace perfbench
