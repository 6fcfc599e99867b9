// Tests of the benchmark's statistics: percentile selection and its
// ten-samples-beyond support rule, open-loop latency from due times, and
// span self time. Run: python3 perfbench/run.py --self-test
#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                 \
    }                                                             \
  } while (0)

using namespace perfbench;

void TestNearestRankAndSupport() {
  EXPECT(NearestRank(0, 50) == 0);
  EXPECT(NearestRank(1, 99) == 1);
  EXPECT(NearestRank(1000, 99) == 990);  // not 991: float error rounded away
  EXPECT(NearestRank(1000, 50) == 500);
  EXPECT(NearestRank(10, 100) == 10);
  // p99 needs 1000 samples for ten beyond it; 999 leaves nine.
  EXPECT(SamplesBeyond(1000, 99) == 10);
  EXPECT(PercentileSupported(1000, 99));
  EXPECT(SamplesBeyond(999, 99) == 9);
  EXPECT(!PercentileSupported(999, 99));
  EXPECT(PercentileSupported(20, 50));
  EXPECT(!PercentileSupported(19, 50));
  EXPECT(!PercentileSupported(0, 50));
}

void TestPercentileValues() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  std::vector<double> a = v;
  EXPECT(Percentile(&a, 99) == 990);
  a = v;
  EXPECT(Percentile(&a, 50) == 500);
  a = v;
  EXPECT(Percentile(&a, 100) == 1000);
  std::vector<double> empty;
  EXPECT(Percentile(&empty, 50) == 0);
  EXPECT(Median({3, 1, 2}) == 2);
}

void TestWindows() {
  // 10 windows of 1000 samples; one window is a stall of huge values. The
  // plain p99 lands in the stall, the median over windows does not.
  std::vector<double> v;
  for (int k = 0; k < 10; ++k) {
    for (int i = 1; i <= 1000; ++i) v.push_back(k == 3 ? 1e6 : i);
  }
  std::vector<double> all = v;
  EXPECT(Percentile(&all, 99) == 1e6);
  EXPECT(MedianWindowPercentile(v, 99, 10) == 990);
  // Too few samples for ten windows with ten beyond p99: falls back to
  // fewer, larger windows (here one, the plain percentile).
  std::vector<double> small(v.begin(), v.begin() + 1500);
  std::vector<double> small_copy = small;
  EXPECT(MedianWindowPercentile(small, 99, 10) ==
         Percentile(&small_copy, 99));

  // Rates: 1 unit per 100 us except a slow stretch; median ignores it.
  std::vector<double> units(100, 1.0);
  std::vector<double> us(100, 100.0);
  for (int i = 20; i < 30; ++i) us[i] = 1000.0;
  EXPECT(MedianWindowRate(units, us, 10) == 10000.0);
  // Operations worth no units (writes beside queries) still take time.
  units[1] = 0.0;
  EXPECT(MedianWindowRate(units, us, 1) < 100.0 / (10 * 1000 + 90 * 100) * 1e6);
}

void TestDueTimeLatency() {
  // Events due every 100 us; a stall holds all three until 500 us. Each is
  // charged from its own due time, so the stall counts against all of
  // them, most against the earliest.
  const std::vector<int64_t> due = {0, 100000, 200000};
  const std::vector<int64_t> done = {500000, 510000, 520000};
  const std::vector<double> us = DueTimeLatenciesUs(due, done);
  EXPECT(us.size() == 3);
  EXPECT(us[0] == 500.0);
  EXPECT(us[1] == 410.0);
  EXPECT(us[2] == 320.0);
  // Timing from dispatch instead would report the same 0-20 us for all
  // three; due-time latency is never below it.
  EXPECT(us[2] > (done[2] - 500000) / 1000.0);
}

void TestSelfTime() {
  // 1: root [0,100]; 2,3 overlap inside it; 4 sticks out past its end;
  // 5 is a child of 2 and must not count against the root again.
  std::vector<SpanRecord> s(5);
  s[0] = {"bench.loop", 1, 0, 0, 0, 100};
  s[1] = {"sdi.MatchBatch", 2, 1, 7, 10, 30};
  s[2] = {"sdi.MatchBatch", 3, 1, 8, 20, 40};
  s[3] = {"core.Execute", 4, 1, 9, 90, 120};
  s[4] = {"sdi.sink_emit", 5, 2, 7, 12, 18};
  const std::vector<int64_t> self = SelfTimesNs(s);
  EXPECT(self[0] == 100 - 30 - 10);  // covered: [10,40] and [90,100]
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 20);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 6);
  const auto by_name = SelfTimeByName(s);
  EXPECT(by_name.size() == 4);
  EXPECT(by_name[1].first == "sdi.MatchBatch");
  EXPECT(by_name[1].second == 14 + 20);
}

}  // namespace

int main() {
  TestNearestRankAndSupport();
  TestPercentileValues();
  TestWindows();
  TestDueTimeLatency();
  TestSelfTime();
  if (failures == 0) std::printf("perfbench_stats_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
