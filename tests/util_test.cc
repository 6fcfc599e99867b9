#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/rng.h"
#include "util/serialize.h"
#include "util/summary.h"
#include "util/timer.h"

namespace accl {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    double x = r.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, FloatInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    float x = r.NextFloat();
    EXPECT_GE(x, 0.0f);
    EXPECT_LT(x, 1.0f);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double x = r.Uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, NextBelowBoundsAndCoverage) {
  Rng r(13);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.NextBelow(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit in 1000 draws
}

TEST(Rng, NextBelowOne) {
  Rng r(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.NextBelow(1), 0u);
}

TEST(Rng, MeanRoughlyHalf) {
  Rng r(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.NextBool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(SplitMix, AdvancesState) {
  uint64_t s = 0;
  uint64_t a = SplitMix64(&s);
  uint64_t b = SplitMix64(&s);
  EXPECT_NE(a, b);
  EXPECT_NE(s, 0u);
}

TEST(Summary, EmptyDefaults) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  // Sample variance with n-1 = 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, MergeMatchesSequential) {
  Summary a, b, all;
  for (int i = 0; i < 50; ++i) {
    double x = std::sin(i) * 10;
    (i % 2 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Summary, AddNMatchesRepeatedAdd) {
  // AddN(n, x) is the O(1) bulk form of n identical Add(x) calls — the
  // batched match path uses it to hold the stats lock O(1) per batch.
  Summary bulk, loop;
  bulk.Add(1.5);
  loop.Add(1.5);
  bulk.AddN(1000, 4.25);
  for (int i = 0; i < 1000; ++i) loop.Add(4.25);
  EXPECT_EQ(bulk.count(), loop.count());
  EXPECT_NEAR(bulk.mean(), loop.mean(), 1e-12);
  EXPECT_NEAR(bulk.variance(), loop.variance(), 1e-9);
  EXPECT_EQ(bulk.min(), loop.min());
  EXPECT_EQ(bulk.max(), loop.max());
  // n = 0 is a no-op, not a min/max or count perturbation.
  Summary untouched = bulk;
  bulk.AddN(0, -99.0);
  EXPECT_EQ(bulk.count(), untouched.count());
  EXPECT_EQ(bulk.min(), untouched.min());
}

TEST(Summary, MergeWithEmpty) {
  Summary a, empty;
  a.Add(3.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.mean(), 3.0);
}

TEST(Summary, ResetClears) {
  Summary s;
  s.Add(1.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(Summary, ToStringContainsCount) {
  Summary s;
  s.Add(1.5);
  EXPECT_NE(s.ToString().find("n=1"), std::string::npos);
}

TEST(Serialize, RoundTripScalars) {
  ByteWriter w;
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutF32(3.5f);
  w.PutF64(-2.25);
  w.PutU8(7);
  ByteReader r(w.bytes());
  uint32_t a;
  uint64_t b;
  float c;
  double d;
  uint8_t e;
  ASSERT_TRUE(r.GetU32(&a));
  ASSERT_TRUE(r.GetU64(&b));
  ASSERT_TRUE(r.GetF32(&c));
  ASSERT_TRUE(r.GetF64(&d));
  ASSERT_TRUE(r.GetU8(&e));
  EXPECT_EQ(a, 0xDEADBEEF);
  EXPECT_EQ(b, 0x0123456789ABCDEFull);
  EXPECT_EQ(c, 3.5f);
  EXPECT_EQ(d, -2.25);
  EXPECT_EQ(e, 7);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, UnderflowDetected) {
  ByteWriter w;
  w.PutU32(1);
  ByteReader r(w.bytes());
  uint64_t big;
  EXPECT_FALSE(r.GetU64(&big));
}

TEST(Serialize, BytesRoundTrip) {
  ByteWriter w;
  const char msg[] = "hello";
  w.PutBytes(msg, sizeof(msg));
  ByteReader r(w.bytes());
  char buf[sizeof(msg)];
  ASSERT_TRUE(r.GetBytes(buf, sizeof(buf)));
  EXPECT_STREQ(buf, "hello");
}

TEST(Timer, ElapsedNonNegativeAndMonotonic) {
  WallTimer t;
  double a = t.ElapsedMs();
  double b = t.ElapsedMs();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_NEAR(t.ElapsedSec() * 1000.0, t.ElapsedMs(), 50.0);
}

}  // namespace
}  // namespace accl
