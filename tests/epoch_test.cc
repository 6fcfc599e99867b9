// Unit tests for the epoch grace-period subsystem (exec/epoch.h):
// pin/unpin slot protocol, Synchronize blocking exactly while a
// pre-advance pin is held (reentrant pins, pins in grown slot blocks),
// slot-pool growth under more concurrent pins than slots, and the
// counters the engine's observability surfaces.
#include "exec/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

namespace accl::exec {
namespace {

/// Runs Synchronize on a helper thread while the caller still holds a pin:
/// the helper must not return for a while (ample opportunity to finish
/// incorrectly), and must return once `release` drops the last pin.
void ExpectSynchronizeWaitsFor(EpochManager& em,
                               const std::function<void()>& release) {
  std::atomic<bool> done{false};
  std::thread sync([&] {
    em.Synchronize();
    done.store(true);
  });
  for (int i = 0; i < 20 && !done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(done.load()) << "Synchronize returned while a pin was held";
  release();
  sync.join();
  EXPECT_TRUE(done.load());
}

TEST(Epoch, PinReportsCurrentEpochAndReleases) {
  EpochManager em;
  const uint64_t e0 = em.current_epoch();
  EXPECT_GE(e0, 1u);  // 0 is the quiescent sentinel and never a real epoch
  {
    EpochManager::Guard g = em.Pin();
    EXPECT_TRUE(g.pinned());
    EXPECT_EQ(g.epoch(), e0);
  }
  EXPECT_EQ(em.stats().pins, 1u);
}

TEST(Epoch, GuardMoveTransfersThePin) {
  EpochManager em;
  EpochManager::Guard a = em.Pin();
  const uint64_t e = a.epoch();
  EpochManager::Guard b = std::move(a);
  EXPECT_FALSE(a.pinned());  // NOLINT(bugprone-use-after-move): tested
  EXPECT_TRUE(b.pinned());
  EXPECT_EQ(b.epoch(), e);
  b.Release();
  EXPECT_FALSE(b.pinned());
  b.Release();  // double release is a no-op
}

TEST(Epoch, ReentrantPinsOccupyDistinctSlots) {
  EpochManager em;
  EpochManager::Guard a = em.Pin();
  EpochManager::Guard b = em.Pin();  // same thread, second slot
  EXPECT_TRUE(a.pinned());
  EXPECT_TRUE(b.pinned());
  a.Release();
  // b still pins its own slot: a grace period must wait for it alone.
  ExpectSynchronizeWaitsFor(em, [&] { b.Release(); });
}

TEST(Epoch, SynchronizeAdvancesEpochAndCountsTheGracePeriod) {
  EpochManager em;
  const uint64_t e0 = em.current_epoch();
  em.Synchronize();  // nobody pinned: returns without waiting
  EXPECT_GT(em.current_epoch(), e0);
  EXPECT_EQ(em.stats().synchronizes, 1u);
  EXPECT_EQ(em.stats().grace_waits, 1u);
}

TEST(Epoch, SynchronizeWaitsForOldEpochReaders) {
  EpochManager em;
  EpochManager::Guard reader = em.Pin();
  ExpectSynchronizeWaitsFor(em, [&] { reader.Release(); });
}

TEST(Epoch, NewEpochReadersDoNotBlockSynchronize) {
  // A reader that pins AFTER the bump must not extend the grace period:
  // pin a post-bump reader from inside the wait loop by racing Synchronize
  // against a pin-release treadmill. If Synchronize waited for new-epoch
  // readers it would livelock here.
  EpochManager em;
  std::atomic<bool> stop{false};
  std::thread treadmill([&] {
    while (!stop.load()) {
      EpochManager::Guard g = em.Pin();
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 50; ++i) em.Synchronize();
  stop.store(true);
  treadmill.join();
  EXPECT_EQ(em.stats().synchronizes, 50u);
}

TEST(Epoch, SlotPoolGrowsBeyondOneBlock) {
  // More simultaneous pins than one block holds (32): every pin must still
  // succeed, and the grace-period scan must cover the grown blocks — the
  // last pin sits in the fourth block and alone keeps Synchronize waiting.
  EpochManager em;
  std::vector<EpochManager::Guard> guards;
  for (int i = 0; i < 100; ++i) guards.push_back(em.Pin());
  for (const EpochManager::Guard& g : guards) EXPECT_TRUE(g.pinned());
  for (size_t i = 0; i + 1 < guards.size(); ++i) guards[i].Release();
  ExpectSynchronizeWaitsFor(em, [&] { guards.back().Release(); });
}

TEST(Epoch, ConcurrentPinnersNeverLoseASlot) {
  EpochManager em(4);  // deliberately undersized: force the grow path
  constexpr int kThreads = 16;
  constexpr int kItersPerThread = 2000;
  std::atomic<uint64_t> pinned_total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; ++i) {
        EpochManager::Guard g = em.Pin();
        EXPECT_TRUE(g.pinned());
        pinned_total.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pinned_total.load(), uint64_t{kThreads} * kItersPerThread);
  EXPECT_EQ(em.stats().pins, uint64_t{kThreads} * kItersPerThread);
}

TEST(Epoch, ConcurrentSynchronizersAndPinnersAllFinish) {
  EpochManager em;
  constexpr int kSynchronizers = 4;
  constexpr int kPerThread = 100;
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kSynchronizers; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) em.Synchronize();
      });
    }
    std::thread reader([&] {
      for (int i = 0; i < 200; ++i) {
        EpochManager::Guard g = em.Pin();
        std::this_thread::yield();
      }
    });
    for (auto& t : threads) t.join();
    reader.join();
  }
  EXPECT_EQ(em.stats().synchronizes, uint64_t{kSynchronizers} * kPerThread);
  EXPECT_EQ(em.stats().grace_waits, uint64_t{kSynchronizers} * kPerThread);
}

}  // namespace
}  // namespace accl::exec
