#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"

namespace accl {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  exec::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsOnCaller) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  EXPECT_EQ(pool.concurrency(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(16);
  pool.ParallelFor(ran.size(),
                   [&](size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  exec::ThreadPool pool(2);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(10, [&](size_t i) { sum.fetch_add(i + 1); });
  }
  EXPECT_EQ(sum.load(), 50u * 55u);
}

TEST(ThreadPool, DestructorDrainsSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    exec::ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool joins only after the queue is empty
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ParallelForFromMultipleCallers) {
  // Two caller threads sharing one pool: per-call completion tracking must
  // not cross wires even when callers help drain each other's tasks.
  exec::ThreadPool pool(2);
  std::atomic<uint64_t> a{0}, b{0};
  std::thread t1(
      [&] { pool.ParallelFor(500, [&](size_t) { a.fetch_add(1); }); });
  std::thread t2(
      [&] { pool.ParallelFor(500, [&](size_t) { b.fetch_add(1); }); });
  t1.join();
  t2.join();
  EXPECT_EQ(a.load(), 500u);
  EXPECT_EQ(b.load(), 500u);
}

}  // namespace
}  // namespace accl
