// util::WorkerPool, the thread barrier util::ShardPool runs its rounds
// through. This suite is deliberately thread-heavy: the TSan CI job runs it
// to prove the pool's handoff protocol race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <vector>

#include "util/worker_pool.hpp"

namespace fibbing {
namespace {

TEST(WorkerPool, SingleWorkerRunsInlineAndInOrder) {
  util::WorkerPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::vector<std::size_t> order;
  pool.run(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, ZeroCountIsANoOp) {
  util::WorkerPool pool(4);
  std::atomic<int> calls{0};
  pool.run(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(WorkerPool, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kTasks = 500;
  util::WorkerPool pool(8);
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPool, ResultsVisibleToCallerAfterRun) {
  // run() is a synchronization point: per-slot writes made by workers must
  // be visible to the caller without further locking (ShardPool reads each
  // shard's round results exactly this way).
  util::WorkerPool pool(4);
  std::vector<int> slots(64, 0);
  pool.run(slots.size(), [&](std::size_t i) { slots[i] = static_cast<int>(i) + 1; });
  EXPECT_EQ(std::accumulate(slots.begin(), slots.end(), 0), 64 * 65 / 2);
}

TEST(WorkerPool, ReusableAcrossManyRuns) {
  util::WorkerPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run(7, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 50 * 7);
}

TEST(WorkerPool, MoreWorkersThanTasks) {
  util::WorkerPool pool(8);
  std::atomic<int> calls{0};
  pool.run(2, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 2);
}

}  // namespace
}  // namespace fibbing
