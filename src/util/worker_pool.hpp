#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace fibbing::util {

/// Fixed pool of persistent worker threads running parallel-for batches:
/// `run(count, fn)` executes fn(0) .. fn(count-1) across the pool and
/// returns when every index has completed. It is the tree's one thread
/// barrier: util::ShardPool runs each round's shards through one (one shard
/// per index).
///
/// Determinism contract: the pool makes no ordering promises between
/// indices -- callers must make each fn(i) independent of the others (read
/// shared immutable state, write only state owned by index i) and impose
/// any order-sensitive effects themselves after run() returns. Under that
/// contract results are bit-identical for every worker count, including the
/// degenerate one: with `workers <= 1` no thread is spawned and run()
/// executes the indices in order, inline on the caller -- the
/// single-threaded configuration really is single-threaded.
///
/// Thread-shared state is annotated (`FIB_GUARDED_BY`) per ROADMAP's
/// maintenance contract 1; Clang's -Wthread-safety proves the
/// annotations and the TSan CI job races the pool for real.
class WorkerPool {
 public:
  /// Spawns `workers - 1` threads when `workers > 1` (the calling thread
  /// participates in every batch, so `workers` is the true concurrency).
  explicit WorkerPool(std::size_t workers);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// The concurrency level: spawned threads + the participating caller.
  [[nodiscard]] std::size_t worker_count() const { return threads_.size() + 1; }

  /// Run fn(i) for every i in [0, count). fn is invoked concurrently from
  /// up to worker_count() threads; the call returns only after the last
  /// index finished. Not reentrant: one batch at a time.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void wait_and_drain_();
  /// Claim-and-execute loop shared by workers and the caller: grabs the
  /// next unclaimed index until the published batch is drained. Acquires
  /// mu_ internally per claim; runs fn unlocked.
  void drain_();

  Mutex mu_;
  std::condition_variable cv_work_;  ///< workers: a batch was published
  std::condition_variable cv_done_;  ///< caller: the last index completed
  const std::function<void(std::size_t)>* job_ FIB_GUARDED_BY(mu_) = nullptr;
  // lint:obs-registered-ok(transient per-run job width, not a metric)
  std::size_t job_count_ FIB_GUARDED_BY(mu_) = 0;
  std::size_t next_index_ FIB_GUARDED_BY(mu_) = 0;
  std::size_t unfinished_ FIB_GUARDED_BY(mu_) = 0;
  std::uint64_t generation_ FIB_GUARDED_BY(mu_) = 0;
  bool stopping_ FIB_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace fibbing::util
