#include "util/worker_pool.hpp"

#include "util/assert.hpp"

namespace fibbing::util {

WorkerPool::WorkerPool(std::size_t workers) {
  if (workers <= 1) return;
  threads_.reserve(workers - 1);
  for (std::size_t t = 0; t + 1 < workers; ++t) {
    threads_.emplace_back([this] { wait_and_drain_(); });
  }
}

WorkerPool::~WorkerPool() {
  if (!threads_.empty()) {
    {
      MutexLock lock(mu_);
      stopping_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

void WorkerPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  FIB_ASSERT(fn != nullptr, "WorkerPool::run: null job");
  if (count == 0) return;
  if (threads_.empty()) {
    // Single-worker pool: the deterministic reference execution -- in
    // order, inline, no other thread exists.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  {
    MutexLock lock(mu_);
    FIB_ASSERT(job_ == nullptr, "WorkerPool::run: not reentrant");
    job_ = &fn;
    job_count_ = count;
    next_index_ = 0;
    unfinished_ = count;
    ++generation_;
  }
  cv_work_.notify_all();
  // The caller is a full participant: it claims indices alongside the
  // workers and only then blocks for the stragglers.
  drain_();
  // Explicit wait loop (not the predicate overload): the guarded read of
  // unfinished_ must sit in this scope for -Wthread-safety to see the
  // capability is held.
  UniqueMutexLock lock(mu_);
  while (unfinished_ != 0) cv_done_.wait(lock.native());
  job_ = nullptr;
  job_count_ = 0;
}

void WorkerPool::drain_() {
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t index = 0;
    {
      MutexLock lock(mu_);
      if (job_ == nullptr || next_index_ >= job_count_) return;
      fn = job_;
      index = next_index_++;
    }
    (*fn)(index);
    {
      MutexLock lock(mu_);
      if (--unfinished_ == 0) cv_done_.notify_one();
    }
  }
}

void WorkerPool::wait_and_drain_() {
  std::uint64_t seen_gen = 0;
  for (;;) {
    {
      // Explicit wait loop for the same -Wthread-safety reason as run().
      UniqueMutexLock lock(mu_);
      while (!stopping_ && generation_ == seen_gen) cv_work_.wait(lock.native());
      if (stopping_) return;
      seen_gen = generation_;
    }
    drain_();
  }
}

}  // namespace fibbing::util
