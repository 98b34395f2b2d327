#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "util/assert.hpp"

namespace fibbing::util {

/// Simulation time in seconds. The whole system is a fluid-level simulation,
/// so double precision is the natural representation; ties are broken by
/// insertion order (see EventQueue), never by comparing doubles for equality.
using SimTime = double;

/// Opaque handle for cancelling a scheduled event.
struct EventHandle {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const { return id != 0; }
};

/// The scheduling surface a simulated component needs: a clock, deferred
/// callbacks, and cancellation. Implemented by the global EventQueue (the
/// single-threaded master clock) and by ShardPool's per-actor facades (a
/// sharded domain's routers each schedule onto their own shard's virtual
/// clock). Components written against this interface run unchanged in
/// either world.
class Scheduler {
 public:
  using Callback = std::function<void()>;

  virtual ~Scheduler() = default;

  /// Current simulation time; starts at 0.
  [[nodiscard]] virtual SimTime now() const = 0;

  /// Schedule `cb` to run at absolute time `at` (must be >= now()).
  virtual EventHandle schedule_at(SimTime at, Callback cb) = 0;

  /// Schedule `cb` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule_in(SimTime delay, Callback cb) {
    FIB_ASSERT(delay >= 0.0, "schedule_in: negative delay");
    return schedule_at(now() + delay, std::move(cb));
  }

  /// Cancel a pending event. Returns false (no-op) if the event already
  /// fired, was already cancelled, or the handle is invalid.
  virtual bool cancel(EventHandle h) = 0;

  /// Run `cb` on the driving thread: at once when the caller already is the
  /// driving thread (EventQueue), at the end of the current round when it
  /// is a shard worker (ShardPool::defer).
  virtual void defer(Callback cb) = 0;
};

/// Deterministic discrete-event scheduler.
///
/// Invariants:
///  - events fire in non-decreasing time order;
///  - events scheduled at the same instant fire in scheduling order
///    (FIFO), which makes runs reproducible;
///  - an event may schedule further events, including at the current time.
///
/// Threading contract: **driving-thread-only**, deliberately unannotated.
/// EventQueue is the master clock; every call (schedule_at, cancel, defer,
/// step, run_*) happens on the thread driving the simulation, so defer()
/// runs its callback at once. Shard workers never see it: a sharded
/// domain's routers schedule through ShardPool's per-actor Scheduler
/// facades, which route cross-thread traffic into lock-guarded inboxes and
/// deferred callbacks into per-shard queues (see shard_pool.hpp), and
/// ShardPool runs those callbacks on the driving thread at the round
/// barrier, before the domain pumps this queue again. So the scheduler
/// boundary the facades cross is ShardPool::schedule — the annotated,
/// -Wthread-safety-checked surface — and adding a mutex here would only
/// mask an architecture violation that FIB_ASSERTs and TSan are meant to
/// catch loudly.
class EventQueue final : public Scheduler {
 public:
  using Callback = Scheduler::Callback;

  /// Current simulation time; starts at 0.
  [[nodiscard]] SimTime now() const override { return now_; }

  /// Schedule `cb` to run at absolute time `at` (must be >= now()).
  EventHandle schedule_at(SimTime at, Callback cb) override;

  /// Cancel a pending event. Returns false (no-op) if the event already
  /// fired, was already cancelled, or the handle is invalid.
  bool cancel(EventHandle h) override;

  /// The caller is the driving thread: run `cb` now.
  void defer(Callback cb) override { cb(); }

  /// Run a single event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or `horizon` is passed (events strictly
  /// after the horizon remain queued; now() advances to the horizon so
  /// subsequent schedule_in calls are relative to it).
  void run_until(SimTime horizon);

  /// Run until the queue is empty.
  void run();

  [[nodiscard]] std::size_t pending() const { return live_.size(); }
  [[nodiscard]] bool empty() const { return live_.empty(); }

 private:
  struct Item {
    SimTime at;
    std::uint64_t seq;  // tie-break: FIFO at equal times
    std::uint64_t id;
    Callback cb;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  bool fire_next_();

  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  std::unordered_set<std::uint64_t> live_;  // scheduled, not yet fired/cancelled
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
};

}  // namespace fibbing::util
