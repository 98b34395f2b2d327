#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/event_queue.hpp"
#include "util/mutex.hpp"
#include "util/worker_pool.hpp"

namespace fibbing::util {

/// Deterministic sharded discrete-event engine.
///
/// Actors (the IGP's routers) are partitioned across shards; each shard owns
/// a heap of pending events (its virtual clock) and a lock-guarded inbox for
/// events scheduled into it from other shards mid-round. The driving thread
/// runs the simulation as a sequence of *rounds*: each round executes every
/// pending event at the globally earliest timestamp, all shards in parallel
/// through a util::WorkerPool (one shard per index, the driving thread
/// participating), then merges the inboxes once the pool's run() returns.
///
/// Determinism contract (the reason a sharded run is bit-identical to a
/// single-threaded one): events are ordered by the key
/// (time, origin actor, per-origin sequence number), never by wall-clock
/// arrival or global insertion order. Within a shard, events at one instant
/// fire in key order; across shards they run concurrently -- which is safe
/// because same-instant events on different actors touch disjoint state
/// (cross-actor effects travel as messages with strictly positive delay, a
/// precondition the scheduler asserts). Per-origin sequence numbers are
/// incremented only from the origin's own execution context, so they advance
/// identically for every shard count, and by induction so does the entire
/// execution.
///
/// Output that must leave a shard for the driving thread (a routing table
/// for the data plane, a packet for the controller session, a liveness
/// transition, a trace stamp) takes one path: defer(). The callback waits
/// in its shard's queue and runs on the driving thread at the end of the
/// round, in ascending actor order and each actor's in deferral order. An
/// actor's events at one instant run in key order for every shard count,
/// so that order is shard-count-invariant too.
///
/// Threading contract:
///  - schedule() may be called from the driving thread while no round is
///    running, or mid-round by the thread running a shard, on behalf of an
///    actor that shard owns;
///  - defer() only mid-round, by the thread running the actor's shard;
///  - everything else (run_round, next_time, has_pending, advance_to,
///    stats) is driving-thread-only, between rounds;
///  - the worker pool's batch barrier (run() returns only after every
///    shard finished) orders all cross-thread access to shard heaps,
///    deferred queues, actor state and sequence counters.
class ShardPool {
 public:
  using Callback = Scheduler::Callback;

  /// Origin id for events scheduled by the driving thread itself (the
  /// controller / domain API). Sorts after every real actor at one instant.
  static constexpr std::uint32_t kDriverActor = 0xffffffffu;

  /// `shard_count` is clamped to [1, actor_count]. With one shard no worker
  /// thread is spawned: rounds run inline on the driving thread, so the
  /// single-threaded configuration really is single-threaded.
  ShardPool(std::size_t shard_count, std::size_t actor_count);
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t actor_count() const { return actor_count_; }
  /// Contiguous block assignment: actor a lives on shard
  /// a * shard_count / actor_count (topology generators number nodes so
  /// that neighbors tend to be close, keeping most flooding intra-shard).
  [[nodiscard]] std::size_t shard_of(std::uint32_t actor) const;

  /// Schedule `cb` to run at absolute virtual time `at` on `target`'s
  /// shard, ordered by (at, origin, origin sequence). Cross-actor events
  /// must be strictly in the future (positive channel delay); self events
  /// may fire later within the current round.
  EventHandle schedule(std::uint32_t origin, std::uint32_t target, SimTime at,
                       Callback cb);

  /// Cancel a pending event of `actor` (same execution-context rules as
  /// schedule). Returns false if it already fired or was cancelled.
  bool cancel(std::uint32_t actor, EventHandle h);

  /// Queue `cb` to run on the driving thread once the current round's
  /// events are done (see the class comment for the order). Mid-round
  /// only, from the thread running `actor`'s shard.
  void defer(std::uint32_t actor, Callback cb);

  /// Per-actor util::Scheduler facade: self-targeted scheduling plus the
  /// shard's virtual clock, for components (neighbor sessions, SPF timers)
  /// written against the Scheduler interface.
  [[nodiscard]] Scheduler& actor_scheduler(std::uint32_t actor);

  // -- driving-thread API (never call mid-round) ---------------------------

  /// True when any event is pending anywhere.
  [[nodiscard]] bool has_pending();
  /// Earliest pending timestamp; has_pending() must hold.
  [[nodiscard]] SimTime next_time();
  /// Execute every pending event at next_time() (one instant, all shards in
  /// parallel), merge inboxes, then run the deferred callbacks. Returns the
  /// number of events run.
  std::size_t run_round();
  /// The pool's clock: the last round's instant, or wherever advance_to
  /// moved it while idle.
  [[nodiscard]] SimTime now() const { return now_; }
  /// Raise the clock to `t` without running anything (idle simulated time
  /// passing on the master clock). No pending event may predate `t`.
  void advance_to(SimTime t);

  struct Stats {
    std::uint64_t rounds = 0;
    std::uint64_t events_run = 0;
    std::uint64_t cross_shard_messages = 0;
  };
  [[nodiscard]] Stats stats();

 private:
  struct Item {
    SimTime at;
    std::uint32_t origin;
    std::uint64_t oseq;  // per-origin sequence: the deterministic tie-break
    Callback cb;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.origin != b.origin) return a.origin > b.origin;
      return a.oseq > b.oseq;
    }
  };
  struct Shard {
    // heap/live/deferred/executed are *barrier*-protected, not
    // mutex-protected: the thread running the shard touches them mid-round,
    // the driving thread between rounds, and the worker pool's batch
    // barrier provides the happens-before edge. Clang's analysis cannot
    // express that ownership hand-off, so only the inbox -- the one
    // genuinely concurrent surface, pushed by any worker while the owner
    // drains its heap -- is annotated.
    std::priority_queue<Item, std::vector<Item>, Later> heap;
    std::unordered_set<std::uint64_t> live;  // ids scheduled, not yet fired
    std::vector<std::pair<std::uint32_t, Callback>> deferred;  // (actor, cb)
    std::uint64_t executed = 0;
    Mutex inbox_mu;
    std::vector<Item> inbox FIB_GUARDED_BY(inbox_mu);
    std::uint64_t inbox_total FIB_GUARDED_BY(inbox_mu) = 0;
  };
  class ActorScheduler final : public Scheduler {
   public:
    ActorScheduler(ShardPool& pool, std::uint32_t actor)
        : pool_(pool), actor_(actor) {}
    [[nodiscard]] SimTime now() const override { return pool_.now_; }
    EventHandle schedule_at(SimTime at, Callback cb) override {
      return pool_.schedule(actor_, actor_, at, std::move(cb));
    }
    bool cancel(EventHandle h) override { return pool_.cancel(actor_, h); }
    void defer(Callback cb) override { pool_.defer(actor_, std::move(cb)); }

   private:
    ShardPool& pool_;
    std::uint32_t actor_;
  };

  std::uint64_t event_id_(std::uint32_t origin, std::uint64_t oseq) const;
  std::uint64_t next_oseq_(std::uint32_t origin);
  void run_shard_round_(Shard& shard, SimTime t);
  void prune_cancelled_(Shard& shard);
  void run_deferred_();

  // lint:obs-registered-ok(structural actor-table size, not a metric)
  std::size_t actor_count_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<ActorScheduler>> actor_schedulers_;
  /// Per-origin sequence counters (actors, then the driver last). Touched
  /// only from the origin's execution context; the round barrier publishes
  /// them across threads.
  std::vector<std::uint64_t> origin_seq_;
  SimTime now_ = 0.0;
  std::uint64_t rounds_ = 0;

  /// True exactly while a round is executing; schedule() uses it to
  /// distinguish driver-context (direct heap push is race-free) from
  /// round-context (cross-shard pushes go through the inbox), and defer()
  /// asserts it.
  std::atomic<bool> in_round_{false};

  /// Runs each round's shards in parallel (shard_count wide; one shard
  /// spawns no thread).
  WorkerPool workers_;
};

}  // namespace fibbing::util
