#include "util/shard_pool.hpp"

#include <algorithm>
#include <utility>

namespace fibbing::util {

namespace {
// Event ids pack (origin, per-origin seq) so they are unique *and*
// deterministic across runs and shard counts (cancellation decisions then
// replay identically too).
constexpr std::uint64_t kSeqBits = 40;
}  // namespace

ShardPool::ShardPool(std::size_t shard_count, std::size_t actor_count)
    : actor_count_(actor_count),
      origin_seq_(actor_count + 1, 0),
      workers_(std::max<std::size_t>(1, std::min(shard_count, actor_count))) {
  FIB_ASSERT(actor_count > 0, "ShardPool: no actors");
  FIB_ASSERT(actor_count < (1ull << (64 - kSeqBits)),
             "ShardPool: too many actors for id packing");
  shards_.reserve(workers_.worker_count());
  for (std::size_t s = 0; s < workers_.worker_count(); ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  actor_schedulers_.reserve(actor_count);
  for (std::uint32_t a = 0; a < actor_count; ++a) {
    actor_schedulers_.push_back(std::make_unique<ActorScheduler>(*this, a));
  }
}

std::size_t ShardPool::shard_of(std::uint32_t actor) const {
  FIB_ASSERT(actor < actor_count_, "shard_of: actor out of range");
  return static_cast<std::size_t>(actor) * shards_.size() / actor_count_;
}

std::uint64_t ShardPool::event_id_(std::uint32_t origin, std::uint64_t oseq) const {
  FIB_ASSERT(oseq < (1ull << kSeqBits), "ShardPool: origin sequence overflow");
  // The driver origin is mapped to the compact slot actor_count_ so the
  // packed id never loses high bits.
  const std::uint64_t slot =
      origin == kDriverActor ? actor_count_ : static_cast<std::uint64_t>(origin);
  return (slot << kSeqBits) | oseq;
}

std::uint64_t ShardPool::next_oseq_(std::uint32_t origin) {
  const std::size_t slot =
      origin == kDriverActor ? actor_count_ : static_cast<std::size_t>(origin);
  return ++origin_seq_[slot];
}

Scheduler& ShardPool::actor_scheduler(std::uint32_t actor) {
  FIB_ASSERT(actor < actor_count_, "actor_scheduler: actor out of range");
  return *actor_schedulers_[actor];
}

EventHandle ShardPool::schedule(std::uint32_t origin, std::uint32_t target,
                                SimTime at, Callback cb) {
  FIB_ASSERT(target < actor_count_, "schedule: target out of range");
  FIB_ASSERT(origin == kDriverActor || origin < actor_count_,
             "schedule: origin out of range");
  FIB_ASSERT(cb != nullptr, "schedule: null callback");
  const std::uint64_t oseq = next_oseq_(origin);
  const std::uint64_t id = event_id_(origin, oseq);
  Item item{at, origin, oseq, std::move(cb)};
  Shard& shard = *shards_[shard_of(target)];
  if (!in_round_.load(std::memory_order_relaxed)) {
    // Driving-thread context, no round running: direct push is race-free.
    FIB_ASSERT(at >= now_, "schedule: time in the past");
    shard.live.insert(id);
    shard.heap.push(std::move(item));
    return EventHandle{id};
  }
  // Round context. Same-actor (and same-shard) pushes go straight into the
  // running shard's own heap; anything crossing a shard boundary is queued
  // into the destination's lock-guarded inbox and merged at the barrier.
  // Either way a cross-actor event must sit strictly in the future -- that
  // positive channel delay is what makes same-instant actors independent,
  // and thereby the execution shard-count-invariant.
  if (origin == target) {
    FIB_ASSERT(at >= now_, "schedule: time in the past");
  } else {
    FIB_ASSERT(at > now_, "schedule: cross-actor event not strictly future");
  }
  if (origin != kDriverActor && shard_of(origin) == shard_of(target)) {
    shard.live.insert(id);
    shard.heap.push(std::move(item));
  } else {
    MutexLock lock(shard.inbox_mu);
    shard.inbox.push_back(std::move(item));
    ++shard.inbox_total;
  }
  return EventHandle{id};
}

bool ShardPool::cancel(std::uint32_t actor, EventHandle h) {
  if (!h.valid()) return false;
  FIB_ASSERT(actor < actor_count_, "cancel: actor out of range");
  // Only self-scheduled events (timers) are cancellable, so the id lives in
  // the actor's own shard and this runs in the owner's execution context.
  return shards_[shard_of(actor)]->live.erase(h.id) > 0;
}

void ShardPool::defer(std::uint32_t actor, Callback cb) {
  FIB_ASSERT(in_round_.load(std::memory_order_relaxed),
             "defer: no round running");
  FIB_ASSERT(cb != nullptr, "defer: null callback");
  shards_[shard_of(actor)]->deferred.emplace_back(actor, std::move(cb));
}

void ShardPool::run_deferred_() {
  std::vector<std::pair<std::uint32_t, Callback>> queued;
  for (const auto& shard : shards_) {
    for (auto& entry : shard->deferred) queued.push_back(std::move(entry));
    shard->deferred.clear();
  }
  // A shard runs its events in (origin, sequence) order, not by target, so
  // even one shard needs the sort; stability keeps each actor's own order.
  std::stable_sort(queued.begin(), queued.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& entry : queued) entry.second();
}

void ShardPool::prune_cancelled_(Shard& shard) {
  while (!shard.heap.empty() &&
         !shard.live.contains(event_id_(shard.heap.top().origin,
                                        shard.heap.top().oseq))) {
    shard.heap.pop();
  }
}

bool ShardPool::has_pending() {
  for (const auto& shard : shards_) {
    prune_cancelled_(*shard);
    if (!shard->heap.empty()) return true;
  }
  return false;
}

SimTime ShardPool::next_time() {
  SimTime earliest = 0.0;
  bool found = false;
  for (const auto& shard : shards_) {
    prune_cancelled_(*shard);
    if (shard->heap.empty()) continue;
    const SimTime at = shard->heap.top().at;
    if (!found || at < earliest) earliest = at;
    found = true;
  }
  FIB_ASSERT(found, "next_time: nothing pending");
  return earliest;
}

void ShardPool::advance_to(SimTime t) {
  FIB_ASSERT(!has_pending() || next_time() >= t,
             "advance_to: skipping pending events");
  now_ = std::max(now_, t);
}

void ShardPool::run_shard_round_(Shard& shard, SimTime t) {
  // Pop every event at exactly `t`, in (origin, oseq) order. Self events
  // scheduled at `t` mid-round land in this same heap and are picked up.
  while (!shard.heap.empty() && shard.heap.top().at == t) {
    // priority_queue::top() is const; move the callback out before pop.
    Item item = std::move(const_cast<Item&>(shard.heap.top()));
    shard.heap.pop();
    if (shard.live.erase(event_id_(item.origin, item.oseq)) == 0) continue;
    item.cb();
    ++shard.executed;
  }
}

std::size_t ShardPool::run_round() {
  const SimTime t = next_time();
  FIB_ASSERT(t >= now_, "run_round: time went backwards");
  now_ = t;
  ++rounds_;
  std::uint64_t before = 0;
  for (const auto& shard : shards_) before += shard->executed;
  in_round_.store(true, std::memory_order_relaxed);
  workers_.run(shards_.size(),
               [this, t](std::size_t s) { run_shard_round_(*shards_[s], t); });
  in_round_.store(false, std::memory_order_relaxed);
  // Barrier passed: every send of the round is visible. Merge the inboxes
  // into the heaps (driving thread, race-free); the keyed comparator puts
  // each message in its deterministic place regardless of arrival order.
  for (const auto& shard : shards_) {
    std::vector<Item> incoming;
    {
      MutexLock lock(shard->inbox_mu);
      incoming.swap(shard->inbox);
    }
    for (Item& item : incoming) {
      shard->live.insert(event_id_(item.origin, item.oseq));
      shard->heap.push(std::move(item));
    }
  }
  std::uint64_t after = 0;
  for (const auto& shard : shards_) after += shard->executed;
  run_deferred_();
  return static_cast<std::size_t>(after - before);
}

ShardPool::Stats ShardPool::stats() {
  Stats s;
  s.rounds = rounds_;
  for (const auto& shard : shards_) {
    s.events_run += shard->executed;
    MutexLock lock(shard->inbox_mu);
    s.cross_shard_messages += shard->inbox_total;
  }
  return s;
}

}  // namespace fibbing::util
