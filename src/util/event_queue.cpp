#include "util/event_queue.hpp"

#include <algorithm>

namespace fibbing::util {

EventHandle EventQueue::schedule_at(SimTime at, Callback cb) {
  FIB_ASSERT(at >= now_, "schedule_at: time in the past");
  FIB_ASSERT(cb != nullptr, "schedule_at: null callback");
  const std::uint64_t id = next_id_++;
  heap_.push(Item{at, next_seq_++, id, std::move(cb)});
  live_.insert(id);
  return EventHandle{id};
}

bool EventQueue::cancel(EventHandle h) {
  if (!h.valid()) return false;
  // A binary heap cannot remove from the middle; drop the id from the live
  // set and skip the stale heap item when it surfaces in fire_next_.
  return live_.erase(h.id) > 0;
}

bool EventQueue::fire_next_() {
  while (!heap_.empty()) {
    // priority_queue::top() is const; the callback must be moved out before
    // pop, hence the const_cast (the item is popped immediately after).
    Item item = std::move(const_cast<Item&>(heap_.top()));
    heap_.pop();
    if (live_.erase(item.id) == 0) continue;  // was cancelled
    now_ = item.at;
    item.cb();
    return true;
  }
  return false;
}

bool EventQueue::step() { return fire_next_(); }

void EventQueue::run_until(SimTime horizon) {
  FIB_ASSERT(horizon >= now_, "run_until: horizon in the past");
  while (!heap_.empty()) {
    // Skip cancelled items first: the horizon check must see the next live
    // event, or fire_next_ would step over a stale top to one past it.
    if (!live_.contains(heap_.top().id)) {
      heap_.pop();
      continue;
    }
    if (heap_.top().at > horizon) break;
    fire_next_();
  }
  now_ = std::max(now_, horizon);
}

void EventQueue::run() {
  while (fire_next_()) {
  }
}

}  // namespace fibbing::util
