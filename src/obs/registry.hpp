#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace fibbing::obs {

/// Unified metrics registry: every layer's counters meet here under one
/// namespaced key space, snapshotted as deterministic sorted-key JSON
/// (FibbingService::telemetry_json is the consumer the benches read).
///
/// The registry is a read-through view, not a second counter store: each
/// key is a callback (register_callback) adopting an existing component
/// counter (Controller::mitigations(), RouterProcess SPF totals, proto
/// session counters, ...). The component keeps its struct and accessors,
/// and the registry evaluates the callback at snapshot time.
///
/// Thread safety: all methods lock the internal mutex. Callbacks are
/// evaluated on the snapshotting thread only; the component counters they
/// read follow the components' own threading contracts (all of them are
/// driving-thread or barrier-flushed state). Snapshot order is the sorted
/// key order, independent of registration order -- the determinism
/// property tests pin that.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Adopt an existing component counter as a read-through. Re-registering
  /// a name replaces its callback (components re-wire across reboots).
  void register_callback(const std::string& name, std::function<double()> fn)
      FIB_EXCLUDES(mu_);

  /// Every key's current value, callbacks evaluated. Sorted by key.
  [[nodiscard]] std::map<std::string, double> snapshot() const FIB_EXCLUDES(mu_);

  /// snapshot() rendered by to_json().
  [[nodiscard]] std::string json() const FIB_EXCLUDES(mu_);

  /// Convenience single-key read (tests); 0.0 when the key is absent.
  [[nodiscard]] double value(const std::string& name) const FIB_EXCLUDES(mu_);

  [[nodiscard]] std::size_t size() const FIB_EXCLUDES(mu_);

 private:
  mutable util::Mutex mu_;
  std::map<std::string, std::function<double()>> callbacks_ FIB_GUARDED_BY(mu_);
};

/// `values` rendered as one JSON object, keys sorted -- bit-identical for
/// identical values regardless of how the map was filled.
[[nodiscard]] std::string to_json(const std::map<std::string, double>& values);

}  // namespace fibbing::obs
