#include "obs/registry.hpp"

#include <cstdio>
#include <utility>

namespace fibbing::obs {

namespace {

/// Shortest round-trip decimal of `v`: integral values print without a
/// fraction, so counter snapshots read like counters. Deterministic for
/// identical bit patterns.
std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the shorter %g form when it round-trips (1.0 -> "1", 0.05 stays
  // exact); keeps the JSON stable and human-readable at once.
  char shorter[32];
  std::snprintf(shorter, sizeof(shorter), "%g", v);
  double back = 0.0;
  if (std::sscanf(shorter, "%lf", &back) == 1 && back == v) return shorter;
  return buf;
}

}  // namespace

void Registry::register_callback(const std::string& name,
                                 std::function<double()> fn) {
  util::MutexLock lock(mu_);
  callbacks_[name] = std::move(fn);
}

std::map<std::string, double> Registry::snapshot() const {
  // Copy the callback table under the lock, evaluate callbacks outside it:
  // a callback may read a component that takes its own lock (RouteCache) or
  // re-enter the registry.
  std::map<std::string, std::function<double()>> callbacks;
  {
    util::MutexLock lock(mu_);
    callbacks = callbacks_;
  }
  std::map<std::string, double> out;
  for (const auto& [name, callback] : callbacks) {
    out[name] = callback ? callback() : 0.0;
  }
  return out;
}

std::string Registry::json() const { return to_json(snapshot()); }

double Registry::value(const std::string& name) const {
  const std::map<std::string, double> snap = snapshot();
  const auto it = snap.find(name);
  return it == snap.end() ? 0.0 : it->second;
}

std::size_t Registry::size() const {
  util::MutexLock lock(mu_);
  return callbacks_.size();
}

std::string to_json(const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : values) {
    if (!first) out += ",";
    first = false;
    out += "\"" + key + "\":" + format_value(value);
  }
  out += "}";
  return out;
}

}  // namespace fibbing::obs
