#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/prefix.hpp"
#include "topo/topology.hpp"

namespace fibbing::igp {

inline constexpr topo::Metric kInfMetric = 0x3fffffff;

/// A next hop with a FIB weight. Weight > 1 encodes Fibbing's uneven
/// splitting: the entry occupies `weight` ECMP buckets (replicated
/// equal-cost fake paths resolving to the same physical interface).
struct WeightedNextHop {
  topo::NodeId via = topo::kInvalidNode;
  std::uint32_t weight = 1;

  friend auto operator<=>(const WeightedNextHop&, const WeightedNextHop&) = default;
};

/// The routing-table entry of one router for one prefix.
struct RouteEntry {
  topo::Metric cost = kInfMetric;
  bool local = false;  // delivered here (the prefix is attached to this node)
  std::vector<WeightedNextHop> next_hops;  // sorted by `via`, merged weights

  [[nodiscard]] bool reachable() const { return cost < kInfMetric; }
  [[nodiscard]] std::uint32_t total_weight() const {
    std::uint32_t sum = 0;
    for (const auto& nh : next_hops) sum += nh.weight;
    return sum;
  }
  friend bool operator==(const RouteEntry&, const RouteEntry&) = default;
};

/// One router's routes for all known prefixes. std::map keeps deterministic
/// iteration order for tests and dumps.
using RoutingTable = std::map<net::Prefix, RouteEntry>;

/// One prefix's routes at every router, indexed by router id; a router with
/// no route to the prefix holds RouteEntry{} (unreachable, no next hops).
using RouteColumn = std::vector<RouteEntry>;

/// `prefix`'s column of router-major `tables` (one RoutingTable per router).
[[nodiscard]] RouteColumn column_of(const std::vector<RoutingTable>& tables,
                                    const net::Prefix& prefix);

[[nodiscard]] std::string to_string(const RouteEntry& entry, const topo::Topology& topo);

}  // namespace fibbing::igp
