#pragma once

#include <cstdint>
#include <map>
#include <span>
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

/// `hops` sorted by `via`, a via listed twice merged into one entry, and the
/// weights divided by their gcd: two next-hop sets split traffic alike
/// exactly when their lowest terms are equal ({B:2} is {B:1}, while
/// {B:1,R1:2} is not {B:1,R1:1}).
[[nodiscard]] std::vector<WeightedNextHop> lowest_terms(
    std::span<const WeightedNextHop> hops);

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

/// The prefixes whose entry appeared, vanished or differs (cost included)
/// between two tables of one router, ascending: one merge walk over both.
[[nodiscard]] std::vector<net::Prefix> changed_prefixes(const RoutingTable& before,
                                                        const RoutingTable& after);

/// One prefix's routes at every router, indexed by router id; a router with
/// no route to the prefix holds RouteEntry{} (unreachable, no next hops).
using RouteColumn = std::vector<RouteEntry>;

/// `prefix`'s column of router-major `tables` (one RoutingTable per router).
[[nodiscard]] RouteColumn column_of(const std::vector<RoutingTable>& tables,
                                    const net::Prefix& prefix);

[[nodiscard]] std::string to_string(const RouteEntry& entry, const topo::Topology& topo);

}  // namespace fibbing::igp
