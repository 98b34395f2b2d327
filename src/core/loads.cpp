#include "core/loads.hpp"

#include <algorithm>
#include <functional>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace fibbing::core {

namespace {

/// Topological order of the forwarding graph `column` realizes (Kahn).
/// Nodes on a directed cycle never enter the order; a complete order (size
/// == node_count) certifies loop freedom. An unreachable entry has no next
/// hops, so a router without a route is a sink.
std::vector<topo::NodeId> forwarding_order(const topo::Topology& topo,
                                           const igp::RouteColumn& column) {
  std::vector<int> indegree(topo.node_count(), 0);
  for (topo::NodeId u = 0; u < topo.node_count(); ++u) {
    if (column[u].local) continue;
    for (const auto& nh : column[u].next_hops) ++indegree[nh.via];
  }
  std::vector<topo::NodeId> order;
  order.reserve(topo.node_count());
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    if (indegree[n] == 0) order.push_back(n);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const igp::RouteEntry& entry = column[order[head]];
    if (entry.local) continue;
    for (const auto& nh : entry.next_hops) {
      if (--indegree[nh.via] == 0) order.push_back(nh.via);
    }
  }
  return order;
}

}  // namespace

bool forwarding_loops(const topo::Topology& topo, const igp::RouteColumn& column) {
  FIB_ASSERT(column.size() == topo.node_count(), "forwarding_loops: column mismatch");
  return forwarding_order(topo, column).size() != topo.node_count();
}

std::vector<double> loads_from_routes(const topo::Topology& topo,
                                      const igp::RouteColumn& column,
                                      const net::Prefix& prefix,
                                      const std::vector<te::Demand>& demands) {
  FIB_ASSERT(column.size() == topo.node_count(), "loads_from_routes: column mismatch");
  std::vector<double> load(topo.link_count(), 0.0);
  std::vector<double> node_in(topo.node_count(), 0.0);
  for (const te::Demand& d : demands) {
    FIB_ASSERT(d.ingress < topo.node_count(), "loads_from_routes: bad ingress");
    node_in[d.ingress] += d.rate_bps;
  }

  // Verified augmentations are loop-free, but the controller also predicts
  // loads on *transient* state -- e.g. right after a topology change,
  // before stale lies are re-placed -- where the graph may contain a
  // cycle. Cycle nodes (and everything only reachable through them) are
  // absent from `order`; their inflow is walked separately below.
  const std::vector<topo::NodeId> order = forwarding_order(topo, column);
  for (const topo::NodeId u : order) {
    if (node_in[u] <= 0.0) continue;
    const igp::RouteEntry& entry = column[u];
    if (entry.local) continue;                    // delivered here
    const std::uint32_t total = entry.total_weight();
    if (total == 0) continue;                     // blackhole: load vanishes
    for (const auto& nh : entry.next_hops) {
      const topo::LinkId l = topo.link_between(u, nh.via);
      FIB_ASSERT(l != topo::kInvalidLink, "loads_from_routes: non-adjacent hop");
      const double share = node_in[u] * nh.weight / total;
      load[l] += share;
      node_in[nh.via] += share;
    }
  }

  if (order.size() != topo.node_count()) {
    // Until the re-placement lands, traffic flowing into a loop circulates
    // on the cycle's links (dying only to TTL expiry); the prediction must
    // charge those links, not pretend the bytes vanish at the cycle edge.
    // Each inflow unit is walked hop by hop -- ECMP splits proportionally,
    // each branch carrying its own copy of the visited set -- and charged
    // to every link it crosses until it first revisits a node: one full
    // lap, a deterministic lower bound on the circulating load. Logged so
    // a steady-state loop (a compiler or verifier bug, not a transient)
    // stays visible.
    FIB_LOG(kWarn, "loads") << "forwarding graph for " << prefix.to_string()
                            << " has a cycle; charging one lap of its inflow";
    std::vector<char> ordered(topo.node_count(), 0);
    for (const topo::NodeId n : order) ordered[n] = 1;
    const std::function<void(topo::NodeId, double, std::vector<char>)> walk =
        [&](topo::NodeId u, double rate, std::vector<char> visited) {
          for (;;) {
            if (visited[u]) return;  // loop closed: the lap is charged
            visited[u] = 1;
            const igp::RouteEntry& entry = column[u];
            if (entry.local) return;  // delivered after all
            const std::uint32_t total = entry.total_weight();
            if (total == 0) return;  // blackhole
            if (entry.next_hops.size() == 1) {
              const auto& nh = entry.next_hops.front();
              const topo::LinkId l = topo.link_between(u, nh.via);
              FIB_ASSERT(l != topo::kInvalidLink,
                         "loads_from_routes: non-adjacent hop");
              load[l] += rate;
              u = nh.via;  // tail-walk: no visited copy on the common path
              continue;
            }
            for (const auto& nh : entry.next_hops) {
              const topo::LinkId l = topo.link_between(u, nh.via);
              FIB_ASSERT(l != topo::kInvalidLink,
                         "loads_from_routes: non-adjacent hop");
              const double share = rate * nh.weight / total;
              load[l] += share;
              walk(nh.via, share, visited);
            }
            return;
          }
        };
    for (topo::NodeId u = 0; u < topo.node_count(); ++u) {
      // node_in at an unordered node is exactly the stranded inflow: direct
      // demand plus the shares the ordered pass pushed across the cycle
      // edge (it charged that edge but stopped propagating there).
      if (ordered[u] == 0 && node_in[u] > 0.0) {
        walk(u, node_in[u], std::vector<char>(topo.node_count(), 0));
      }
    }
  }
  return load;
}

}  // namespace fibbing::core
