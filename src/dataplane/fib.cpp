#include "dataplane/fib.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace fibbing::dataplane {

Fib Fib::from_routing_table(const topo::Topology& topo, topo::NodeId self,
                            const igp::RoutingTable& routes) {
  Fib fib;
  for (const auto& [prefix, route] : routes) {
    if (route.reachable()) fib.set(prefix, compile_entry(topo, self, route));
  }
  return fib;
}

FibEntry Fib::compile_entry(const topo::Topology& topo, topo::NodeId self,
                            const igp::RouteEntry& route) {
  FibEntry entry;
  entry.local = route.local;
  entry.next_hops.reserve(route.next_hops.size());
  for (const auto& nh : route.next_hops) {
    const topo::LinkId out = topo.link_between(self, nh.via);
    FIB_ASSERT(out != topo::kInvalidLink, "Fib: next hop is not adjacent");
    entry.next_hops.push_back(FibNextHop{out, nh.via, nh.weight});
  }
  return entry;
}

std::optional<FibEntry> Fib::exchange(const net::Prefix& prefix,
                                      std::optional<FibEntry> entry) {
  std::optional<FibEntry> held;
  if (FibEntry* at = trie_.exact(prefix)) held = std::move(*at);
  if (entry) {
    trie_.insert(prefix, std::move(*entry));
  } else {
    erase(prefix);
  }
  return held;
}

std::string Fib::to_string(const topo::Topology& topo) const {
  std::ostringstream out;
  trie_.for_each([&](const net::Prefix& prefix, const FibEntry& entry) {
    out << prefix.to_string() << " ->";
    if (entry.local) out << " local";
    for (const auto& nh : entry.next_hops) {
      out << " " << topo.node(nh.via).name;
      if (nh.weight > 1) out << "x" << nh.weight;
    }
    out << "\n";
  });
  return out.str();
}

}  // namespace fibbing::dataplane
