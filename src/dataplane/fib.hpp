#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "igp/routes.hpp"
#include "net/lpm_trie.hpp"
#include "topo/topology.hpp"

namespace fibbing::dataplane {

/// One forwarding slot: an outgoing link occupying `weight` ECMP buckets.
struct FibNextHop {
  topo::LinkId out_link = topo::kInvalidLink;
  topo::NodeId via = topo::kInvalidNode;
  std::uint32_t weight = 1;

  friend bool operator==(const FibNextHop&, const FibNextHop&) = default;
};

/// The forwarding entry for a prefix at one router.
struct FibEntry {
  bool local = false;  // deliver to attached hosts here
  std::vector<FibNextHop> next_hops;

  [[nodiscard]] std::uint32_t total_weight() const {
    std::uint32_t sum = 0;
    for (const auto& nh : next_hops) sum += nh.weight;
    return sum;
  }
  friend bool operator==(const FibEntry&, const FibEntry&) = default;
};

/// A router's forwarding table: longest-prefix-match over FibEntry.
class Fib {
 public:
  Fib() = default;

  /// Compile a routing table into forwarding state, resolving next-hop
  /// router ids to outgoing links of `self`: compile_entry for each
  /// reachable route.
  static Fib from_routing_table(const topo::Topology& topo, topo::NodeId self,
                                const igp::RoutingTable& routes);
  /// The forwarding entry of one reachable route at `self`.
  static FibEntry compile_entry(const topo::Topology& topo, topo::NodeId self,
                                const igp::RouteEntry& route);

  void set(const net::Prefix& prefix, FibEntry entry) {
    trie_.insert(prefix, std::move(entry));
  }
  /// Remove the entry exactly at `prefix`; true if one existed.
  bool erase(const net::Prefix& prefix) { return trie_.erase(prefix); }
  /// Make `entry` the entry at `prefix`, or erase it when nullopt, and return
  /// the entry the prefix held (nullopt when none).
  std::optional<FibEntry> exchange(const net::Prefix& prefix,
                                   std::optional<FibEntry> entry);

  using Match = net::LpmTrie<FibEntry>::Match;
  /// The longest-prefix match for `dst`, with the matched prefix.
  [[nodiscard]] std::optional<Match> match(net::Ipv4 dst) const {
    return trie_.lookup(dst);
  }
  [[nodiscard]] const FibEntry* lookup(net::Ipv4 dst) const {
    const auto m = trie_.lookup(dst);
    return m ? m->value : nullptr;
  }
  [[nodiscard]] const FibEntry* exact(const net::Prefix& prefix) const {
    return trie_.exact(prefix);
  }
  [[nodiscard]] std::size_t size() const { return trie_.size(); }
  /// Visit every (prefix, entry) pair in the trie's DFS order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    trie_.for_each(fn);
  }

  [[nodiscard]] std::string to_string(const topo::Topology& topo) const;

 private:
  net::LpmTrie<FibEntry> trie_;
};

}  // namespace fibbing::dataplane
