#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "igp/lsa.hpp"
#include "igp/lsdb.hpp"
#include "net/ipv4.hpp"
#include "net/prefix.hpp"
#include "topo/link_state.hpp"
#include "topo/topology.hpp"

namespace fibbing::igp {

/// One directed adjacency change between two views. A bidirectional link
/// flip is two deltas (one per direction); an SRLG event failing k links is
/// 2k of them, all handed to update_spf at once.
struct EdgeDelta {
  topo::NodeId from = topo::kInvalidNode;
  topo::NodeId to = topo::kInvalidNode;
  topo::Metric metric = 0;  ///< directed metric of the flipped edge
  bool removed = false;     ///< true: edge left the view; false: edge joined
};

/// The routing-relevant content of a converged LSDB, in graph form: what a
/// router's SPF actually consumes. Built either from an Lsdb (protocol path;
/// a router patches its view in place as its LSDB changes) or directly from
/// a Topology plus a set of external routes (the fast path used by the
/// optimizer, verifier and benches).
class NetworkView {
 public:
  struct Edge {
    topo::NodeId to = topo::kInvalidNode;
    topo::Metric metric = 1;
  };
  /// The same edge seen from its head (edges_into).
  struct InEdge {
    topo::NodeId from = topo::kInvalidNode;
    topo::Metric metric = 1;
  };

  /// A transfer network (/30) between two routers, used to resolve external
  /// forwarding addresses. Directions matter: metric_ab is a's interface
  /// cost toward b (a's stub cost for the subnet).
  struct Subnet {
    net::Prefix prefix;
    topo::NodeId a = topo::kInvalidNode;
    topo::NodeId b = topo::kInvalidNode;
    topo::Metric metric_ab = 1;
    topo::Metric metric_ba = 1;
    net::Ipv4 addr_a;  // a's interface address
    net::Ipv4 addr_b;  // b's interface address
  };

  struct Attachment {
    net::Prefix prefix;
    topo::NodeId node = topo::kInvalidNode;
    topo::Metric metric = 0;
  };

  /// One external route (a Fibbing lie, or any redistributed route).
  struct External {
    std::uint64_t lie_id = 0;
    net::Prefix prefix;
    topo::Metric ext_metric = 0;
    net::Ipv4 forwarding_address;
  };

  /// Build the graph a converged IGP would compute on. When `link_state` is
  /// given, links it marks down are omitted -- adjacency *and* transfer /30
  /// (so forwarding addresses on a dead link dangle, as in a real LSDB after
  /// the endpoints re-originate without the interface). This is what makes
  /// every consumer (optimizer, compiler, verifier, controller) plan on the
  /// topology that actually exists instead of the pristine static one.
  static NetworkView from_topology(const topo::Topology& topo,
                                   std::vector<External> externals = {},
                                   const topo::LinkStateMask* link_state = nullptr);
  static NetworkView from_lsdb(const Lsdb& lsdb, std::size_t node_count);

  NetworkView() = default;
  /// `node_count` routers and nothing else: from_lsdb of an empty database.
  explicit NetworkView(std::size_t node_count) : adj_(node_count), in_(node_count) {}

  /// Bring a view that equals from_lsdb(lsdb) as the database stood at its
  /// previous drain_changes() up to the database's current state, given what
  /// that drain returned. Afterwards the view equals from_lsdb(lsdb) except
  /// for the order of subnets and attachments.
  ///
  /// Each changed Router-LSA origin gets its out-edges re-read (with
  /// from_lsdb's presence-only two-way check). Its old links
  /// (Change::before) are compared with its current ones link by link --
  /// neighbor, metric, subnet and local address. The subnet of each link
  /// that left or changed is dropped through the forwarding-address index;
  /// each link that arrived or changed is paired with the neighbor's half
  /// through Lsdb::find, unless its address is already indexed because the
  /// other end's change in the same drain paired it. That agrees with
  /// from_lsdb's pairing by subnet key because a transfer network is named
  /// only by the two routers of its link, with one interface address each.
  /// The origin's prefixes are re-read only when they changed. A Router-LSA
  /// that appeared or vanished can change any edge into its router, so then
  /// every origin, subnet and prefix is re-read, in one pass. Each changed
  /// lie is added, replaced or dropped.
  ///
  /// Appends to `deltas` the directed adjacency changes, exactly as a
  /// per-origin multiset diff of the old and new views lists them: origins
  /// ascending, each origin's deltas ascending by (to, metric), and applies
  /// the same deltas to the in-edges. Returns the number of Router-LSA
  /// origins re-read.
  std::size_t patch_from_lsdb(const Lsdb& lsdb, const std::vector<Lsdb::Change>& changes,
                              std::vector<EdgeDelta>& deltas);

  [[nodiscard]] std::size_t node_count() const { return adj_.size(); }
  [[nodiscard]] const std::vector<Edge>& edges_from(topo::NodeId n) const;
  /// Every edge whose head is `n`: edges_from's edges regrouped by head, in
  /// no particular order.
  [[nodiscard]] const std::vector<InEdge>& edges_into(topo::NodeId n) const;
  [[nodiscard]] const std::vector<Subnet>& subnets() const { return subnets_; }
  [[nodiscard]] const std::vector<Attachment>& attachments() const {
    return attachments_;
  }
  [[nodiscard]] const std::vector<External>& externals() const { return externals_; }

  /// The subnet owning an external forwarding address, with the pointed-to
  /// side resolved: `entry` is the router whose interface address matches.
  /// O(1): served from an address-indexed map built at construction (i.e.
  /// once per RouteCache generation) and kept in step by patch_from_lsdb,
  /// not by scanning the subnets.
  struct FwdAddrMatch {
    const Subnet* subnet = nullptr;
    topo::NodeId pointed_router = topo::kInvalidNode;
  };
  [[nodiscard]] std::optional<FwdAddrMatch> resolve_forwarding_address(
      net::Ipv4 addr) const;

 private:
  void index_subnet_addresses_();
  /// Drop the subnet holding interface address `addr`, if any, with both
  /// of its forwarding-address entries.
  void drop_subnet_(net::Ipv4 addr);
  /// Pair each link of `origins` (sorted) with its neighbor's half.
  void pair_subnets_(const Lsdb& lsdb, const std::vector<topo::NodeId>& origins);
  /// Pair `link`, one of `u`'s, with its neighbor's half, if the neighbor's
  /// Router-LSA is present and lists the subnet.
  void pair_link_(const Lsdb& lsdb, topo::NodeId u, const LsaLink& link);
  /// Append the attachments of `u`'s Router-LSA, if present.
  void add_attachments_(const Lsdb& lsdb, topo::NodeId u);
  /// Add, replace or drop the external of lie `lie_id` to match `lsdb`.
  void patch_external_(const Lsdb& lsdb, std::uint64_t lie_id);

  std::vector<std::vector<Edge>> adj_;
  std::vector<std::vector<InEdge>> in_;  ///< index: edge head
  std::vector<Subnet> subnets_;
  std::vector<Attachment> attachments_;
  std::vector<External> externals_;
  /// interface address -> (index into subnets_, owning router). Indices, not
  /// pointers, so the default copy of a view stays self-contained.
  std::unordered_map<net::Ipv4, std::pair<std::uint32_t, topo::NodeId>> fwd_index_;
};

}  // namespace fibbing::igp
