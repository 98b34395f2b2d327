#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "igp/routes.hpp"
#include "igp/view.hpp"

namespace fibbing::igp {

/// Every node's ECMP first-hop set from one source, stored flat: each
/// node's set is a span of one shared id vector (the arena), so the sets
/// take two heap blocks however many nodes there are. Rewriting a set
/// appends it to the arena and leaves the old one dead; compact() drops the
/// dead ids. Two instances are equal when every node's set is.
class FirstHops {
 public:
  FirstHops() = default;
  /// `node_count` empty sets, with room for about one hop each.
  explicit FirstHops(std::size_t node_count) : spans_(node_count) {
    ids_.reserve(node_count);
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Node `v`'s set, ascending. Valid until the next assign or compact.
  [[nodiscard]] std::span<const topo::NodeId> operator[](topo::NodeId v) const {
    const Span s = spans_[v];
    if (s.length == 0) return {};
    return {ids_.data() + s.offset, s.length};
  }
  /// Make `hops` (ascending; not a span of this arena) node `v`'s set.
  void assign(topo::NodeId v, std::span<const topo::NodeId> hops);
  /// Ids the arena stores, dead ones included, and the live ones among them
  /// (the sets' summed sizes).
  [[nodiscard]] std::size_t arena_size() const { return ids_.size(); }
  [[nodiscard]] std::size_t live_size() const { return ids_.size() - dead_; }
  /// Rewrite the arena with the live sets only, in node order.
  void compact();

  friend bool operator==(const FirstHops& a, const FirstHops& b);

 private:
  struct Span {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };
  std::vector<Span> spans_;        // per node
  std::vector<topo::NodeId> ids_;  // the arena
  std::size_t dead_ = 0;           // ids no span covers
};

/// Result of one shortest-path-first run from a single source: distances
/// and ECMP first-hop sets toward every node. A node's first hops are the
/// union of its tight parents' (each in-edge e with dist[e.from] + e.metric
/// == dist[v]), and the node itself for a tight edge from the source.
struct SpfResult {
  topo::NodeId source = topo::kInvalidNode;
  std::vector<topo::Metric> dist;  // per node
  FirstHops first_hops;            // per node

  [[nodiscard]] bool reaches(topo::NodeId n) const { return dist[n] < kInfMetric; }
};

/// Dijkstra over a NetworkView. Each node's first-hop set is gathered once,
/// when the node settles, from its tight in-edges: its tight parents are
/// strictly closer, so their sets are final by then.
[[nodiscard]] SpfResult run_spf(const NetworkView& view, topo::NodeId source);

/// Distance and first hops from `spf.source` toward a transfer subnet, OSPF
/// stub-network style: min over both endpoint announcements of
/// dist(source, endpoint) + endpoint interface cost. When both sides attain
/// the min, the route's first hops are the union of the two sides' sets.
/// Nothing is copied: a side's set is read in place from spf.first_hops, or,
/// for a side at the source itself (traffic exits the interface), is the
/// other endpoint's id inside the subnet. Valid while `spf` and the subnet
/// it was computed for are.
struct SubnetRoute {
  topo::Metric cost = kInfMetric;
  /// Each sorted; the second is empty unless both sides attain `cost`.
  std::span<const topo::NodeId> sides[2];

  /// Calls `visit(hop)` for every first hop of the route in ascending order,
  /// once each: a hop both sides share is one hop of the route.
  template <typename Visit>
  void for_each_hop(Visit&& visit) const {
    const std::span<const topo::NodeId>& a = sides[0];
    const std::span<const topo::NodeId>& b = sides[1];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() || j < b.size()) {
      if (j == b.size() || (i < a.size() && a[i] < b[j])) {
        visit(a[i++]);
      } else if (i == a.size() || b[j] < a[i]) {
        visit(b[j++]);
      } else {
        visit(a[i++]);
        ++j;
      }
    }
  }
};
[[nodiscard]] SubnetRoute route_to_subnet(const SpfResult& spf,
                                          const NetworkView::Subnet& subnet);

/// An external route with its forwarding address resolved in a view: what
/// compute_route_entry reads of it. The resolution depends only on the
/// external and the view, so a caller building one prefix's entries at
/// every router resolves each external once.
struct ResolvedExternal {
  topo::Metric ext_metric = 0;
  /// The transfer subnet owning the forwarding address.
  const NetworkView::Subnet* subnet = nullptr;
  /// The router whose interface holds the forwarding address.
  topo::NodeId pointed_router = topo::kInvalidNode;
};

/// `ext` resolved in `view`; nullopt when its forwarding address dangles,
/// which makes the route unusable at every router.
[[nodiscard]] std::optional<ResolvedExternal> resolve_external(
    const NetworkView& view, const NetworkView::External& ext);

/// Build the full routing table of `source`: intra-area routes from prefix
/// attachments plus external routes (lies) resolved through forwarding
/// addresses. Candidates at equal minimal cost merge; every external LSA
/// contributes its first hops *independently*, so replicated lies produce
/// weights > 1 -- the Fibbing uneven-splitting mechanism.
[[nodiscard]] RoutingTable compute_routes(const NetworkView& view,
                                          topo::NodeId source);

/// Same, over an already-computed SPF for `spf.source` (the route cache
/// memoizes SPFs per topology version and derives tables from them).
[[nodiscard]] RoutingTable compute_routes(const NetworkView& view,
                                          const SpfResult& spf);

/// The route entry `spf.source` would install for one prefix given exactly
/// these candidate sources (all must announce the same prefix; dangling
/// externals are already left out). This is the per-prefix kernel of
/// compute_routes, exposed so the route cache's lie-delta patching produces
/// bit-identical entries by construction. One pass, nothing allocated per
/// candidate: a strictly cheaper candidate restarts the entry, and each
/// candidate at the entry's cost merges its first hops into
/// entry.next_hops. The result is unreachable (cost >= kInfMetric, no next
/// hops) when no candidate qualifies -- such entries are omitted from
/// routing tables.
[[nodiscard]] RouteEntry compute_route_entry(
    const SpfResult& spf, const std::vector<const NetworkView::Attachment*>& attachments,
    const std::vector<ResolvedExternal>& externals);

/// Convenience: routing tables for every router in the view.
[[nodiscard]] std::vector<RoutingTable> compute_all_routes(const NetworkView& view);

/// Outcome of an incremental SPF update after a set of adjacency flips.
struct SpfUpdate {
  enum class Mode {
    kUnchanged,    ///< no flipped adjacency was on any shortest path
    kIncremental,  ///< distances repaired from the affected region only
    kFull,         ///< change was bulk or non-local; ran a fresh Dijkstra
  };
  Mode mode = Mode::kFull;
  /// Valid for kIncremental and kFull; for kUnchanged the caller keeps the
  /// old result (its content is already exact for the new view).
  SpfResult result;
};

/// Update `old` -- valid for the view *before* the given adjacency changes
/// -- to the view *after* them all (`new_view`), in one batched repair:
/// the union of the removals' affected regions is recomputed Ramalingam-Reps
/// style (seeded from the unaffected frontier), then one decrease-propagation
/// pass seeded from every inserted edge restores exactness -- any path the
/// removal repair could have missed must cross an inserted edge. First-hop
/// sets are rebuilt only where they can differ, from new_view's in-edges,
/// by run_spf's rule; the result copies `old`'s three blocks, rewrites only
/// those sets, and compacts its arena once dead ids outnumber live ones.
/// When no flipped edge touches a shortest path the old result is certified
/// unchanged without touching the graph. Two cases run a full Dijkstra
/// instead (kFull): more than 16 directed deltas (a bulk transition such as
/// boot or a partition heal, whose repair would touch most of the graph),
/// and a removals' region above a quarter of the nodes. Results are
/// bit-identical to run_spf on the new view in every mode, for any number
/// of simultaneous deltas (an SRLG failing 2-8 links stays one incremental
/// repair).
[[nodiscard]] SpfUpdate update_spf(const NetworkView& new_view, const SpfResult& old,
                                   const std::vector<EdgeDelta>& deltas);

}  // namespace fibbing::igp
