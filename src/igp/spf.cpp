#include "igp/spf.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <queue>
#include <sstream>

#include "util/assert.hpp"

namespace fibbing::igp {

namespace {

/// Past this many directed deltas the change is a bulk transition (boot,
/// partition heal): a repair would touch most of the graph, so update_spf
/// runs the full Dijkstra directly.
constexpr std::size_t kMaxRepairDeltas = 16;

/// Set `v`'s first hops in `spf` from its tight in-edges in `view`: the
/// union of its tight parents' sets, and `v` itself for a tight edge from
/// the source. Every tight parent's set must be final. `scratch` is reused
/// across calls.
void gather_first_hops(const NetworkView& view, SpfResult& spf, topo::NodeId v,
                       std::vector<topo::NodeId>& scratch) {
  scratch.clear();
  std::size_t parents = 0;
  if (spf.reaches(v)) {
    for (const NetworkView::InEdge& e : view.edges_into(v)) {
      if (!spf.reaches(e.from) || spf.dist[e.from] + e.metric != spf.dist[v]) continue;
      ++parents;
      if (e.from == spf.source) {
        scratch.push_back(v);
      } else {
        const std::span<const topo::NodeId> hops = spf.first_hops[e.from];
        scratch.insert(scratch.end(), hops.begin(), hops.end());
      }
    }
  }
  if (parents > 1) {
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  }
  spf.first_hops.assign(v, scratch);
}

}  // namespace

void FirstHops::assign(topo::NodeId v, std::span<const topo::NodeId> hops) {
  Span& span = spans_[v];
  dead_ += span.length;
  span = Span{static_cast<std::uint32_t>(ids_.size()),
              static_cast<std::uint32_t>(hops.size())};
  ids_.insert(ids_.end(), hops.begin(), hops.end());
}

void FirstHops::compact() {
  if (dead_ == 0) return;
  std::vector<topo::NodeId> live;
  live.reserve(ids_.size() - dead_);
  for (Span& span : spans_) {
    const auto offset = static_cast<std::uint32_t>(live.size());
    live.insert(live.end(), ids_.begin() + span.offset,
                ids_.begin() + span.offset + span.length);
    span.offset = offset;
  }
  ids_ = std::move(live);
  dead_ = 0;
}

bool operator==(const FirstHops& a, const FirstHops& b) {
  if (a.size() != b.size()) return false;
  for (topo::NodeId v = 0; v < a.size(); ++v) {
    if (!std::ranges::equal(a[v], b[v])) return false;
  }
  return true;
}

SpfResult run_spf(const NetworkView& view, topo::NodeId source) {
  const std::size_t n = view.node_count();
  FIB_ASSERT(source < n, "run_spf: source out of range");
  SpfResult result;
  result.source = source;
  result.dist.assign(n, kInfMetric);
  result.first_hops = FirstHops(n);
  result.dist[source] = 0;

  using Item = std::pair<topo::Metric, topo::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  std::vector<bool> settled(n, false);
  std::vector<topo::NodeId> scratch;
  heap.emplace(0, source);

  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (settled[u] || d > result.dist[u]) continue;
    settled[u] = true;
    // Positive metrics: every tight parent of u settled before it.
    if (u != source) gather_first_hops(view, result, u, scratch);
    for (const NetworkView::Edge& edge : view.edges_from(u)) {
      FIB_ASSERT(edge.metric > 0, "run_spf: non-positive metric");
      const topo::Metric nd = result.dist[u] + edge.metric;
      if (nd < result.dist[edge.to]) {
        result.dist[edge.to] = nd;
        heap.emplace(nd, edge.to);
      }
    }
  }
  return result;
}

SubnetRoute route_to_subnet(const SpfResult& spf, const NetworkView::Subnet& subnet) {
  SubnetRoute out;
  const auto side = [&](topo::NodeId endpoint, topo::Metric iface_cost,
                        const topo::NodeId& other) {
    if (!spf.reaches(endpoint)) return;
    const topo::Metric cost = spf.dist[endpoint] + iface_cost;
    // Directly connected: traffic exits the interface; the only device
    // across the transfer network is the other endpoint.
    const std::span<const topo::NodeId> hops =
        endpoint == spf.source ? std::span<const topo::NodeId>(&other, 1)
                               : spf.first_hops[endpoint];
    if (cost < out.cost) {
      out.cost = cost;
      out.sides[0] = hops;
      out.sides[1] = {};
    } else if (cost == out.cost) {
      out.sides[1] = hops;
    }
  };
  side(subnet.a, subnet.metric_ab, subnet.b);
  side(subnet.b, subnet.metric_ba, subnet.a);
  return out;
}

std::optional<ResolvedExternal> resolve_external(const NetworkView& view,
                                                 const NetworkView::External& ext) {
  const auto match = view.resolve_forwarding_address(ext.forwarding_address);
  if (!match) return std::nullopt;
  return ResolvedExternal{ext.ext_metric, match->subnet, match->pointed_router};
}

RouteEntry compute_route_entry(
    const SpfResult& spf, const std::vector<const NetworkView::Attachment*>& attachments,
    const std::vector<ResolvedExternal>& externals) {
  RouteEntry entry;
  // True when a candidate at `cost` belongs in the entry; a strictly cheaper
  // one first drops everything the entry held.
  const auto admit = [&](topo::Metric cost) {
    if (cost >= kInfMetric || cost > entry.cost) return false;
    if (cost < entry.cost) {
      entry.cost = cost;
      entry.local = false;
      entry.next_hops.clear();
    }
    return true;
  };
  // Every minimal candidate (intra route or individual lie) contributes one
  // FIB slot per first hop; replicated lies therefore accumulate weight on
  // their shared physical next hop -- uneven splitting.
  const auto add_slot = [&](topo::NodeId hop) {
    const auto it = std::lower_bound(
        entry.next_hops.begin(), entry.next_hops.end(), hop,
        [](const WeightedNextHop& nh, topo::NodeId via) { return nh.via < via; });
    if (it != entry.next_hops.end() && it->via == hop) {
      ++it->weight;
    } else {
      entry.next_hops.insert(it, WeightedNextHop{hop, 1});
    }
  };

  for (const NetworkView::Attachment* att : attachments) {
    if (!spf.reaches(att->node) || !admit(spf.dist[att->node] + att->metric)) continue;
    if (att->node == spf.source) {
      entry.local = true;
    } else {
      for (const topo::NodeId hop : spf.first_hops[att->node]) add_slot(hop);
    }
  }

  for (const ResolvedExternal& ext : externals) {
    // A lie whose forwarding address belongs to this very router would make
    // it forward to itself; routers ignore such self-pointing externals.
    if (ext.pointed_router == spf.source) continue;
    const SubnetRoute sub = route_to_subnet(spf, *ext.subnet);
    if (sub.cost >= kInfMetric || !admit(sub.cost + ext.ext_metric)) continue;
    sub.for_each_hop(add_slot);
  }
  return entry;
}

RoutingTable compute_routes(const NetworkView& view, const SpfResult& spf) {
  struct Sources {
    std::vector<const NetworkView::Attachment*> attachments;
    std::vector<ResolvedExternal> externals;
  };
  std::map<net::Prefix, Sources> by_prefix;
  for (const NetworkView::Attachment& att : view.attachments()) {
    by_prefix[att.prefix].attachments.push_back(&att);
  }
  for (const NetworkView::External& ext : view.externals()) {
    if (const auto resolved = resolve_external(view, ext)) {
      by_prefix[ext.prefix].externals.push_back(*resolved);
    }
  }

  RoutingTable table;
  for (const auto& [prefix, sources] : by_prefix) {
    RouteEntry entry = compute_route_entry(spf, sources.attachments, sources.externals);
    if (entry.cost >= kInfMetric) continue;
    table.emplace(prefix, std::move(entry));
  }
  return table;
}

RoutingTable compute_routes(const NetworkView& view, topo::NodeId source) {
  return compute_routes(view, run_spf(view, source));
}

SpfUpdate update_spf(const NetworkView& new_view, const SpfResult& old,
                     const std::vector<EdgeDelta>& deltas) {
  const std::size_t n = new_view.node_count();
  FIB_ASSERT(old.dist.size() == n, "update_spf: view/result size mismatch");
  SpfUpdate out;
  if (deltas.size() > kMaxRepairDeltas) {
    out.mode = SpfUpdate::Mode::kFull;
    out.result = run_spf(new_view, old.source);
    return out;
  }

  const auto reach_old = [&](topo::NodeId v) { return old.dist[v] < kInfMetric; };
  // Classify every delta under the *old* distances: only tight edges carry
  // shortest paths (and therefore first hops); an insertion additionally
  // matters when it strictly shortens its head.
  const auto old_tight = [&](const EdgeDelta& d) {
    return reach_old(d.from) && reach_old(d.to) &&
           old.dist[d.from] + d.metric == old.dist[d.to];
  };
  bool any_removed_tight = false;
  bool any_insert_relevant = false;
  bool any_inserted = false;
  for (const EdgeDelta& d : deltas) {
    FIB_ASSERT(d.from < n && d.to < n, "update_spf: endpoint out of range");
    if (d.removed) {
      any_removed_tight = any_removed_tight || old_tight(d);
    } else {
      any_inserted = true;
      const bool improves =
          reach_old(d.from) &&
          (!reach_old(d.to) || old.dist[d.from] + d.metric < old.dist[d.to]);
      any_insert_relevant = any_insert_relevant || old_tight(d) || improves;
    }
  }

  if (!any_removed_tight && !any_insert_relevant) {
    out.mode = SpfUpdate::Mode::kUnchanged;
    return out;
  }

  SpfResult res = old;
  std::vector<char> changed(n, 0);  // nodes whose distance was repaired
  std::vector<topo::NodeId> changed_list;
  using Item = std::pair<topo::Metric, topo::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;

  if (any_removed_tight) {
    // Affected region -- the *union* over every removed tight edge: nodes
    // whose every tight in-edge (in the new view) comes from another
    // affected node. Worklist with re-checks -- marking a node affected
    // re-enqueues its tight children, so a node supported only by later
    // casualties is eventually caught. Inserted edges already present in
    // the new view's in-edges can legitimately provide support: an edge tight
    // under the old distances from an unaffected tail pins its head's
    // distance in the new view too.
    const auto has_support = [&](topo::NodeId v) {
      if (v == old.source) return true;
      for (const NetworkView::InEdge& e : new_view.edges_into(v)) {
        if (!changed[e.from] && reach_old(e.from) &&
            old.dist[e.from] + e.metric == old.dist[v]) {
          return true;
        }
      }
      return false;
    };
    std::vector<topo::NodeId> worklist;
    for (const EdgeDelta& d : deltas) {
      if (d.removed && old_tight(d)) worklist.push_back(d.to);
    }
    for (std::size_t head = 0; head < worklist.size(); ++head) {
      const topo::NodeId v = worklist[head];
      if (changed[v] || has_support(v)) continue;
      changed[v] = 1;
      changed_list.push_back(v);
      for (const NetworkView::Edge& e : new_view.edges_from(v)) {
        if (!changed[e.to] && reach_old(e.to) &&
            old.dist[v] + e.metric == old.dist[e.to]) {
          worklist.push_back(e.to);
        }
      }
    }

    // Non-local change: repairing most of the graph costs more than a fresh
    // Dijkstra (and the repair's bookkeeping); fall back.
    if (changed_list.size() > std::max<std::size_t>(4, n / 4)) {
      out.mode = SpfUpdate::Mode::kFull;
      out.result = run_spf(new_view, old.source);
      return out;
    }

    // Repair: seed every affected node with its best distance through the
    // unaffected frontier, then run Dijkstra restricted to the region.
    for (const topo::NodeId v : changed_list) res.dist[v] = kInfMetric;
    for (const topo::NodeId v : changed_list) {
      for (const NetworkView::InEdge& e : new_view.edges_into(v)) {
        if (changed[e.from] || !reach_old(e.from)) continue;
        const topo::Metric nd = old.dist[e.from] + e.metric;
        if (nd < res.dist[v]) {
          res.dist[v] = nd;
          heap.emplace(nd, v);
        }
      }
    }
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > res.dist[v]) continue;
      for (const NetworkView::Edge& e : new_view.edges_from(v)) {
        if (!changed[e.to]) continue;
        const topo::Metric nd = d + e.metric;
        if (nd < res.dist[e.to]) {
          res.dist[e.to] = nd;
          heap.emplace(nd, e.to);
        }
      }
    }
  }

  if (any_inserted) {
    // Insertions only shorten paths: seed every inserted edge's relaxation
    // and let the decreases propagate (standard incremental Dijkstra). This
    // runs *after* the removal repair, against its (possibly raised)
    // distances: any node the repair left above its true new-view distance
    // owes the gap to a path crossing an inserted edge -- paths avoiding
    // them were all available to the repair -- so seeding exactly the
    // inserted edges restores exactness. Every inserted edge is seeded, not
    // just the ones improving under the old distances: the repair may have
    // raised a head that an insertion now rescues.
    const auto improve = [&](topo::NodeId v, topo::Metric nd) {
      if (nd >= res.dist[v]) return;
      res.dist[v] = nd;
      if (!changed[v]) {
        changed[v] = 1;
        changed_list.push_back(v);
      }
      heap.emplace(nd, v);
    };
    for (const EdgeDelta& d : deltas) {
      if (d.removed || res.dist[d.from] >= kInfMetric) continue;
      improve(d.to, res.dist[d.from] + d.metric);
    }
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d > res.dist[v]) continue;
      for (const NetworkView::Edge& e : new_view.edges_from(v)) {
        improve(e.to, d + e.metric);
      }
    }
  }

  // First-hop sets can differ exactly where (a) the distance changed, (b) a
  // tight parent was gained or lost, or (c) an upstream set in (a)/(b)
  // feeds through a tight edge. Seed with the distance-changed nodes, the
  // old-tight children they abandoned, and the flipped edge's own heads,
  // then close over new-tight out-edges.
  std::vector<char> dirty(n, 0);
  std::vector<topo::NodeId> dirty_list;
  const auto mark_dirty = [&](topo::NodeId v) {
    if (!dirty[v]) {
      dirty[v] = 1;
      dirty_list.push_back(v);
    }
  };
  for (const topo::NodeId v : changed_list) {
    mark_dirty(v);
    // Old-tight children of a node whose distance moved lost it as a
    // parent; if the edge is no longer tight the closure below would never
    // reach them, so seed them explicitly.
    for (const NetworkView::Edge& e : new_view.edges_from(v)) {
      if (reach_old(v) && reach_old(e.to) &&
          old.dist[v] + e.metric == old.dist[e.to]) {
        mark_dirty(e.to);
      }
    }
  }
  const auto reach_new = [&](topo::NodeId v) { return res.dist[v] < kInfMetric; };
  for (const EdgeDelta& d : deltas) {
    if (d.removed) {
      // The head lost a tight parent (even if its distance survived).
      if (old_tight(d)) mark_dirty(d.to);
    } else if (reach_new(d.from) && reach_new(d.to) &&
               res.dist[d.from] + d.metric == res.dist[d.to]) {
      // The head gained a tight parent under the new distances.
      mark_dirty(d.to);
    }
  }
  for (std::size_t head = 0; head < dirty_list.size(); ++head) {
    const topo::NodeId v = dirty_list[head];
    if (!reach_new(v)) continue;
    for (const NetworkView::Edge& e : new_view.edges_from(v)) {
      if (reach_new(e.to) && res.dist[v] + e.metric == res.dist[e.to]) {
        mark_dirty(e.to);
      }
    }
  }

  // Rebuild the dirty sets in increasing-distance order: every tight parent
  // is strictly closer (metrics are positive), so parents -- dirty ones
  // rebuilt earlier, clean ones untouched -- are final when consumed.
  std::sort(dirty_list.begin(), dirty_list.end(),
            [&](topo::NodeId x, topo::NodeId y) { return res.dist[x] < res.dist[y]; });
  std::vector<topo::NodeId> scratch;
  for (const topo::NodeId v : dirty_list) {
    if (v != res.source) gather_first_hops(new_view, res, v, scratch);
  }
  // A lineage of repairs appends every rebuilt set: keep the arena within
  // twice its live size.
  if (res.first_hops.arena_size() > 2 * res.first_hops.live_size()) {
    res.first_hops.compact();
  }

  out.mode = SpfUpdate::Mode::kIncremental;
  out.result = std::move(res);
  return out;
}

std::vector<RoutingTable> compute_all_routes(const NetworkView& view) {
  std::vector<RoutingTable> tables;
  tables.reserve(view.node_count());
  for (topo::NodeId n = 0; n < view.node_count(); ++n) {
    tables.push_back(compute_routes(view, n));
  }
  return tables;
}

std::vector<WeightedNextHop> lowest_terms(std::span<const WeightedNextHop> hops) {
  std::vector<WeightedNextHop> out(hops.begin(), hops.end());
  std::ranges::sort(out, {}, &WeightedNextHop::via);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (kept > 0 && out[kept - 1].via == out[i].via) {
      out[kept - 1].weight += out[i].weight;
    } else {
      out[kept++] = out[i];
    }
  }
  out.resize(kept);
  std::uint32_t g = 0;
  for (const WeightedNextHop& nh : out) g = std::gcd(g, nh.weight);
  if (g > 1) {
    for (WeightedNextHop& nh : out) nh.weight /= g;
  }
  return out;
}

std::vector<net::Prefix> changed_prefixes(const RoutingTable& before,
                                          const RoutingTable& after) {
  std::vector<net::Prefix> changed;
  auto b = before.begin();
  auto a = after.begin();
  while (b != before.end() || a != after.end()) {
    if (a == after.end() || (b != before.end() && b->first < a->first)) {
      changed.push_back((b++)->first);
    } else if (b == before.end() || a->first < b->first) {
      changed.push_back((a++)->first);
    } else {
      if (!(b->second == a->second)) changed.push_back(a->first);
      ++b;
      ++a;
    }
  }
  return changed;
}

RouteColumn column_of(const std::vector<RoutingTable>& tables,
                      const net::Prefix& prefix) {
  RouteColumn column(tables.size());
  for (std::size_t n = 0; n < tables.size(); ++n) {
    if (const auto it = tables[n].find(prefix); it != tables[n].end()) {
      column[n] = it->second;
    }
  }
  return column;
}

std::string to_string(const RouteEntry& entry, const topo::Topology& topo) {
  std::ostringstream out;
  out << "cost=" << entry.cost;
  if (entry.local) out << " local";
  out << " via {";
  bool first = true;
  for (const auto& nh : entry.next_hops) {
    if (!first) out << ", ";
    first = false;
    out << topo.node(nh.via).name;
    if (nh.weight > 1) out << " x" << nh.weight;
  }
  out << "}";
  return out.str();
}

}  // namespace fibbing::igp
