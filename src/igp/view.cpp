#include "igp/view.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "util/assert.hpp"

namespace fibbing::igp {

namespace {

const RouterLsa* router_lsa(const Lsdb& lsdb, topo::NodeId n) {
  const Lsa* lsa = lsdb.find(LsaKey{LsaType::kRouter, n});
  if (lsa == nullptr) return nullptr;
  const auto& router = std::get<RouterLsa>(lsa->body);
  FIB_ASSERT(router.origin == n, "patch_from_lsdb: Router-LSA key != origin");
  return &router;
}

/// True when `links` lists `link`: the same neighbor, metric, subnet and
/// local address.
bool lists(const std::vector<LsaLink>& links, const LsaLink& link) {
  return std::any_of(links.begin(), links.end(), [&](const LsaLink& l) {
    return l.neighbor == link.neighbor && l.metric == link.metric &&
           l.subnet == link.subnet && l.local_addr == link.local_addr;
  });
}

bool same_prefixes(const std::vector<LsaPrefix>& a, const std::vector<LsaPrefix>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const LsaPrefix& x, const LsaPrefix& y) {
                      return x.prefix == y.prefix && x.metric == y.metric;
                    });
}

/// Append the changes from `before` to `after`, both `u`'s out-edges: their
/// multiset difference by (to, metric), ascending (a metric change is a
/// removal plus an insertion).
void diff_out_edges(topo::NodeId u, const std::vector<NetworkView::Edge>& before,
                    const std::vector<NetworkView::Edge>& after,
                    std::vector<EdgeDelta>& deltas) {
  const auto key = [](const NetworkView::Edge& e) { return std::make_pair(e.to, e.metric); };
  if (before.size() == after.size() &&
      std::equal(before.begin(), before.end(), after.begin(),
                 [&](const NetworkView::Edge& x, const NetworkView::Edge& y) {
                   return key(x) == key(y);
                 })) {
    return;
  }
  std::vector<NetworkView::Edge> a(before.begin(), before.end());
  std::vector<NetworkView::Edge> b(after.begin(), after.end());
  const auto by_key = [&](const NetworkView::Edge& x, const NetworkView::Edge& y) {
    return key(x) < key(y);
  };
  std::sort(a.begin(), a.end(), by_key);
  std::sort(b.begin(), b.end(), by_key);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && key(a[i]) < key(b[j]))) {
      deltas.push_back(EdgeDelta{u, a[i].to, a[i].metric, /*removed=*/true});
      ++i;
    } else if (i == a.size() || key(b[j]) < key(a[i])) {
      deltas.push_back(EdgeDelta{u, b[j].to, b[j].metric, /*removed=*/false});
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
}

}  // namespace

NetworkView NetworkView::from_topology(const topo::Topology& topo,
                                       std::vector<External> externals,
                                       const topo::LinkStateMask* link_state) {
  const auto down = [&](topo::LinkId lid) {
    return link_state != nullptr && link_state->is_down(lid);
  };
  NetworkView view(topo.node_count());
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    for (const topo::LinkId lid : topo.out_links(n)) {
      if (down(lid)) continue;
      const topo::Link& link = topo.link(lid);
      view.adj_[n].push_back(Edge{link.to, link.metric});
      view.in_[link.to].push_back(InEdge{n, link.metric});
    }
  }
  // One Subnet per bidirectional pair: take the direction with from < to.
  for (topo::LinkId lid = 0; lid < topo.link_count(); ++lid) {
    if (down(lid)) continue;
    const topo::Link& link = topo.link(lid);
    if (link.from < link.to) {
      const topo::Link& rev = topo.link(link.reverse);
      view.subnets_.push_back(Subnet{link.subnet, link.from, link.to, link.metric,
                                     rev.metric, link.local_addr, rev.local_addr});
    }
  }
  for (const auto& att : topo.prefixes()) {
    view.attachments_.push_back(Attachment{att.prefix, att.node, att.metric});
  }
  view.externals_ = std::move(externals);
  view.index_subnet_addresses_();
  return view;
}

NetworkView NetworkView::from_lsdb(const Lsdb& lsdb, std::size_t node_count) {
  NetworkView view(node_count);
  // Collect both half-links of each subnet before emitting Subnet records.
  struct Half {
    topo::NodeId origin;
    LsaLink link;
  };
  std::map<std::pair<std::uint32_t, std::uint8_t>, std::vector<Half>> halves;

  for (const Lsa* lsa : lsdb.live()) {
    if (const auto* router = std::get_if<RouterLsa>(&lsa->body)) {
      FIB_ASSERT(router->origin < node_count, "from_lsdb: origin out of range");
      for (const LsaLink& link : router->links) {
        // Only use an adjacency if the neighbor's Router-LSA is also present
        // (OSPF's two-way check).
        const Lsa* peer = lsdb.find(LsaKey{LsaType::kRouter, link.neighbor});
        if (peer == nullptr) continue;
        view.adj_[router->origin].push_back(Edge{link.neighbor, link.metric});
        view.in_[link.neighbor].push_back(InEdge{router->origin, link.metric});
        halves[{link.subnet.network().bits(), link.subnet.length()}].push_back(
            Half{router->origin, link});
      }
      for (const LsaPrefix& pfx : router->prefixes) {
        view.attachments_.push_back(Attachment{pfx.prefix, router->origin, pfx.metric});
      }
    } else if (const auto* ext = std::get_if<ExternalLsa>(&lsa->body)) {
      view.externals_.push_back(
          External{ext->lie_id, ext->prefix, ext->ext_metric, ext->forwarding_address});
    }
  }
  for (const auto& [key, sides] : halves) {
    if (sides.size() != 2) continue;  // half-configured adjacency: unusable
    const Half& a = sides[0];
    const Half& b = sides[1];
    view.subnets_.push_back(Subnet{a.link.subnet, a.origin, b.origin, a.link.metric,
                                   b.link.metric, a.link.local_addr,
                                   b.link.local_addr});
  }
  view.index_subnet_addresses_();
  return view;
}

void NetworkView::index_subnet_addresses_() {
  fwd_index_.reserve(2 * subnets_.size());
  for (std::uint32_t i = 0; i < subnets_.size(); ++i) {
    const Subnet& subnet = subnets_[i];
    fwd_index_.emplace(subnet.addr_a, std::pair{i, subnet.a});
    fwd_index_.emplace(subnet.addr_b, std::pair{i, subnet.b});
  }
}

std::size_t NetworkView::patch_from_lsdb(const Lsdb& lsdb,
                                         const std::vector<Lsdb::Change>& changes,
                                         std::vector<EdgeDelta>& deltas) {
  // Router keys sort before external ones, by origin: `origins` ascends.
  std::vector<topo::NodeId> origins;
  bool presence_flip = false;
  for (const Lsdb::Change& change : changes) {
    if (change.key.type == LsaType::kExternal) {
      patch_external_(lsdb, change.key.key);
      continue;
    }
    FIB_ASSERT(change.key.key < adj_.size(), "patch_from_lsdb: origin out of range");
    origins.push_back(static_cast<topo::NodeId>(change.key.key));
    presence_flip = presence_flip ||
                    (change.before != nullptr) != (lsdb.find(change.key) != nullptr);
  }
  if (origins.empty()) return 0;  // lies only: no edge, subnet or prefix moved
  if (presence_flip) {
    // A router appeared or vanished: the two-way check of every edge into
    // it flipped, so re-read every origin, once.
    origins.resize(adj_.size());
    std::iota(origins.begin(), origins.end(), topo::NodeId{0});
    subnets_.clear();
    fwd_index_.clear();
  }

  const std::size_t first_delta = deltas.size();
  std::vector<Edge> fresh;
  for (const topo::NodeId u : origins) {
    fresh.clear();
    if (const RouterLsa* router = router_lsa(lsdb, u)) {
      for (const LsaLink& link : router->links) {
        // from_lsdb's two-way check: the neighbor's Router-LSA is present.
        if (router_lsa(lsdb, link.neighbor) != nullptr) {
          fresh.push_back(Edge{link.neighbor, link.metric});
        }
      }
    }
    diff_out_edges(u, adj_[u], fresh, deltas);
    adj_[u].assign(fresh.begin(), fresh.end());  // keeps u's own buffer
  }
  // The in-edges take the same multiset diff.
  for (std::size_t i = first_delta; i < deltas.size(); ++i) {
    const EdgeDelta& d = deltas[i];
    std::vector<InEdge>& in = in_[d.to];
    if (!d.removed) {
      in.push_back(InEdge{d.from, d.metric});
      continue;
    }
    const auto it = std::find_if(in.begin(), in.end(), [&](const InEdge& e) {
      return e.from == d.from && e.metric == d.metric;
    });
    FIB_ASSERT(it != in.end(), "patch_from_lsdb: removed edge was never in");
    *it = in.back();
    in.pop_back();
  }

  if (presence_flip) {
    pair_subnets_(lsdb, origins);
    attachments_.clear();
    for (const topo::NodeId u : origins) add_attachments_(lsdb, u);
    return origins.size();
  }

  // Each origin changed its Router-LSA in place. A subnet is paired from
  // the links of both its routers, so it changes only where a link left,
  // arrived or changed (neighbor, metric, subnet or local address): drop
  // the subnets of every such old link first, then pair every such new
  // link. A link both of whose ends changed is paired once, by whichever
  // end comes first.
  const auto router_of = [](const LsaPtr& lsa) -> const RouterLsa& {
    return std::get<RouterLsa>(lsa->body);
  };
  // Without a presence flip a changed Router-LSA is present before and
  // after, unless it came and went within the drain.
  for (const Lsdb::Change& change : changes) {
    if (change.key.type != LsaType::kRouter || change.before == nullptr) continue;
    const RouterLsa& now = *router_lsa(lsdb, static_cast<topo::NodeId>(change.key.key));
    for (const LsaLink& link : router_of(change.before).links) {
      if (!lists(now.links, link)) drop_subnet_(link.local_addr);
    }
  }
  std::vector<topo::NodeId> reread;
  for (const Lsdb::Change& change : changes) {
    if (change.key.type != LsaType::kRouter || change.before == nullptr) continue;
    const auto u = static_cast<topo::NodeId>(change.key.key);
    const RouterLsa& before = router_of(change.before);
    const RouterLsa& now = *router_lsa(lsdb, u);
    for (const LsaLink& link : now.links) {
      if (!lists(before.links, link) && !fwd_index_.contains(link.local_addr)) {
        pair_link_(lsdb, u, link);
      }
    }
    if (!same_prefixes(before.prefixes, now.prefixes)) reread.push_back(u);
  }
  // Only origins whose prefixes changed re-read them.
  if (!reread.empty()) {
    std::erase_if(attachments_, [&](const Attachment& att) {
      return std::binary_search(reread.begin(), reread.end(), att.node);
    });
    for (const topo::NodeId u : reread) add_attachments_(lsdb, u);
  }
  return origins.size();
}

void NetworkView::drop_subnet_(net::Ipv4 addr) {
  const auto it = fwd_index_.find(addr);
  if (it == fwd_index_.end()) return;  // never paired, or dropped from its other end
  const std::uint32_t i = it->second.first;
  fwd_index_.erase(subnets_[i].addr_a);
  fwd_index_.erase(subnets_[i].addr_b);
  // Swap-and-pop, so only the moved subnet's two index entries change.
  if (i + 1 != subnets_.size()) {
    subnets_[i] = subnets_.back();
    fwd_index_.at(subnets_[i].addr_a).first = i;
    fwd_index_.at(subnets_[i].addr_b).first = i;
  }
  subnets_.pop_back();
}

void NetworkView::pair_subnets_(const Lsdb& lsdb,
                                const std::vector<topo::NodeId>& origins) {
  for (const topo::NodeId u : origins) {
    const RouterLsa* router = router_lsa(lsdb, u);
    if (router == nullptr) continue;
    for (const LsaLink& link : router->links) {
      const topo::NodeId v = link.neighbor;
      if (v < u && std::binary_search(origins.begin(), origins.end(), v)) {
        continue;  // paired when v was re-read
      }
      pair_link_(lsdb, u, link);
    }
  }
}

void NetworkView::pair_link_(const Lsdb& lsdb, topo::NodeId u, const LsaLink& link) {
  const topo::NodeId v = link.neighbor;
  const RouterLsa* peer = router_lsa(lsdb, v);
  if (peer == nullptr) return;  // two-way check
  const auto half =
      std::find_if(peer->links.begin(), peer->links.end(),
                   [&](const LsaLink& other) { return other.subnet == link.subnet; });
  if (half == peer->links.end()) return;  // half-configured adjacency
  // from_lsdb's orientation: `a` is the lower origin.
  const LsaLink& lo = u < v ? link : *half;
  const LsaLink& hi = u < v ? *half : link;
  const auto i = static_cast<std::uint32_t>(subnets_.size());
  subnets_.push_back(Subnet{lo.subnet, std::min(u, v), std::max(u, v), lo.metric,
                            hi.metric, lo.local_addr, hi.local_addr});
  fwd_index_.emplace(lo.local_addr, std::pair{i, std::min(u, v)});
  fwd_index_.emplace(hi.local_addr, std::pair{i, std::max(u, v)});
}

void NetworkView::add_attachments_(const Lsdb& lsdb, topo::NodeId u) {
  if (const RouterLsa* router = router_lsa(lsdb, u)) {
    for (const LsaPrefix& pfx : router->prefixes) {
      attachments_.push_back(Attachment{pfx.prefix, u, pfx.metric});
    }
  }
}

void NetworkView::patch_external_(const Lsdb& lsdb, std::uint64_t lie_id) {
  // from_lsdb lists externals by key, i.e. by lie id; keep that order.
  const auto it = std::lower_bound(
      externals_.begin(), externals_.end(), lie_id,
      [](const External& ext, std::uint64_t id) { return ext.lie_id < id; });
  const bool held = it != externals_.end() && it->lie_id == lie_id;
  const Lsa* lsa = lsdb.find(LsaKey{LsaType::kExternal, lie_id});
  const auto* ext = lsa == nullptr ? nullptr : std::get_if<ExternalLsa>(&lsa->body);
  if (ext == nullptr || ext->withdrawn) {
    if (held) externals_.erase(it);
    return;
  }
  const External fresh{ext->lie_id, ext->prefix, ext->ext_metric, ext->forwarding_address};
  if (held) {
    *it = fresh;
  } else {
    externals_.insert(it, fresh);
  }
}

const std::vector<NetworkView::Edge>& NetworkView::edges_from(topo::NodeId n) const {
  FIB_ASSERT(n < adj_.size(), "edges_from: node out of range");
  return adj_[n];
}

const std::vector<NetworkView::InEdge>& NetworkView::edges_into(topo::NodeId n) const {
  FIB_ASSERT(n < in_.size(), "edges_into: node out of range");
  return in_[n];
}

std::optional<NetworkView::FwdAddrMatch> NetworkView::resolve_forwarding_address(
    net::Ipv4 addr) const {
  const auto it = fwd_index_.find(addr);
  if (it == fwd_index_.end()) return std::nullopt;
  return FwdAddrMatch{&subnets_[it->second.first], it->second.second};
}

}  // namespace fibbing::igp
