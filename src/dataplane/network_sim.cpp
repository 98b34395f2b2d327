#include "dataplane/network_sim.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <utility>

#include "dataplane/rate_solver.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace fibbing::dataplane {

NetworkSim::NetworkSim(const topo::Topology& topo, util::EventQueue& events,
                       std::shared_ptr<topo::LinkStateMask> link_state)
    : topo_(topo),
      events_(events),
      fibs_(topo.node_count()),
      link_state_(link_state != nullptr
                      ? std::move(link_state)
                      : std::make_shared<topo::LinkStateMask>(topo)),
      entering_(topo.node_count()),
      crossing_(topo.link_count()),
      fits_(topo.link_count(), true),
      link_rates_(topo.link_count(), 0.0),
      link_bytes_(topo.link_count(), 0.0) {
  link_state_->subscribe([this](topo::LinkId id, bool down) { on_link_event_(id, down); });
}

namespace {

/// The routers whose FIB a walk read: the ingress and each link's far end.
bool visits(const topo::Topology& topo, const Flow& flow, const FlowPath& path,
            topo::NodeId node) {
  return flow.ingress == node ||
         std::any_of(path.links.begin(), path.links.end(),
                     [&](topo::LinkId l) { return topo.link(l).to == node; });
}

bool same_entry(const FibEntry* a, const FibEntry* b) {
  return a == nullptr || b == nullptr ? a == b : *a == *b;
}

/// The fit rule. A link of `capacity` whose `n` delivered flows' demands,
/// summed in id order, come to `offered` fits when
///   offered <= capacity * (1 - (2n + 4) * DBL_EPSILON).
/// When every link fits, every round of max_min_rates freezes flows at their
/// demand. With u = DBL_EPSILON / 2 the unit roundoff:
///  - the exact sum S of the n non-negative demands is at most (1 + n u)
///    times their id-order sum, so a fitting link's exact slack,
///    capacity - S, is at least (3n + 6) u * capacity, counting the
///    rounding of the threshold itself;
///  - in a round, max_min_rates' residual for the link is its capacity less
///    the demands frozen so far, taken off one at a time: at most n - 1
///    rounded subtractions of values no larger than capacity, so it is
///    within n u * capacity of the exact residual. That is the slack plus
///    the demands of the k flows still active on the link, each at least m,
///    the smallest active demand;
///  - the fair share divides the residual by k, rounding once more, by at
///    most u * capacity / k.
/// So every fair share is at least m + (2n + 5) u * capacity / k > m, and
/// the round freezes flows at their demand. A NaN or infinite sum never
/// fits, and neither does a link filled exactly to capacity.
bool link_fits(double offered, std::size_t n, double capacity) {
  const double margin = static_cast<double>(2 * n + 4) * DBL_EPSILON;
  return std::isfinite(offered) && offered <= capacity * (1.0 - margin);
}

}  // namespace

void NetworkSim::flip_table(topo::NodeId node, const igp::RoutingTable& table,
                            std::span<const net::Prefix> changed) {
  FIB_ASSERT(node < fibs_.size(), "flip_table: node out of range");
  settle_();
  if (changed.empty()) return;
  std::vector<FibPatch> patch;
  patch.reserve(changed.size());
  for (const net::Prefix& prefix : changed) {
    const auto it = table.find(prefix);
    if (it == table.end() || !it->second.reachable()) {
      patch.push_back(FibPatch{prefix, std::nullopt});
    } else {
      patch.push_back(FibPatch{prefix, Fib::compile_entry(topo_, node, it->second)});
    }
  }
  patch_fib_(node, std::move(patch));
}

void NetworkSim::set_fib(topo::NodeId node, Fib fib) {
  FIB_ASSERT(node < fibs_.size(), "set_fib: node out of range");
  settle_();
  // Every entry of the new FIB, and an erase for each prefix only the
  // installed one holds; patch_fib_ drops the entries that stay the same.
  std::vector<FibPatch> patch;
  fib.for_each([&](const net::Prefix& prefix, const FibEntry& entry) {
    patch.push_back(FibPatch{prefix, entry});
  });
  fibs_[node].for_each([&](const net::Prefix& prefix, const FibEntry&) {
    if (fib.exact(prefix) == nullptr) patch.push_back(FibPatch{prefix, std::nullopt});
  });
  patch_fib_(node, std::move(patch));
}

void NetworkSim::patch_fib_(topo::NodeId node, std::vector<FibPatch> patch) {
  Fib& fib = fibs_[node];
  std::erase_if(patch, [&](const FibPatch& p) {
    return same_entry(fib.exact(p.prefix), p.entry ? &*p.entry : nullptr);
  });
  if (patch.empty()) return;
  const auto by_prefix = [](const FibPatch& x, const FibPatch& y) {
    return x.prefix < y.prefix;
  };
  std::sort(patch.begin(), patch.end(), by_prefix);

  // At each router it visits, a walk reads only that router's entry for the
  // flow's destination: a path through `node` can move only if that entry
  // changed, so only if a patched prefix covers the destination. The flows
  // visiting `node` enter there, or are delivered over one of its in-links,
  // or are undelivered; visit them in id order.
  std::vector<FlowId> candidates = entering_[node];
  candidates.insert(candidates.end(), undelivered_.begin(), undelivered_.end());
  for (const topo::LinkId out : topo_.out_links(node)) {
    for (const Crossing& c : crossing_[topo_.link(out).reverse]) {
      candidates.push_back(c.id);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  // Each such flow's entry before the patch: an unpatched entry stays where
  // it is; a patched one is read back from its patch after the exchange.
  struct Reader {
    FlowId id = 0;
    const FibEntry* kept = nullptr;
    std::size_t patched = 0;  // index into patch, or patch.size()
  };
  std::vector<Reader> readers;
  for (const FlowId id : candidates) {
    const FlowState& state = flows_.find(id)->second;
    const net::Ipv4 dst = state.flow.dst;
    if (!visits(topo_, state.flow, state.path, node) ||
        std::none_of(patch.begin(), patch.end(),
                     [&](const FibPatch& p) { return p.prefix.contains(dst); })) {
      continue;
    }
    Reader reader{id, nullptr, patch.size()};
    if (const auto match = fib.match(dst)) {
      const auto at = std::lower_bound(patch.begin(), patch.end(),
                                       FibPatch{match->prefix, std::nullopt}, by_prefix);
      if (at != patch.end() && at->prefix == match->prefix) {
        reader.patched = static_cast<std::size_t>(at - patch.begin());
      } else {
        reader.kept = match->value;
      }
    }
    readers.push_back(reader);
  }
  for (FibPatch& p : patch) p.entry = fib.exchange(p.prefix, std::move(p.entry));

  std::vector<FlowId> changed;
  for (const Reader& reader : readers) {
    const FibEntry* before =
        reader.patched < patch.size() ? &*patch[reader.patched].entry : reader.kept;
    if (!same_entry(before, fib.lookup(flows_.find(reader.id)->second.flow.dst))) {
      changed.push_back(reader.id);
    }
  }
  const std::vector<FlowId> moved = rewalk_(changed);
  if (!moved.empty()) update_rates_(moved);
}

void NetworkSim::install_tables(const std::vector<igp::RoutingTable>& tables) {
  FIB_ASSERT(tables.size() == fibs_.size(), "install_tables: size mismatch");
  for (topo::NodeId n = 0; n < tables.size(); ++n) {
    fibs_[n] = Fib::from_routing_table(topo_, n, tables[n]);
  }
  rewalk_all_();
}

const Fib& NetworkSim::fib(topo::NodeId node) const {
  FIB_ASSERT(node < fibs_.size(), "fib: node out of range");
  return fibs_[node];
}

void NetworkSim::fail_link(topo::LinkId id) {
  FIB_ASSERT(id < topo_.link_count(), "fail_link: link out of range");
  link_state_->fail(id);  // reactions run via the mask subscriptions
}

void NetworkSim::restore_link(topo::LinkId id) {
  FIB_ASSERT(id < topo_.link_count(), "restore_link: link out of range");
  link_state_->restore(id);
}

bool NetworkSim::link_is_down(topo::LinkId id) const {
  FIB_ASSERT(id < topo_.link_count(), "link_is_down: link out of range");
  return link_state_->is_down(id);
}

FlowId NetworkSim::add_flow(Flow flow) {
  if (flow.id == 0) flow.id = next_flow_id_;
  FIB_ASSERT(!flows_.contains(flow.id), "add_flow: duplicate id");
  FIB_ASSERT(flow.ingress < topo_.node_count(), "add_flow: bad ingress");
  next_flow_id_ = std::max(next_flow_id_, flow.id + 1);
  settle_();
  const FlowId id = flow.id;
  std::vector<FlowId>& entering = entering_[flow.ingress];
  entering.insert(std::lower_bound(entering.begin(), entering.end(), id), id);
  FlowPath path = walk_(flow);
  index_(flow, path, true);
  flows_.emplace(id, FlowState{std::move(flow), std::move(path), 0.0});
  update_rates_({id});
  return id;
}

void NetworkSim::remove_flow(FlowId id) {
  const auto it = flows_.find(id);
  FIB_ASSERT(it != flows_.end(), "remove_flow: unknown flow");
  std::vector<FlowId>& entering = entering_[it->second.flow.ingress];
  const auto at = std::lower_bound(entering.begin(), entering.end(), id);
  FIB_ASSERT(at != entering.end() && *at == id, "remove_flow: flow not entering");
  entering.erase(at);
  index_(it->second.flow, it->second.path, false);
  flows_.erase(it);
  settle_();
  update_rates_({});
}

double NetworkSim::flow_rate(FlowId id) const {
  const auto it = flows_.find(id);
  FIB_ASSERT(it != flows_.end(), "flow_rate: unknown flow");
  return it->second.rate_bps;
}

const FlowPath& NetworkSim::flow_path(FlowId id) const {
  const auto it = flows_.find(id);
  FIB_ASSERT(it != flows_.end(), "flow_path: unknown flow");
  return it->second.path;
}

double NetworkSim::link_rate(topo::LinkId link) const {
  FIB_ASSERT(link < link_rates_.size(), "link_rate: out of range");
  return link_rates_[link];
}

double NetworkSim::link_utilization(topo::LinkId link) const {
  return link_rate(link) / topo_.link(link).capacity_bps;
}

std::uint64_t NetworkSim::link_bytes(topo::LinkId link) {
  FIB_ASSERT(link < link_bytes_.size(), "link_bytes: out of range");
  settle_();
  return static_cast<std::uint64_t>(link_bytes_[link]);
}

std::size_t NetworkSim::looping_flows() const {
  std::size_t n = 0;
  for (const auto& [id, state] : flows_) {
    if (state.path.outcome == FlowPath::Outcome::kLoop) ++n;
  }
  return n;
}

std::size_t NetworkSim::blackholed_flows() const {
  std::size_t n = 0;
  for (const auto& [id, state] : flows_) {
    if (state.path.outcome == FlowPath::Outcome::kBlackhole) ++n;
  }
  return n;
}

void NetworkSim::settle_() {
  const util::SimTime now = events_.now();
  const double dt = now - settled_at_;
  if (dt <= 0.0) return;
  for (topo::LinkId l = 0; l < link_rates_.size(); ++l) {
    link_bytes_[l] += link_rates_[l] * dt / 8.0;  // rates are bits/s
  }
  settled_at_ = now;
}

FlowPath NetworkSim::walk_(const Flow& flow) {
  ++flow_walks_;
  return walk_flow(topo_, fibs_, flow, link_state_->bits());
}

void NetworkSim::index_(const Flow& flow, const FlowPath& path, bool add) {
  if (!path.delivered()) {
    const auto at = std::lower_bound(undelivered_.begin(), undelivered_.end(), flow.id);
    if (add) {
      undelivered_.insert(at, flow.id);
    } else {
      FIB_ASSERT(at != undelivered_.end() && *at == flow.id,
                 "index_: flow not undelivered");
      undelivered_.erase(at);
    }
    return;
  }
  for (const topo::LinkId l : path.links) {
    std::vector<Crossing>& on = crossing_[l];
    const auto at = std::lower_bound(
        on.begin(), on.end(), flow.id,
        [](const Crossing& c, FlowId id) { return c.id < id; });
    if (add) {
      on.insert(at, Crossing{flow.id, flow.demand_bps});  // a fresh id appends
    } else {
      FIB_ASSERT(at != on.end() && at->id == flow.id, "index_: flow not on link");
      on.erase(at);
    }
    touched_.push_back(l);
  }
}

void NetworkSim::on_link_event_(topo::LinkId id, bool down) {
  settle_();
  // A walk reads the down bit of only the links it picks. A delivered walk
  // picked only up links and is indexed on each, so a failure can move the
  // flows crossing the link either way and the undelivered ones (a loop or
  // a blackhole may have traversed it), and a restoration only the
  // undelivered ones.
  std::vector<FlowId> candidates = undelivered_;
  if (down) {
    for (const topo::LinkId l : {id, topo_.link(id).reverse}) {
      for (const Crossing& c : crossing_[l]) candidates.push_back(c.id);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  }
  update_rates_(rewalk_(candidates));
}

std::vector<FlowId> NetworkSim::rewalk_(const std::vector<FlowId>& ids) {
  std::vector<FlowId> moved;
  for (const FlowId id : ids) {
    FlowState& state = flows_.find(id)->second;
    FlowPath path = walk_(state.flow);
    if (path == state.path) continue;
    index_(state.flow, state.path, false);
    state.path = std::move(path);
    index_(state.flow, state.path, true);
    moved.push_back(id);
  }
  return moved;
}

void NetworkSim::rewalk_all_() {
  settle_();
  // Rebuild the index from empty lists: walking in id order appends.
  for (topo::LinkId l = 0; l < crossing_.size(); ++l) {
    crossing_[l].clear();
    touched_.push_back(l);
  }
  undelivered_.clear();
  std::vector<FlowId> moved;
  moved.reserve(flows_.size());
  for (auto& [id, state] : flows_) {
    state.path = walk_(state.flow);
    index_(state.flow, state.path, true);
    moved.push_back(id);
  }
  update_rates_(moved);
}

void NetworkSim::update_rates_(const std::vector<FlowId>& moved) {
  ++rate_solves_;
  const bool fit_before = oversubscribed_ == 0;
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());
  for (const topo::LinkId l : touched_) {
    double offered = 0.0;
    for (const Crossing& c : crossing_[l]) offered += c.demand_bps;
    const bool fits = link_fits(offered, crossing_[l].size(), topo_.link(l).capacity_bps);
    if (fits != fits_[l]) {
      fits_[l] = fits;
      if (fits) {
        --oversubscribed_;
      } else {
        ++oversubscribed_;
      }
    }
    // The id-order sum solve_rates_ produces when every flow gets its
    // demand; a full solve below rewrites every link rate anyway.
    link_rates_[l] = offered;
  }
  touched_.clear();
  // Leaving oversubscription raises many rates: that takes the full solve.
  if (!fit_before || oversubscribed_ > 0) {
    solve_rates_();
    return;
  }
  std::vector<std::pair<FlowId, double>> changed;
  for (const FlowId id : moved) {
    FlowState& state = flows_.find(id)->second;
    const double rate = state.path.delivered() ? state.flow.demand_bps : 0.0;
    if (state.rate_bps != rate) changed.emplace_back(id, rate);
    state.rate_bps = rate;
  }
  notify_(changed);
}

void NetworkSim::solve_rates_() {
  ++max_min_solves_;
  std::vector<RatedFlow> rated;
  rated.reserve(flows_.size());
  for (const auto& [id, state] : flows_) {
    rated.push_back(RatedFlow{id, state.flow.demand_bps, &state.path});
  }
  const std::vector<double> rates = max_min_rates(topo_, rated);

  std::fill(link_rates_.begin(), link_rates_.end(), 0.0);
  std::vector<std::pair<FlowId, double>> changed;
  std::size_t i = 0;
  for (auto& [id, state] : flows_) {
    const double rate = rates[i++];
    if (state.rate_bps != rate) changed.emplace_back(id, rate);
    state.rate_bps = rate;
    if (state.path.delivered()) {
      for (const topo::LinkId l : state.path.links) link_rates_[l] += rate;
    }
  }
  notify_(changed);
}

void NetworkSim::notify_(const std::vector<std::pair<FlowId, double>>& changed) {
  for (const auto& [id, rate] : changed) {
    for (const auto& listener : listeners_) {
      // A listener may change the flow set (a finished video stops its
      // session): the nested solve has then delivered the newer rate.
      const auto it = flows_.find(id);
      if (it == flows_.end() || it->second.rate_bps != rate) break;
      listener(id, rate);
    }
  }
}

}  // namespace fibbing::dataplane
