#include "te/minmax.hpp"

#include <algorithm>
#include <queue>

#include "igp/routes.hpp"
#include "te/maxflow.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace fibbing::te {

namespace {

constexpr double kThetaCeiling = 1e9;
/// Binary-search termination, relative on theta.
constexpr double kPrecision = 1e-4;
/// Refinement rounds (tie pass + sliver pass each round).
constexpr int kRefineRounds = 2;

/// Metric distance of every node toward `dest` (reverse Dijkstra), over the
/// links `link_state` leaves up.
std::vector<topo::Metric> dist_to_node(const topo::Topology& topo,
                                       topo::NodeId dest,
                                       const topo::LinkStateMask* link_state) {
  const std::size_t n = topo.node_count();
  std::vector<topo::Metric> dist(n, igp::kInfMetric);
  using Item = std::pair<topo::Metric, topo::NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[dest] = 0;
  heap.emplace(0, dest);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    for (const topo::LinkId vl : topo.out_links(v)) {
      const topo::LinkId ul = topo.link(vl).reverse;  // u -> v
      if (link_state != nullptr && link_state->is_down(ul)) continue;
      const topo::NodeId u = topo.link(ul).from;
      const topo::Metric nd = d + topo.link(ul).metric;
      if (nd < dist[u]) {
        dist[u] = nd;
        heap.emplace(nd, u);
      }
    }
  }
  return dist;
}

/// Numerical slack for "the max flow carried the whole demand": relative to
/// the demand magnitude (Dinic's floating-point error grows with the
/// numbers it pushes -- a fixed 1e-6 bps term is invisible against
/// multi-Gbps totals and would misclassify them), with an absolute floor
/// for near-zero totals.
double feasibility_slack(double total_demand, double scale) {
  return scale * std::max(total_demand * 1e-9, 1e-6);
}

/// The feasibility network of one solve: an edge per directed link, in link
/// order, then one per demand from a super source. Every theta the search
/// probes re-capacitates the same network; the Dinic state of the last
/// probe is kept so the degeneracy-breaking refinement can reroute over its
/// residual graph instead of re-deriving it.
struct ThetaOracle {
  ThetaOracle(const topo::Topology& topo, const std::vector<Demand>& demands)
      : mf(topo.node_count() + 1) {
    const std::size_t super = topo.node_count();
    edge_of_link.reserve(topo.link_count());
    for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
      const topo::Link& link = topo.link(l);
      edge_of_link.push_back(mf.add_edge(link.from, link.to, 0.0));
    }
    source_edges.reserve(demands.size());
    for (const Demand& d : demands) {
      source_edges.push_back(mf.add_edge(super, d.ingress, d.rate_bps));
    }
    capacity.assign(edge_of_link.size(), 0.0);
    for (const Demand& d : demands) capacity.push_back(d.rate_bps);
  }

  MaxFlow mf;
  std::vector<std::size_t> edge_of_link;
  std::vector<std::size_t> source_edges;
  std::vector<double> capacity;  ///< per edge id: the last probe's capacities
  double pushed = 0.0;

  [[nodiscard]] bool feasible(double total_demand, double slack_scale = 1.0) const {
    return pushed >= total_demand - feasibility_slack(total_demand, slack_scale);
  }
};

/// Capacity a directed link offers at utilization bound `theta`, after the
/// background load and the allowed-link pruning.
double link_cap_at(const topo::Link& link, double bg, double theta, bool allowed) {
  if (!allowed) return 0.0;
  return std::max(theta * link.capacity_bps - bg, 0.0);
}

/// Solve `oracle` at utilization bound `theta` (the demand edges keep their
/// capacities); returns it.
const ThetaOracle& solve_at_theta(ThetaOracle& oracle, const topo::Topology& topo,
                                  topo::NodeId dest,
                                  const std::vector<double>& background, double theta,
                                  const std::vector<bool>& allowed) {
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    const double bg = background.empty() ? 0.0 : background[l];
    oracle.capacity[oracle.edge_of_link[l]] =
        link_cap_at(topo.link(l), bg, theta, allowed.empty() || allowed[l]);
  }
  oracle.mf.set_capacities(oracle.capacity);
  oracle.pushed = oracle.mf.solve(topo.node_count(), dest);
  return oracle;
}

/// Remove circulations from a feasible flow: repeatedly locate a cycle among
/// links with positive flow and subtract its bottleneck. Max-flow solutions
/// are usually already acyclic; this guarantees it (a forwarding DAG must
/// be loop-free by definition).
/// Locate one directed cycle among links with flow > eps (empty when the
/// flow graph is acyclic). Iterative DFS; the cycle is read off the stack.
std::vector<topo::LinkId> find_flow_cycle(const topo::Topology& topo,
                                          const std::vector<double>& flow,
                                          double eps) {
  const std::size_t n = topo.node_count();
  std::vector<int> color(n, 0);  // 0 white, 1 on stack, 2 done

  struct Frame {
    topo::NodeId node;
    std::size_t next_edge = 0;  // index into out_links(node)
  };
  for (topo::NodeId start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    std::vector<Frame> stack{Frame{start}};
    std::vector<topo::LinkId> path_edges;  // edge i connects stack[i] -> stack[i+1]
    color[start] = 1;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto& out = topo.out_links(frame.node);
      bool descended = false;
      while (frame.next_edge < out.size()) {
        const topo::LinkId l = out[frame.next_edge++];
        if (flow[l] <= eps) continue;
        const topo::NodeId v = topo.link(l).to;
        if (color[v] == 1) {
          // Back edge: the cycle is the stack suffix from v, plus l.
          std::vector<topo::LinkId> cycle;
          std::size_t j = 0;
          while (stack[j].node != v) ++j;
          for (std::size_t k = j; k + 1 < stack.size(); ++k) {
            cycle.push_back(path_edges[k]);
          }
          cycle.push_back(l);
          return cycle;
        }
        if (color[v] == 0) {
          color[v] = 1;
          path_edges.push_back(l);
          stack.push_back(Frame{v});
          descended = true;
          break;
        }
      }
      if (!descended) {
        color[frame.node] = 2;
        stack.pop_back();
        if (!path_edges.empty()) path_edges.pop_back();
      }
    }
  }
  return {};
}

void cancel_cycles(const topo::Topology& topo, std::vector<double>& flow,
                   double eps) {
  while (true) {
    const std::vector<topo::LinkId> cycle = find_flow_cycle(topo, flow, eps);
    if (cycle.empty()) return;
    double bottleneck = flow[cycle.front()];
    for (const topo::LinkId l : cycle) bottleneck = std::min(bottleneck, flow[l]);
    for (const topo::LinkId l : cycle) flow[l] -= bottleneck;
  }
}

/// Degeneracy-breaking refinement over the oracle's residual graph. Every
/// move is a circulation (a targeted edge push plus a residual return
/// path), so feasibility at the oracle's capacities -- theta* widened by
/// config.theta_relax -- and the total routed demand are both invariants.
///
/// Tie pass: a flow-carrying node whose baseline shortest-path next hop
/// carries nothing forces the lie compiler into strict undercutting, which
/// coarse IGP metrics often cannot express. Where the residual graph
/// permits, exactly granularity_floor of the node's outflow is moved onto
/// each excluded shortest-path link (that fraction is one FIB slot, so the
/// bounded-denominator rounding downstream represents it exactly).
///
/// Sliver pass: a split fraction below the floor cannot survive FIB-slot
/// rounding; its flow is rerouted over the residual graph so the advertised
/// splits match what the mechanism can actually install.
void refine_flow(const topo::Topology& topo, topo::NodeId dest,
                 ThetaOracle& oracle, const std::vector<bool>& spf_dag,
                 const std::vector<topo::Metric>& dist,
                 const MinMaxConfig& config, double eps, MinMaxResult& result) {
  const std::size_t n = topo.node_count();
  result.refined = true;

  // Reroutes must never touch the super-source edges: their residual slack
  // is oracle noise, not link capacity.
  const std::vector<std::size_t>& sources = oracle.source_edges;

  const auto flow_of = [&](topo::LinkId l) {
    return oracle.mf.flow_on(oracle.edge_of_link[l]);
  };
  const auto outflow_of = [&](topo::NodeId u) {
    double out = 0.0;
    for (const topo::LinkId l : topo.out_links(u)) {
      const double f = flow_of(l);
      if (f > eps) out += f;
    }
    return out;
  };

  // Far-from-dest nodes first, like the load propagation order.
  std::vector<topo::NodeId> order(n);
  for (topo::NodeId i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](topo::NodeId a, topo::NodeId b) { return dist[a] > dist[b]; });

  const double floor = std::clamp(config.granularity_floor, 0.0, 0.5);
  for (int round = 0; round < kRefineRounds; ++round) {
    bool changed = false;

    // --- tie pass: re-include excluded shortest-path next hops ------------
    for (const topo::NodeId u : order) {
      if (u == dest) continue;
      for (const topo::LinkId l : topo.out_links(u)) {
        if (!spf_dag[l] || flow_of(l) > eps) continue;
        const double out = outflow_of(u);
        if (out <= eps) break;  // node carries nothing; skip its links
        const double delta = floor * out;
        if (delta <= eps) continue;
        const std::size_t edge = oracle.edge_of_link[l];
        if (oracle.mf.residual_on(edge) < delta) continue;
        std::vector<std::size_t> banned = sources;
        banned.push_back(edge);
        const topo::LinkId rev = topo.link(l).reverse;
        if (rev != topo::kInvalidLink) banned.push_back(oracle.edge_of_link[rev]);
        if (oracle.mf.push_residual(topo.link(l).to, u, delta, banned)) {
          oracle.mf.push_on_edge(edge, delta);
          ++result.spf_ties_added;
          changed = true;
        }
      }
    }

    // --- sliver pass: reroute sub-floor fractions -------------------------
    for (const topo::NodeId u : order) {
      if (u == dest) continue;
      for (const topo::LinkId l : topo.out_links(u)) {
        const double f = flow_of(l);
        if (f <= eps) continue;
        const double out = outflow_of(u);
        if (f >= floor * out * (1.0 - 1e-9)) continue;
        std::vector<std::size_t> banned = sources;
        banned.push_back(oracle.edge_of_link[l]);
        const topo::LinkId rev = topo.link(l).reverse;
        if (rev != topo::kInvalidLink) banned.push_back(oracle.edge_of_link[rev]);
        if (oracle.mf.push_residual(u, topo.link(l).to, f, banned)) {
          oracle.mf.push_on_edge(oracle.edge_of_link[l], -f);
          ++result.slivers_removed;
          changed = true;
        }
      }
    }

    if (!changed) break;
  }

  // Tie-compilability verdict: every flow-carrying node's split set covers
  // all of its baseline shortest-path next hops.
  result.tie_complete = true;
  for (topo::NodeId u = 0; u < n && result.tie_complete; ++u) {
    if (u == dest || outflow_of(u) <= eps) continue;
    for (const topo::LinkId l : topo.out_links(u)) {
      if (spf_dag[l] && flow_of(l) <= eps) {
        result.tie_complete = false;
        break;
      }
    }
  }
}

/// shortest_path_dag over an already-computed distance vector (the solver
/// shares one reverse Dijkstra between stretch pruning, refinement ordering
/// and DAG membership). A link is tight when it is up and its metric plus
/// the distance of its head equals the distance of its tail.
std::vector<bool> dag_from_dist(const topo::Topology& topo,
                                const std::vector<topo::Metric>& dist,
                                const topo::LinkStateMask* link_state) {
  std::vector<bool> dag(topo.link_count(), false);
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    if (link_state != nullptr && link_state->is_down(l)) continue;
    const topo::Link& link = topo.link(l);
    if (dist[link.from] >= igp::kInfMetric || dist[link.to] >= igp::kInfMetric) {
      continue;
    }
    dag[l] = link.metric + dist[link.to] == dist[link.from];
  }
  return dag;
}

}  // namespace

std::vector<bool> shortest_path_dag(const topo::Topology& topo, topo::NodeId dest,
                                    const topo::LinkStateMask* link_state) {
  FIB_ASSERT(dest < topo.node_count(), "shortest_path_dag: bad destination");
  return dag_from_dist(topo, dist_to_node(topo, dest, link_state), link_state);
}

util::Result<MinMaxResult> solve_min_max(const topo::Topology& topo,
                                         topo::NodeId dest,
                                         const std::vector<Demand>& demands,
                                         const std::vector<double>& background_bps,
                                         const MinMaxConfig& config) {
  using R = util::Result<MinMaxResult>;
  const topo::LinkStateMask* link_state = config.link_state;
  if (dest >= topo.node_count()) return R::failure("min-max: unknown destination");
  if (!background_bps.empty() && background_bps.size() != topo.link_count()) {
    return R::failure("min-max: background vector size mismatch");
  }
  if (!config.support.empty() && config.support.size() != topo.link_count()) {
    return R::failure("min-max: support vector size mismatch");
  }
  double total = 0.0;
  for (const Demand& d : demands) {
    if (d.ingress >= topo.node_count()) return R::failure("min-max: bad ingress");
    if (d.rate_bps < 0.0) return R::failure("min-max: negative demand");
    total += d.rate_bps;
  }
  MinMaxResult result;
  result.link_flow.assign(topo.link_count(), 0.0);
  if (total <= 0.0) {
    result.tie_complete = true;
    return result;  // nothing to place
  }

  // One reverse Dijkstra serves stretch pruning, refinement ordering and
  // shortest-path-DAG membership alike.
  std::vector<topo::Metric> dist;
  if (config.max_stretch > 0.0 || config.refine) {
    dist = dist_to_node(topo, dest, link_state);
  }

  // Usable links: up (per the live mask), inside the caller's support
  // restriction, and -- when a stretch bound is set -- on paths within
  // max_stretch of the shortest metric toward dest, with the detour
  // distances themselves computed on the degraded topology.
  std::vector<bool> allowed;
  const bool masked = link_state != nullptr && link_state->any_down();
  if (config.max_stretch > 0.0 || masked || !config.support.empty()) {
    allowed.assign(topo.link_count(), true);
    if (masked) {
      for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
        if (link_state->is_down(l)) allowed[l] = false;
      }
    }
    if (!config.support.empty()) {
      for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
        if (!config.support[l]) allowed[l] = false;
      }
    }
    if (config.max_stretch > 0.0) {
      for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
        if (!allowed[l]) continue;
        const topo::Link& link = topo.link(l);
        if (dist[link.from] >= igp::kInfMetric || dist[link.to] >= igp::kInfMetric) {
          allowed[l] = false;
          continue;
        }
        allowed[l] = link.metric + dist[link.to] <=
                     config.max_stretch * static_cast<double>(dist[link.from]) + 1e-9;
      }
    }
  }

  // Find a feasible upper bound by doubling, then binary search.
  ThetaOracle oracle(topo, demands);
  double hi = 1.0;
  while (!solve_at_theta(oracle, topo, dest, background_bps, hi, allowed)
              .feasible(total)) {
    hi *= 2.0;
    if (hi > kThetaCeiling) {
      return R::failure(
          "min-max: destination unreachable from some ingress (check stretch "
          "bound)");
    }
  }
  double lo = 0.0;
  while (hi - lo > kPrecision * std::max(hi, 1.0)) {
    const double mid = 0.5 * (lo + hi);
    if (solve_at_theta(oracle, topo, dest, background_bps, mid, allowed)
            .feasible(total)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  // The last probe may have been an infeasible mid; the refinement and the
  // splits read the oracle's flow, so it must hold the flow at hi.
  solve_at_theta(oracle, topo, dest, background_bps, hi, allowed);
  if (!oracle.feasible(total)) {
    // The oracle is deterministic, so hi re-solves the way the search saw
    // it; still, never abort on an input (controllers must fail soft). A
    // widened slack absorbs boundary flips; past that the instance is
    // numerically unsound and the caller gets a failure, not an abort.
    if (!oracle.feasible(total, /*slack_scale=*/1e3)) {
      return R::failure("min-max: upper bound lost feasibility at theta " +
                        std::to_string(hi));
    }
    FIB_LOG(kDebug, "minmax") << "feasibility re-check at theta " << hi
                              << " needed widened slack";
  }

  const double eps = std::max(total, 1.0) * 1e-7;

  if (config.refine) {
    // The optimum before any refinement, cycles canceled (on the no-refine
    // path the final flow *is* the optimum; see below).
    std::vector<double> base_flow(topo.link_count(), 0.0);
    for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
      base_flow[l] = oracle.mf.flow_on(oracle.edge_of_link[l]);
    }
    cancel_cycles(topo, base_flow, eps);
    double theta_opt = 0.0;
    for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
      const double bg = background_bps.empty() ? 0.0 : background_bps[l];
      theta_opt = std::max(theta_opt, (base_flow[l] + bg) / topo.link(l).capacity_bps);
    }
    result.theta_opt = theta_opt;

    // Relax the residual capacities from hi to hi * (1 + theta_relax): the
    // refinement may use the headroom, the binary-search optimum does not.
    if (config.theta_relax > 0.0) {
      const double theta_ref = hi * (1.0 + config.theta_relax);
      for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
        const topo::Link& link = topo.link(l);
        const double bg = background_bps.empty() ? 0.0 : background_bps[l];
        const bool ok = allowed.empty() || allowed[l];
        const double extra = link_cap_at(link, bg, theta_ref, ok) -
                             link_cap_at(link, bg, hi, ok);
        if (extra > 0.0) oracle.mf.widen(oracle.edge_of_link[l], extra);
      }
    }
    refine_flow(topo, dest, oracle, dag_from_dist(topo, dist, link_state), dist,
                config, eps, result);
  }

  std::vector<double> final_flow(topo.link_count(), 0.0);
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    final_flow[l] = oracle.mf.flow_on(oracle.edge_of_link[l]);
  }
  cancel_cycles(topo, final_flow, eps);

  // Fractional splits from the flow DAG.
  for (topo::NodeId u = 0; u < topo.node_count(); ++u) {
    if (u == dest) continue;
    double out = 0.0;
    for (const topo::LinkId l : topo.out_links(u)) {
      if (final_flow[l] > eps) out += final_flow[l];
    }
    if (out <= eps) continue;
    std::vector<std::pair<topo::NodeId, double>> split;
    for (const topo::LinkId l : topo.out_links(u)) {
      if (final_flow[l] > eps) {
        split.emplace_back(topo.link(l).to, final_flow[l] / out);
      }
    }
    result.splits.emplace(u, std::move(split));
  }

  result.link_flow = std::move(final_flow);
  double theta = 0.0;
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    const double bg = background_bps.empty() ? 0.0 : background_bps[l];
    theta = std::max(theta, (result.link_flow[l] + bg) / topo.link(l).capacity_bps);
  }
  result.theta = theta;
  if (!config.refine) result.theta_opt = result.theta;
  return result;
}

std::vector<double> shortest_path_loads(const topo::Topology& topo, topo::NodeId dest,
                                        const std::vector<Demand>& demands,
                                        const topo::LinkStateMask* link_state) {
  FIB_ASSERT(dest < topo.node_count(), "shortest_path_loads: bad destination");
  const std::size_t n = topo.node_count();

  // Distance of every node *to* dest over the surviving links.
  const std::vector<topo::Metric> dist = dist_to_node(topo, dest, link_state);

  std::vector<double> node_in(n, 0.0);
  for (const Demand& d : demands) {
    FIB_ASSERT(d.ingress < n, "shortest_path_loads: bad ingress");
    node_in[d.ingress] += d.rate_bps;
  }

  // Propagate in decreasing distance order, splitting evenly over ECMP
  // successors (plain IGP behaviour).
  std::vector<topo::NodeId> order(n);
  for (topo::NodeId i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](topo::NodeId a, topo::NodeId b) { return dist[a] > dist[b]; });

  const std::vector<bool> dag = dag_from_dist(topo, dist, link_state);
  std::vector<double> load(topo.link_count(), 0.0);
  for (const topo::NodeId u : order) {
    if (u == dest || node_in[u] <= 0.0 || dist[u] >= igp::kInfMetric) continue;
    std::size_t successors = 0;
    for (const topo::LinkId l : topo.out_links(u)) successors += dag[l] ? 1 : 0;
    FIB_ASSERT(successors > 0, "shortest_path_loads: broken SPF DAG");
    const double share = node_in[u] / static_cast<double>(successors);
    for (const topo::LinkId l : topo.out_links(u)) {
      if (!dag[l]) continue;
      load[l] += share;
      node_in[topo.link(l).to] += share;
    }
  }
  return load;
}

double shortest_path_max_utilization(const topo::Topology& topo, topo::NodeId dest,
                                     const std::vector<Demand>& demands,
                                     const std::vector<double>& background_bps,
                                     const topo::LinkStateMask* link_state) {
  const std::vector<double> load = shortest_path_loads(topo, dest, demands, link_state);
  double theta = 0.0;
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    const double bg = background_bps.empty() ? 0.0 : background_bps[l];
    theta = std::max(theta, (load[l] + bg) / topo.link(l).capacity_bps);
  }
  return theta;
}

}  // namespace fibbing::te
