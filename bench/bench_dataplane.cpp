// Data-plane layer cost: the max-min rate solver on its own, and the
// NetworkSim mutations the Fig. 2 loop and the churn workload drive most --
// a video session starting and stopping, a router's table flip after an SPF
// run, and a link failing and coming back.
//
// Counters, per iteration: flow_walks, rate_solves and max_min_solves,
// NetworkSim's own work counters. A session start walks one flow and
// updates rates once, a stop only updates rates; a table flip (the changed
// prefixes an SPF run hands over) walks only the flows whose path visits the
// router and whose entry there changed, and updates rates only if a path
// moved; a link failure walks the flows crossing the link and the
// undelivered ones, a restoration only the undelivered ones, and each
// updates rates once. A rate update runs the full max-min
// solve only while some link's offered load does not fit its capacity:
// BM_SessionChurn's links are roomy (max_min_solves 0), and
// BM_SessionChurnOversubscribed runs the same churn with a link on the
// churned flow's path oversubscribed (max_min_solves 2), which times the
// full path.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "dataplane/fib.hpp"
#include "dataplane/forwarding.hpp"
#include "dataplane/network_sim.hpp"
#include "dataplane/rate_solver.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "topo/generators.hpp"
#include "topo/link_state.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"

using namespace fibbing;

namespace {

/// A Waxman graph (1-10 Gb/s links, times `capacity_scale`) with 12 client
/// /24s, `flows` 25 Mb/s video-shaped flows from random ingress routers, and
/// the graph's plain-IGP routing tables. The scale changes no draw, so the
/// graph, metrics and flows are the same at every scale.
struct Scenario {
  topo::Topology topo;
  std::vector<dataplane::Flow> flows;
  std::vector<igp::RoutingTable> tables;
};

Scenario make_scenario(std::size_t routers, std::size_t flows,
                       double capacity_scale = 1.0) {
  util::Rng rng(7100 + routers);
  Scenario s;
  s.topo = topo::make_waxman(routers, rng, 0.5, 0.5, 8, 1e9 * capacity_scale,
                             10e9 * capacity_scale);
  std::vector<net::Prefix> prefixes;
  for (std::uint8_t i = 0; i < 12; ++i) {
    prefixes.emplace_back(net::Ipv4(203, 0, i, 0), 24);
    s.topo.attach_prefix(static_cast<topo::NodeId>(rng.pick_index(routers)),
                         prefixes.back());
  }
  for (std::size_t i = 0; i < flows; ++i) {
    dataplane::Flow f;
    f.src = net::Ipv4(198, 18, 0, 1);
    f.dst = prefixes[rng.pick_index(prefixes.size())].host(
        static_cast<std::uint32_t>(rng.uniform_int(1, 250)));
    f.src_port = static_cast<std::uint16_t>(20000 + i);
    f.dst_port = 8554;
    f.ingress = static_cast<topo::NodeId>(rng.pick_index(routers));
    f.demand_bps = 25e6;
    s.flows.push_back(f);
  }
  s.tables = igp::compute_all_routes(igp::NetworkView::from_topology(s.topo));
  return s;
}

benchmark::Counter per_iteration(std::uint64_t total) {
  return benchmark::Counter(static_cast<double>(total),
                            benchmark::Counter::kAvgIterations);
}

/// NetworkSim's work counters over the timed loop, per iteration.
class WorkCounters {
 public:
  explicit WorkCounters(const dataplane::NetworkSim& sim)
      : sim_(sim),
        walks_(sim.flow_walks()),
        solves_(sim.rate_solves()),
        max_min_(sim.max_min_solves()) {}
  void report(benchmark::State& state) const {
    state.counters["flow_walks"] = per_iteration(sim_.flow_walks() - walks_);
    state.counters["rate_solves"] = per_iteration(sim_.rate_solves() - solves_);
    state.counters["max_min_solves"] = per_iteration(sim_.max_min_solves() - max_min_);
  }

 private:
  const dataplane::NetworkSim& sim_;
  std::uint64_t walks_;
  std::uint64_t solves_;
  std::uint64_t max_min_;
};

/// One max-min solve over the walked paths of range(0) flows on 120 routers.
void BM_MaxMinRates(benchmark::State& state) {
  const Scenario s = make_scenario(120, static_cast<std::size_t>(state.range(0)));
  std::vector<dataplane::Fib> fibs;
  for (topo::NodeId n = 0; n < s.topo.node_count(); ++n) {
    fibs.push_back(dataplane::Fib::from_routing_table(s.topo, n, s.tables[n]));
  }
  std::vector<dataplane::FlowPath> paths;
  paths.reserve(s.flows.size());
  std::vector<dataplane::RatedFlow> rated;
  for (std::size_t i = 0; i < s.flows.size(); ++i) {
    paths.push_back(dataplane::walk_flow(s.topo, fibs, s.flows[i]));
    rated.push_back(dataplane::RatedFlow{i + 1, s.flows[i].demand_bps, &paths.back()});
  }
  for (auto _ : state) {
    std::vector<double> rates = dataplane::max_min_rates(s.topo, rated);
    benchmark::DoNotOptimize(rates.data());
    benchmark::ClobberMemory();
  }
}

/// The session churn scenario: 40 routers, 1000 standing flows and one more
/// (the last) that starts and stops.
constexpr std::size_t kChurnRouters = 40;
constexpr std::size_t kChurnFlows = 1001;

/// One session starting and stopping on a sim holding the scenario's other
/// flows.
void session_churn(benchmark::State& state, const Scenario& s) {
  util::EventQueue events;
  dataplane::NetworkSim sim(s.topo, events);
  sim.install_tables(s.tables);
  for (std::size_t i = 0; i + 1 < s.flows.size(); ++i) sim.add_flow(s.flows[i]);
  const WorkCounters work(sim);
  for (auto _ : state) {
    const dataplane::FlowId id = sim.add_flow(s.flows.back());
    benchmark::DoNotOptimize(id);
    sim.remove_flow(id);
  }
  work.report(state);
}

/// Roomy links: every start and stop takes the shortcut.
void BM_SessionChurn(benchmark::State& state) {
  session_churn(state, make_scenario(kChurnRouters, kChurnFlows));
}

/// The same churn with capacities scaled so that the busiest link on the
/// churned flow's path runs at 125 % of its capacity: every start and stop
/// runs the full max-min solve.
void BM_SessionChurnOversubscribed(benchmark::State& state) {
  const Scenario roomy = make_scenario(kChurnRouters, kChurnFlows);
  util::EventQueue events;
  dataplane::NetworkSim sim(roomy.topo, events);
  sim.install_tables(roomy.tables);
  dataplane::FlowId churned = 0;
  for (const dataplane::Flow& flow : roomy.flows) churned = sim.add_flow(flow);
  double busiest = 0.0;
  for (const topo::LinkId l : sim.flow_path(churned).links) {
    busiest = std::max(busiest, sim.link_utilization(l));
  }
  session_churn(state, make_scenario(kChurnRouters, kChurnFlows, busiest / 1.25));
}

/// The link of `sim`'s graph that the most flows cross, counting both
/// directions, and that count.
std::pair<topo::LinkId, std::size_t> busiest_link(const dataplane::NetworkSim& sim,
                                                  const topo::Topology& topo,
                                                  const std::vector<dataplane::FlowId>& ids) {
  std::vector<std::size_t> crossing(topo.link_count(), 0);
  for (const dataplane::FlowId id : ids) {
    for (const topo::LinkId l : sim.flow_path(id).links) ++crossing[l];
  }
  topo::LinkId busiest = 0;
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    if (crossing[l] > crossing[busiest]) busiest = l;
  }
  return {busiest, crossing[busiest] + crossing[topo.link(busiest).reverse]};
}

/// Every router of a 120-router graph carrying 120 flows flips its table,
/// alternating between the tables from before and after the failure of the
/// link most flows cross, each flip handed the prefixes whose route changed
/// (as after an SPF run; the sim's own mask stays up).
void BM_TableFlip(benchmark::State& state) {
  const Scenario s = make_scenario(120, 120);
  util::EventQueue events;
  dataplane::NetworkSim sim(s.topo, events);
  sim.install_tables(s.tables);
  std::vector<dataplane::FlowId> ids;
  for (const dataplane::Flow& flow : s.flows) ids.push_back(sim.add_flow(flow));
  topo::LinkStateMask mask(s.topo);
  mask.fail(busiest_link(sim, s.topo, ids).first);
  const std::vector<igp::RoutingTable> failed =
      igp::compute_all_routes(igp::NetworkView::from_topology(s.topo, {}, &mask));
  const std::vector<igp::RoutingTable>* phases[2] = {&failed, &s.tables};
  // changed[p][n]: what router n's SPF hands over when it enters phase p.
  std::vector<std::vector<net::Prefix>> changed[2];
  for (int p = 0; p < 2; ++p) {
    for (topo::NodeId n = 0; n < s.topo.node_count(); ++n) {
      changed[p].push_back(igp::changed_prefixes((*phases[1 - p])[n], (*phases[p])[n]));
    }
  }

  const WorkCounters work(sim);
  std::size_t flip = 0;
  for (auto _ : state) {
    const std::size_t p = flip++ % 2;
    for (topo::NodeId n = 0; n < s.topo.node_count(); ++n) {
      sim.flip_table(n, (*phases[p])[n], changed[p][n]);
    }
  }
  work.report(state);
}

/// The link of a 120-router graph that the most of 1000 flows cross fails
/// and comes back (the sim's own mask; no FIB changes). The failure walks
/// the `crossing` flows, which it blackholes, and the restoration walks
/// them again as the undelivered ones: flow_walks is twice `crossing` per
/// iteration, not twice the flow count.
void BM_LinkEvent(benchmark::State& state) {
  const Scenario s = make_scenario(120, 1000);
  util::EventQueue events;
  dataplane::NetworkSim sim(s.topo, events);
  sim.install_tables(s.tables);
  std::vector<dataplane::FlowId> ids;
  for (const dataplane::Flow& flow : s.flows) ids.push_back(sim.add_flow(flow));
  const auto [busiest, crossing] = busiest_link(sim, s.topo, ids);

  const WorkCounters work(sim);
  for (auto _ : state) {
    sim.fail_link(busiest);
    sim.restore_link(busiest);
  }
  work.report(state);
  state.counters["crossing"] = static_cast<double>(crossing);
}

}  // namespace

BENCHMARK(BM_MaxMinRates)->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SessionChurn)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SessionChurnOversubscribed)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TableFlip)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LinkEvent)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
