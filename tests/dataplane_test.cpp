#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "dataplane/ecmp.hpp"
#include "dataplane/fib.hpp"
#include "dataplane/forwarding.hpp"
#include "dataplane/network_sim.hpp"
#include "dataplane/rate_solver.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "support/scenario.hpp"
#include "topo/generators.hpp"
#include "util/event_queue.hpp"

namespace fibbing::dataplane {
namespace {

using igp::NetworkView;
using support::paper_lie_externals;
using topo::make_paper_topology;
using topo::NodeId;
using topo::PaperTopology;

/// Plain web traffic (dport 80) entering at `ingress`.
Flow make_flow(NodeId ingress, net::Ipv4 dst, std::uint16_t sport,
               double demand = 1e6) {
  return support::make_flow(ingress, dst, sport, demand, /*dport=*/80);
}

// ------------------------------------------------------------------ Fib

TEST(Fib, FromRoutingTableResolvesLinks) {
  const PaperTopology p = make_paper_topology();
  const auto tables = igp::compute_all_routes(NetworkView::from_topology(p.topo));
  const Fib fib_a = Fib::from_routing_table(p.topo, p.a, tables[p.a]);
  const FibEntry* entry = fib_a.lookup(p.p1.host(5));
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->next_hops.size(), 1u);
  EXPECT_EQ(entry->next_hops[0].via, p.b);
  EXPECT_EQ(entry->next_hops[0].out_link, p.topo.link_between(p.a, p.b));
  EXPECT_FALSE(entry->local);
}

TEST(Fib, LocalDeliveryAtAttachmentRouter) {
  const PaperTopology p = make_paper_topology();
  const auto tables = igp::compute_all_routes(NetworkView::from_topology(p.topo));
  const Fib fib_c = Fib::from_routing_table(p.topo, p.c, tables[p.c]);
  const FibEntry* entry = fib_c.lookup(p.p2.host(9));
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->local);
}

TEST(Fib, LpmPrefersLongerPrefix) {
  const PaperTopology p = make_paper_topology();
  Fib fib;
  fib.set(p.blue, FibEntry{false, {FibNextHop{0, 1, 1}}});
  fib.set(p.p2, FibEntry{false, {FibNextHop{2, 2, 1}}});
  EXPECT_EQ(fib.lookup(p.p2.host(1))->next_hops[0].via, 2u);
  EXPECT_EQ(fib.lookup(p.p1.host(1))->next_hops[0].via, 1u);  // falls to /24
}

// ----------------------------------------------------------------- ECMP hash

TEST(Ecmp, DeterministicPerFlow) {
  const PaperTopology p = make_paper_topology();
  const Flow f = make_flow(p.b, p.p1.host(7), 1234);
  FibEntry entry{false,
                 {FibNextHop{0, 1, 1}, FibNextHop{1, 2, 1}, FibNextHop{2, 3, 1}}};
  const std::size_t pick = select_next_hop(entry, f, 42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(select_next_hop(entry, f, 42), pick);
}

TEST(Ecmp, WeightsBiasBucketShares) {
  const PaperTopology p = make_paper_topology();
  // Weight 2:1 -> about two thirds of many flows should pick slot 0.
  FibEntry entry{false, {FibNextHop{0, 1, 2}, FibNextHop{1, 2, 1}}};
  int slot0 = 0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const Flow f = make_flow(p.b, p.p1.host(static_cast<std::uint32_t>(i % 120)),
                             static_cast<std::uint16_t>(1000 + i));
    if (select_next_hop(entry, f, 7) == 0) ++slot0;
  }
  const double share = static_cast<double>(slot0) / n;
  EXPECT_NEAR(share, 2.0 / 3.0, 0.04);
}

TEST(Ecmp, EvenWeightsSplitEvenly) {
  const PaperTopology p = make_paper_topology();
  FibEntry entry{false, {FibNextHop{0, 1, 1}, FibNextHop{1, 2, 1}}};
  int slot0 = 0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const Flow f = make_flow(p.b, p.p1.host(static_cast<std::uint32_t>(i % 120)),
                             static_cast<std::uint16_t>(2000 + i));
    if (select_next_hop(entry, f, 7) == 0) ++slot0;
  }
  EXPECT_NEAR(static_cast<double>(slot0) / n, 0.5, 0.04);
}

TEST(Ecmp, DifferentSaltsDecorrelate) {
  const PaperTopology p = make_paper_topology();
  FibEntry entry{false, {FibNextHop{0, 1, 1}, FibNextHop{1, 2, 1}}};
  int agree = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const Flow f = make_flow(p.b, p.p1.host(static_cast<std::uint32_t>(i % 120)),
                             static_cast<std::uint16_t>(3000 + i));
    if (select_next_hop(entry, f, 1) == select_next_hop(entry, f, 2)) ++agree;
  }
  // Independent coins agree about half the time; correlated hashes ~always.
  EXPECT_NEAR(static_cast<double>(agree) / n, 0.5, 0.06);
}

// ---------------------------------------------------------------- forwarding

TEST(Forwarding, WalksShortestPathOnPaperTopology) {
  const PaperTopology p = make_paper_topology();
  const auto tables = igp::compute_all_routes(NetworkView::from_topology(p.topo));
  std::vector<Fib> fibs;
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    fibs.push_back(Fib::from_routing_table(p.topo, n, tables[n]));
  }
  const Flow f = make_flow(p.a, p.p1.host(3), 5555);
  const FlowPath path = walk_flow(p.topo, fibs, f);
  ASSERT_TRUE(path.delivered());
  EXPECT_EQ(path.egress, p.c);
  ASSERT_EQ(path.links.size(), 3u);  // A-B, B-R2, R2-C
  EXPECT_EQ(path.links[0], p.topo.link_between(p.a, p.b));
  EXPECT_EQ(path.links[1], p.topo.link_between(p.b, p.r2));
  EXPECT_EQ(path.links[2], p.topo.link_between(p.r2, p.c));
}

TEST(Forwarding, BlackholeWhenNoRoute) {
  const PaperTopology p = make_paper_topology();
  std::vector<Fib> fibs(p.topo.node_count());  // all FIBs empty
  const Flow f = make_flow(p.a, p.p1.host(3), 5555);
  EXPECT_EQ(walk_flow(p.topo, fibs, f).outcome, FlowPath::Outcome::kBlackhole);
}

TEST(Forwarding, DetectsLoop) {
  const PaperTopology p = make_paper_topology();
  std::vector<Fib> fibs(p.topo.node_count());
  // A -> B and B -> A for the same prefix: a two-node loop.
  FibEntry a_entry{false, {FibNextHop{p.topo.link_between(p.a, p.b), p.b, 1}}};
  FibEntry b_entry{false, {FibNextHop{p.topo.link_between(p.b, p.a), p.a, 1}}};
  fibs[p.a].set(p.p1, a_entry);
  fibs[p.b].set(p.p1, b_entry);
  const Flow f = make_flow(p.a, p.p1.host(3), 5555);
  EXPECT_EQ(walk_flow(p.topo, fibs, f).outcome, FlowPath::Outcome::kLoop);
}

TEST(Forwarding, DownLinkBlackholesSelectedFlows) {
  const PaperTopology p = make_paper_topology();
  const auto tables = igp::compute_all_routes(NetworkView::from_topology(p.topo));
  std::vector<Fib> fibs;
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    fibs.push_back(Fib::from_routing_table(p.topo, n, tables[n]));
  }
  std::vector<bool> down(p.topo.link_count(), false);
  const topo::LinkId br2 = p.topo.link_between(p.b, p.r2);
  down[br2] = true;
  down[p.topo.link(br2).reverse] = true;

  // B's FIB still points at R2 (no reconvergence yet): the packet drops at
  // the dead interface instead of looping.
  const Flow f = make_flow(p.b, p.p1.host(3), 5555);
  EXPECT_EQ(walk_flow(p.topo, fibs, f, down).outcome, FlowPath::Outcome::kBlackhole);
  // Unaffected destinations still deliver.
  const Flow via_r1 = make_flow(p.r1, p.p1.host(3), 5555);
  EXPECT_TRUE(walk_flow(p.topo, fibs, via_r1, down).delivered());
}

TEST(NetworkSim, FailLinkDropsThenReroutesAfterNewTables) {
  support::PaperSimHarness fx;
  const FlowId f = fx.sim.add_flow(make_flow(fx.p.b, fx.p.p1.host(1), 4000, 8e6));
  ASSERT_DOUBLE_EQ(fx.sim.flow_rate(f), 8e6);

  const topo::LinkId dead = fx.p.topo.link_between(fx.p.b, fx.p.r2);
  fx.sim.fail_link(dead);
  EXPECT_TRUE(fx.sim.link_is_down(dead));
  EXPECT_TRUE(fx.sim.link_is_down(fx.p.topo.link(dead).reverse));
  EXPECT_EQ(fx.sim.blackholed_flows(), 1u);
  EXPECT_DOUBLE_EQ(fx.sim.flow_rate(f), 0.0);

  // IGP reconvergence delivers fresh tables computed without the dead link;
  // the flow comes back via R3.
  topo::Topology reduced;
  for (NodeId n = 0; n < fx.p.topo.node_count(); ++n) {
    reduced.add_node(fx.p.topo.node(n).name);
  }
  for (topo::LinkId l = 0; l < fx.p.topo.link_count(); ++l) {
    const topo::Link& link = fx.p.topo.link(l);
    if (l == dead || link.reverse == dead || link.from > link.to) continue;
    reduced.add_link(link.from, link.to, link.metric, link.capacity_bps);
  }
  reduced.attach_prefix(fx.p.c, fx.p.p1, 0);
  const auto tables = igp::compute_all_routes(NetworkView::from_topology(reduced));
  for (NodeId n = 0; n < fx.p.topo.node_count(); ++n) {
    fx.sim.set_fib(n, Fib::from_routing_table(fx.p.topo, n, tables[n]));
  }
  EXPECT_EQ(fx.sim.blackholed_flows(), 0u);
  EXPECT_DOUBLE_EQ(fx.sim.flow_rate(f), 8e6);
  EXPECT_NEAR(fx.sim.link_rate(fx.p.topo.link_between(fx.p.b, fx.p.r3)), 8e6, 1e-6);
}

TEST(NetworkSim, RestoreLinkRehashesFlowsBackBitIdentical) {
  // A flow pinned to B-R2 blackholes while the link is down (FIBs still
  // point at it) and comes back on the identical path -- same links, same
  // rate -- the moment the link is restored. Double fail/restore are no-ops.
  support::PaperSimHarness fx;
  const FlowId f = fx.sim.add_flow(make_flow(fx.p.b, fx.p.p1.host(1), 4000, 8e6));
  const std::vector<topo::LinkId> path_before = fx.sim.flow_path(f).links;
  ASSERT_DOUBLE_EQ(fx.sim.flow_rate(f), 8e6);

  const topo::LinkId dead = fx.p.topo.link_between(fx.p.b, fx.p.r2);
  fx.sim.fail_link(dead);
  fx.sim.fail_link(fx.p.topo.link(dead).reverse);  // idempotent
  EXPECT_EQ(fx.sim.blackholed_flows(), 1u);
  EXPECT_DOUBLE_EQ(fx.sim.flow_rate(f), 0.0);

  fx.sim.restore_link(dead);
  fx.sim.restore_link(dead);  // idempotent
  EXPECT_FALSE(fx.sim.link_is_down(dead));
  EXPECT_EQ(fx.sim.blackholed_flows(), 0u);
  EXPECT_DOUBLE_EQ(fx.sim.flow_rate(f), 8e6);
  EXPECT_EQ(fx.sim.flow_path(f).links, path_before);
}

TEST(NetworkSim, RestoreOfNeverFailedLinkIsNoOp) {
  support::PaperSimHarness fx;
  const FlowId f = fx.sim.add_flow(make_flow(fx.p.b, fx.p.p1.host(1), 4000, 8e6));
  fx.sim.restore_link(fx.p.topo.link_between(fx.p.b, fx.p.r2));
  EXPECT_DOUBLE_EQ(fx.sim.flow_rate(f), 8e6);
  EXPECT_FALSE(fx.sim.link_state().any_down());
}

/// With the paper's lie set installed, many flows from A to P2 split about
/// 1/3 : 2/3 between next hops B and R1 -- Fibbing's uneven ECMP realized by
/// hash buckets.
TEST(Forwarding, UnevenSplitMatchesWeights) {
  const PaperTopology p = make_paper_topology();
  const auto tables =
      igp::compute_all_routes(NetworkView::from_topology(p.topo, paper_lie_externals(p)));
  std::vector<Fib> fibs;
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    fibs.push_back(Fib::from_routing_table(p.topo, n, tables[n]));
  }
  int via_r1 = 0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const Flow f = make_flow(p.a, p.p2.host(static_cast<std::uint32_t>(i % 120)),
                             static_cast<std::uint16_t>(1000 + i));
    const FlowPath path = walk_flow(p.topo, fibs, f);
    ASSERT_TRUE(path.delivered());
    if (path.links[0] == p.topo.link_between(p.a, p.r1)) ++via_r1;
  }
  EXPECT_NEAR(static_cast<double>(via_r1) / n, 2.0 / 3.0, 0.04);
}

// --------------------------------------------------------------- rate solver

TEST(RateSolver, SingleFlowCappedByDemand) {
  const PaperTopology p = make_paper_topology(10e6);
  FlowPath path;
  path.outcome = FlowPath::Outcome::kDelivered;
  path.links = {p.topo.link_between(p.b, p.r2)};
  const std::vector<RatedFlow> flows{{1, 2e6, &path}};
  const auto rates = max_min_rates(p.topo, flows);
  EXPECT_DOUBLE_EQ(rates[0], 2e6);
}

TEST(RateSolver, FlowsShareBottleneckEqually) {
  const PaperTopology p = make_paper_topology(10e6);
  FlowPath path;
  path.outcome = FlowPath::Outcome::kDelivered;
  path.links = {p.topo.link_between(p.b, p.r2)};
  const std::vector<RatedFlow> flows{{1, 20e6, &path}, {2, 20e6, &path}};
  const auto rates = max_min_rates(p.topo, flows);
  EXPECT_DOUBLE_EQ(rates[0], 5e6);
  EXPECT_DOUBLE_EQ(rates[1], 5e6);
}

TEST(RateSolver, DemandLimitedFlowLeavesSlackToOthers) {
  const PaperTopology p = make_paper_topology(10e6);
  FlowPath path;
  path.outcome = FlowPath::Outcome::kDelivered;
  path.links = {p.topo.link_between(p.b, p.r2)};
  const std::vector<RatedFlow> flows{{1, 2e6, &path}, {2, 50e6, &path}};
  const auto rates = max_min_rates(p.topo, flows);
  EXPECT_DOUBLE_EQ(rates[0], 2e6);
  EXPECT_DOUBLE_EQ(rates[1], 8e6);
}

TEST(RateSolver, MultiBottleneckMaxMin) {
  // Two links in series with different capacities; three flows:
  //  f1 uses only link1 (cap 9), f2 uses both, f3 uses only link2 (cap 4).
  topo::Topology t;
  const NodeId x = t.add_node("x");
  const NodeId y = t.add_node("y");
  const NodeId z = t.add_node("z");
  const topo::LinkId l1 = t.add_link(x, y, 1, 9.0);
  const topo::LinkId l2 = t.add_link(y, z, 1, 4.0);
  FlowPath p1;
  p1.outcome = FlowPath::Outcome::kDelivered;
  p1.links = {l1};
  FlowPath p2 = p1;
  p2.links = {l1, l2};
  FlowPath p3 = p1;
  p3.links = {l2};
  const std::vector<RatedFlow> flows{{1, 100.0, &p1}, {2, 100.0, &p2}, {3, 100.0, &p3}};
  const auto rates = max_min_rates(t, flows);
  // link2 is the tighter bottleneck: f2 = f3 = 2. f1 then gets 9 - 2 = 7.
  EXPECT_DOUBLE_EQ(rates[1], 2.0);
  EXPECT_DOUBLE_EQ(rates[2], 2.0);
  EXPECT_DOUBLE_EQ(rates[0], 7.0);
}

TEST(RateSolver, UndeliveredFlowsGetZero) {
  const PaperTopology p = make_paper_topology();
  FlowPath loop;
  loop.outcome = FlowPath::Outcome::kLoop;
  const std::vector<RatedFlow> flows{{1, 5e6, &loop}};
  EXPECT_DOUBLE_EQ(max_min_rates(p.topo, flows)[0], 0.0);
}

/// Property: random flow sets never violate capacity, and every flow is
/// either demand-satisfied or crosses a saturated link (max-min optimality
/// witness).
TEST(RateSolver, CapacityAndSaturationProperty) {
  const PaperTopology p = make_paper_topology(20e6);
  const auto tables = igp::compute_all_routes(NetworkView::from_topology(p.topo));
  std::vector<Fib> fibs;
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    fibs.push_back(Fib::from_routing_table(p.topo, n, tables[n]));
  }
  std::vector<FlowPath> paths;
  std::vector<Flow> defs;
  for (int i = 0; i < 60; ++i) {
    const NodeId ingress = (i % 2 == 0) ? p.a : p.b;
    const net::Prefix& prefix = (i % 3 == 0) ? p.p2 : p.p1;
    Flow f = make_flow(ingress, prefix.host(static_cast<std::uint32_t>(i % 100)),
                       static_cast<std::uint16_t>(1000 + i),
                       /*demand=*/1e6 * (1 + i % 4));
    defs.push_back(f);
  }
  paths.reserve(defs.size());
  for (const Flow& f : defs) paths.push_back(walk_flow(p.topo, fibs, f));
  std::vector<RatedFlow> rated;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    rated.push_back(RatedFlow{defs[i].id, defs[i].demand_bps, &paths[i]});
  }
  const auto rates = max_min_rates(p.topo, rated);

  std::vector<double> used(p.topo.link_count(), 0.0);
  for (std::size_t i = 0; i < rated.size(); ++i) {
    for (const topo::LinkId l : paths[i].links) used[l] += rates[i];
  }
  for (topo::LinkId l = 0; l < p.topo.link_count(); ++l) {
    EXPECT_LE(used[l], p.topo.link(l).capacity_bps * (1 + 1e-9));
  }
  for (std::size_t i = 0; i < rated.size(); ++i) {
    if (rates[i] >= rated[i].demand_bps - 1e-6) continue;  // demand-satisfied
    bool crosses_saturated = false;
    for (const topo::LinkId l : paths[i].links) {
      if (used[l] >= p.topo.link(l).capacity_bps * (1 - 1e-6)) {
        crosses_saturated = true;
        break;
      }
    }
    EXPECT_TRUE(crosses_saturated) << "flow " << i << " is throttled for no reason";
  }
}

// ---------------------------------------------------------------- NetworkSim

TEST(NetworkSim, CountersIntegrateRatesOverTime) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  NetworkSim sim(p.topo, events);
  sim.install_tables(igp::compute_all_routes(NetworkView::from_topology(p.topo)));

  sim.add_flow(make_flow(p.b, p.p1.host(1), 4000, /*demand=*/8e6));
  events.schedule_at(10.0, [] {});
  events.run();
  // 8 Mb/s for 10 s = 10 MB on each link of the B-R2-C path.
  const topo::LinkId br2 = p.topo.link_between(p.b, p.r2);
  EXPECT_NEAR(static_cast<double>(sim.link_bytes(br2)), 10e6, 1.0);
  const topo::LinkId ar1 = p.topo.link_between(p.a, p.r1);
  EXPECT_EQ(sim.link_bytes(ar1), 0u);
}

TEST(NetworkSim, FibChangeMovesTraffic) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  NetworkSim sim(p.topo, events);
  sim.install_tables(igp::compute_all_routes(NetworkView::from_topology(p.topo)));

  // 30 flows B->P1: all on B-R2 under plain IGP.
  for (int i = 0; i < 30; ++i) {
    sim.add_flow(make_flow(p.b, p.p1.host(static_cast<std::uint32_t>(i)),
                           static_cast<std::uint16_t>(1000 + i)));
  }
  const topo::LinkId br2 = p.topo.link_between(p.b, p.r2);
  const topo::LinkId br3 = p.topo.link_between(p.b, p.r3);
  EXPECT_NEAR(sim.link_rate(br2), 30e6, 1e-6);
  EXPECT_DOUBLE_EQ(sim.link_rate(br3), 0.0);

  // Install the fB lie: traffic splits about evenly.
  sim.install_tables(
      igp::compute_all_routes(NetworkView::from_topology(p.topo, paper_lie_externals(p))));
  EXPECT_GT(sim.link_rate(br3), 10e6);
  EXPECT_LT(sim.link_rate(br2), 20e6);
  EXPECT_NEAR(sim.link_rate(br2) + sim.link_rate(br3), 30e6, 1e-6);
}

TEST(NetworkSim, RateListenersFireOnChange) {
  const PaperTopology p = make_paper_topology(10e6);
  util::EventQueue events;
  NetworkSim sim(p.topo, events);
  sim.install_tables(igp::compute_all_routes(NetworkView::from_topology(p.topo)));

  std::map<FlowId, double> latest;
  sim.subscribe_rates([&](FlowId id, double rate) { latest[id] = rate; });

  const FlowId f1 = sim.add_flow(make_flow(p.b, p.p1.host(1), 4001, 8e6));
  EXPECT_DOUBLE_EQ(latest[f1], 8e6);
  const FlowId f2 = sim.add_flow(make_flow(p.b, p.p1.host(2), 4002, 8e6));
  // Both now squeezed to 5 Mb/s on the 10 Mb/s bottleneck.
  EXPECT_DOUBLE_EQ(latest[f1], 5e6);
  EXPECT_DOUBLE_EQ(latest[f2], 5e6);
  sim.remove_flow(f2);
  EXPECT_DOUBLE_EQ(latest[f1], 8e6);
}

TEST(NetworkSim, RemoveFlowFreesCapacity) {
  const PaperTopology p = make_paper_topology(10e6);
  util::EventQueue events;
  NetworkSim sim(p.topo, events);
  sim.install_tables(igp::compute_all_routes(NetworkView::from_topology(p.topo)));
  const FlowId f1 = sim.add_flow(make_flow(p.b, p.p1.host(1), 4001, 20e6));
  const FlowId f2 = sim.add_flow(make_flow(p.b, p.p1.host(2), 4002, 20e6));
  EXPECT_DOUBLE_EQ(sim.flow_rate(f1), 5e6);
  sim.remove_flow(f2);
  EXPECT_DOUBLE_EQ(sim.flow_rate(f1), 10e6);
}

TEST(NetworkSim, LoopAccountingIsolatesBrokenState) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  NetworkSim sim(p.topo, events);
  // Hand-broken FIBs: loop for P1 between A and B.
  Fib fib_a;
  fib_a.set(p.p1, FibEntry{false, {FibNextHop{p.topo.link_between(p.a, p.b), p.b, 1}}});
  Fib fib_b;
  fib_b.set(p.p1, FibEntry{false, {FibNextHop{p.topo.link_between(p.b, p.a), p.a, 1}}});
  sim.set_fib(p.a, std::move(fib_a));
  sim.set_fib(p.b, std::move(fib_b));
  const FlowId f = sim.add_flow(make_flow(p.a, p.p1.host(1), 4000));
  EXPECT_EQ(sim.looping_flows(), 1u);
  EXPECT_DOUBLE_EQ(sim.flow_rate(f), 0.0);
}

/// A listener that changes the flow set mid-notification (VideoSystem does
/// when a client finishes) triggers a nested solve that delivers newer
/// rates; the outer solve must not then overwrite them with its own.
TEST(NetworkSim, NestedFlowChangeLeavesNoStaleRateNotice) {
  support::PaperSimHarness fx;
  const FlowId a = fx.sim.add_flow(make_flow(fx.p.b, fx.p.p1.host(1), 4001, 30e6));
  const FlowId b = fx.sim.add_flow(make_flow(fx.p.b, fx.p.p1.host(2), 4002, 30e6));
  const FlowId x = fx.sim.add_flow(make_flow(fx.p.b, fx.p.p1.host(3), 4003, 30e6));
  std::map<FlowId, double> last;
  bool removed = false;
  fx.sim.subscribe_rates([&](FlowId id, double rate) {
    last[id] = rate;
    if (id == a && !removed) {
      removed = true;
      fx.sim.remove_flow(x);
    }
  });
  const FlowId d = fx.sim.add_flow(make_flow(fx.p.b, fx.p.p1.host(4), 4004, 30e6));
  ASSERT_TRUE(removed);
  EXPECT_DOUBLE_EQ(fx.sim.flow_rate(b), 40e6 / 3);
  for (const FlowId f : {a, b, d}) {
    EXPECT_EQ(last.at(f), fx.sim.flow_rate(f)) << "flow " << f;
  }
}

TEST(NetworkSim, FreshIdSkipsCallerChosenIds) {
  support::PaperSimHarness fx;
  Flow chosen = make_flow(fx.p.b, fx.p.p1.host(1), 4001);
  chosen.id = 1;
  EXPECT_EQ(fx.sim.add_flow(chosen), 1u);
  const FlowId fresh = fx.sim.add_flow(make_flow(fx.p.b, fx.p.p1.host(2), 4002));
  EXPECT_NE(fresh, 1u);
  EXPECT_EQ(fx.sim.flow_count(), 2u);
}

// ------------------------------------------------ work scoped to the change

/// Flow walks, rate updates and full max-min solves a mutation performed.
struct Work {
  std::uint64_t walks = 0;
  std::uint64_t solves = 0;
  std::uint64_t max_min = 0;
};

template <typename Fn>
Work work_of(const NetworkSim& sim, Fn&& mutate) {
  const std::uint64_t walks = sim.flow_walks();
  const std::uint64_t solves = sim.rate_solves();
  const std::uint64_t max_min = sim.max_min_solves();
  mutate();
  return Work{sim.flow_walks() - walks, sim.rate_solves() - solves,
              sim.max_min_solves() - max_min};
}

/// Three flows through R2 (two B->P1 over B-R2-C, one A->P2 over
/// A-B-R2-C) and one R4->P1 over R4-C; nothing visits R1 or R3.
struct ScopedSim : support::PaperSimHarness {
  std::vector<igp::RoutingTable> tables =
      igp::compute_all_routes(NetworkView::from_topology(p.topo));
  std::vector<FlowId> flows;

  ScopedSim() {
    flows.push_back(sim.add_flow(make_flow(p.b, p.p1.host(1), 4001)));
    flows.push_back(sim.add_flow(make_flow(p.b, p.p1.host(2), 4002)));
    flows.push_back(sim.add_flow(make_flow(p.a, p.p2.host(3), 4003)));
    flows.push_back(sim.add_flow(make_flow(p.r4, p.p1.host(4), 4004)));
  }
  [[nodiscard]] Fib plain_fib(NodeId node) const {
    return Fib::from_routing_table(p.topo, node, tables[node]);
  }
};

TEST(NetworkSim, AddFlowWalksOneFlowAndSolvesOnce) {
  ScopedSim fx;
  const Work w = work_of(fx.sim, [&] {
    fx.sim.add_flow(make_flow(fx.p.a, fx.p.p1.host(5), 4005));
  });
  EXPECT_EQ(w.walks, 1u);
  EXPECT_EQ(w.solves, 1u);
}

TEST(NetworkSim, RemoveFlowSolvesWithoutWalking) {
  ScopedSim fx;
  const Work w = work_of(fx.sim, [&] { fx.sim.remove_flow(fx.flows[0]); });
  EXPECT_EQ(w.walks, 0u);
  EXPECT_EQ(w.solves, 1u);
}

TEST(NetworkSim, FibSwapNoFlowCanFeelDoesNoWork) {
  ScopedSim fx;
  // An identical table at R2, which three flows visit.
  Work w = work_of(fx.sim, [&] { fx.sim.set_fib(fx.p.r2, fx.plain_fib(fx.p.r2)); });
  EXPECT_EQ(w.walks, 0u);
  EXPECT_EQ(w.solves, 0u);
  // R1, which no flow visits, emptied.
  w = work_of(fx.sim, [&] { fx.sim.set_fib(fx.p.r1, Fib{}); });
  EXPECT_EQ(w.walks, 0u);
  EXPECT_EQ(w.solves, 0u);
  // R4 changes only its P2 entry; its one flow goes to P1.
  Fib r4 = fx.plain_fib(fx.p.r4);
  r4.set(fx.p.p2, FibEntry{false, {FibNextHop{fx.p.topo.link_between(fx.p.r4, fx.p.r1),
                                                fx.p.r1, 1}}});
  w = work_of(fx.sim, [&] { fx.sim.set_fib(fx.p.r4, std::move(r4)); });
  EXPECT_EQ(w.walks, 0u);
  EXPECT_EQ(w.solves, 0u);
  EXPECT_EQ(fx.sim.blackholed_flows(), 0u);
}

TEST(NetworkSim, EmptyFlipSettlesLikeAFullSwap) {
  // Two sims with the same flows: one router per instant gets an empty
  // change list in one, its whole unchanged FIB in the other. Both settle
  // the byte counters at every flip, so they count the same bytes.
  ScopedSim flipped;
  ScopedSim swapped;
  for (int k = 1; k <= 40; ++k) {
    flipped.events.run_until(0.1 * k);
    swapped.events.run_until(0.1 * k);
    const auto n = static_cast<NodeId>(k % flipped.p.topo.node_count());
    const Work w = work_of(flipped.sim, [&] {
      flipped.sim.flip_table(n, flipped.tables[n], {});
    });
    EXPECT_EQ(w.walks, 0u);
    EXPECT_EQ(w.solves, 0u);
    const Work full = work_of(swapped.sim, [&] { swapped.sim.set_fib(n, swapped.plain_fib(n)); });
    EXPECT_EQ(full.walks, 0u);
  }
  for (topo::LinkId l = 0; l < flipped.p.topo.link_count(); ++l) {
    EXPECT_EQ(flipped.sim.link_bytes(l), swapped.sim.link_bytes(l)) << "link " << l;
  }
}

TEST(NetworkSim, FlipPatchesOnlyTheChangedPrefixes) {
  ScopedSim fx;
  // R2 loses its P1 route: the two B->P1 flows blackhole there, the A->P2
  // flow through R2 is not walked.
  igp::RoutingTable r2 = fx.tables[fx.p.r2];
  r2.erase(fx.p.p1);
  Work w = work_of(fx.sim, [&] { fx.sim.flip_table(fx.p.r2, r2, std::vector{fx.p.p1}); });
  EXPECT_EQ(w.walks, 2u);
  EXPECT_EQ(w.solves, 1u);
  EXPECT_EQ(fx.sim.fib(fx.p.r2).exact(fx.p.p1), nullptr);
  EXPECT_NE(fx.sim.fib(fx.p.r2).exact(fx.p.p2), nullptr);
  EXPECT_EQ(fx.sim.blackholed_flows(), 2u);
  // P1 comes back at a higher cost: its two flows are delivered again.
  igp::RoutingTable costlier = fx.tables[fx.p.r2];
  costlier.at(fx.p.p1).cost += 5;
  w = work_of(fx.sim, [&] { fx.sim.flip_table(fx.p.r2, costlier, std::vector{fx.p.p1}); });
  EXPECT_EQ(w.walks, 2u);
  EXPECT_EQ(fx.sim.blackholed_flows(), 0u);
  // Only the cost changes: the entry compiles the same, so nothing walks.
  w = work_of(fx.sim, [&] {
    fx.sim.flip_table(fx.p.r2, fx.tables[fx.p.r2], std::vector{fx.p.p1});
  });
  EXPECT_EQ(w.walks, 0u);
  EXPECT_EQ(w.solves, 0u);
  EXPECT_EQ(fx.sim.fib(fx.p.r2).to_string(fx.p.topo), fx.plain_fib(fx.p.r2).to_string(fx.p.topo));
}

TEST(NetworkSim, FibChangeWalksOnlyFlowsThroughTheRouter) {
  ScopedSim fx;
  Work w = work_of(fx.sim, [&] { fx.sim.set_fib(fx.p.r2, Fib{}); });
  EXPECT_EQ(w.walks, 3u);  // not the R4 flow
  EXPECT_EQ(w.solves, 1u);
  EXPECT_EQ(fx.sim.blackholed_flows(), 3u);
  // A P2 entry with no next hop: only the A->P2 flow re-walks, and it still
  // blackholes at R2, so no path moved and no solve runs.
  Fib dead_p2;
  dead_p2.set(fx.p.p2, FibEntry{});
  w = work_of(fx.sim, [&] { fx.sim.set_fib(fx.p.r2, std::move(dead_p2)); });
  EXPECT_EQ(w.walks, 1u);
  EXPECT_EQ(w.solves, 0u);
  w = work_of(fx.sim, [&] { fx.sim.set_fib(fx.p.r2, fx.plain_fib(fx.p.r2)); });
  EXPECT_EQ(w.walks, 3u);
  EXPECT_EQ(w.solves, 1u);
  EXPECT_EQ(fx.sim.blackholed_flows(), 0u);
}

/// ScopedSim with A-R1 carrying traffic both ways, and an undelivered flow:
/// A sends P2 via R1 (A->R1->R4->C), R1 sends P1 via A (R1->A->B->R2->C),
/// and a flow to an address no router routes blackholes at R4.
struct LinkEventSim : ScopedSim {
  topo::LinkId a_r1 = p.topo.link_between(p.a, p.r1);
  FlowId a_to_r1 = flows[2];  // A->P2
  FlowId r1_to_a = 0;
  FlowId lost = 0;

  LinkEventSim() {
    Fib a = plain_fib(p.a);
    a.set(p.p2, FibEntry{false, {FibNextHop{a_r1, p.r1, 1}}});
    sim.set_fib(p.a, std::move(a));
    Fib r1 = plain_fib(p.r1);
    r1.set(p.p1, FibEntry{false, {FibNextHop{p.topo.link(a_r1).reverse, p.a, 1}}});
    sim.set_fib(p.r1, std::move(r1));
    r1_to_a = sim.add_flow(make_flow(p.r1, p.p1.host(6), 4006));
    lost = sim.add_flow(make_flow(p.r4, net::Ipv4(198, 51, 100, 7), 4007));
  }
  /// Flows whose path crosses A-R1 either way, plus the undelivered ones.
  [[nodiscard]] std::size_t crossing_or_undelivered() const {
    const topo::LinkId r1_a = p.topo.link(a_r1).reverse;
    std::size_t n = 0;
    for (const FlowId id : {flows[0], flows[1], flows[2], flows[3], r1_to_a, lost}) {
      const FlowPath& path = sim.flow_path(id);
      const bool crosses = std::count(path.links.begin(), path.links.end(), a_r1) +
                               std::count(path.links.begin(), path.links.end(), r1_a) >
                           0;
      if (crosses || !path.delivered()) ++n;
    }
    return n;
  }
};

TEST(NetworkSim, LinkFailureWalksCrossingAndUndeliveredFlows) {
  LinkEventSim fx;
  ASSERT_TRUE(fx.sim.flow_path(fx.a_to_r1).delivered());
  ASSERT_TRUE(fx.sim.flow_path(fx.r1_to_a).delivered());
  ASSERT_EQ(fx.sim.flow_path(fx.lost).outcome, FlowPath::Outcome::kBlackhole);
  const std::size_t expected = fx.crossing_or_undelivered();
  EXPECT_EQ(expected, 3u);  // A->P2, R1->P1 and the lost flow; not the other 3
  const Work w = work_of(fx.sim, [&] { fx.sim.fail_link(fx.a_r1); });
  EXPECT_EQ(w.walks, expected);
  EXPECT_EQ(w.solves, 1u);
  EXPECT_EQ(fx.sim.flow_path(fx.a_to_r1).outcome, FlowPath::Outcome::kBlackhole);
  EXPECT_EQ(fx.sim.flow_path(fx.r1_to_a).outcome, FlowPath::Outcome::kBlackhole);
  EXPECT_EQ(fx.sim.blackholed_flows(), 3u);
}

TEST(NetworkSim, LinkRestorationWalksOnlyUndeliveredFlows) {
  LinkEventSim fx;
  fx.sim.fail_link(fx.a_r1);
  ASSERT_EQ(fx.sim.blackholed_flows(), 3u);
  const Work w = work_of(fx.sim, [&] { fx.sim.restore_link(fx.a_r1); });
  EXPECT_EQ(w.walks, 3u);  // the three undelivered flows, no delivered one
  EXPECT_EQ(w.solves, 1u);
  EXPECT_TRUE(fx.sim.flow_path(fx.a_to_r1).delivered());
  EXPECT_TRUE(fx.sim.flow_path(fx.r1_to_a).delivered());
  EXPECT_EQ(fx.sim.blackholed_flows(), 1u);
  // A link no flow crosses: its failure and restoration each walk only the
  // undelivered flow, and still update rates once.
  const topo::LinkId r3_c = fx.p.topo.link_between(fx.p.r3, fx.p.c);
  const Work fail = work_of(fx.sim, [&] { fx.sim.fail_link(r3_c); });
  const Work restore = work_of(fx.sim, [&] { fx.sim.restore_link(r3_c); });
  EXPECT_EQ(fail.walks, 1u);
  EXPECT_EQ(fail.solves, 1u);
  EXPECT_EQ(restore.walks, 1u);
  EXPECT_EQ(restore.solves, 1u);
}

TEST(NetworkSim, LinkFailureRewalksALoopAcrossTheLink) {
  ScopedSim fx;
  const topo::LinkId a_r1 = fx.p.topo.link_between(fx.p.a, fx.p.r1);
  // A sends P1 via R1 and R1 sends it back: A->R1->A loops over A-R1, and a
  // looping walk is indexed on no link.
  Fib a = fx.plain_fib(fx.p.a);
  a.set(fx.p.p1, FibEntry{false, {FibNextHop{a_r1, fx.p.r1, 1}}});
  fx.sim.set_fib(fx.p.a, std::move(a));
  Fib r1 = fx.plain_fib(fx.p.r1);
  r1.set(fx.p.p1, FibEntry{false, {FibNextHop{fx.p.topo.link(a_r1).reverse, fx.p.a, 1}}});
  fx.sim.set_fib(fx.p.r1, std::move(r1));
  const FlowId looping = fx.sim.add_flow(make_flow(fx.p.a, fx.p.p1.host(6), 4006));
  ASSERT_EQ(fx.sim.flow_path(looping).outcome, FlowPath::Outcome::kLoop);
  ASSERT_EQ(fx.sim.flow_path(looping).links.size(), 2u);
  const Work w = work_of(fx.sim, [&] { fx.sim.fail_link(a_r1); });
  EXPECT_EQ(w.walks, 1u);  // only the loop: no delivered flow crosses A-R1
  EXPECT_EQ(w.solves, 1u);
  EXPECT_EQ(fx.sim.flow_path(looping).outcome, FlowPath::Outcome::kBlackhole);
  EXPECT_TRUE(fx.sim.flow_path(looping).links.empty());
  EXPECT_EQ(fx.sim.looping_flows(), 0u);
}

// ----------------------- max-min solves only while a link is oversubscribed

/// The live flows' demands, by id.
using Demands = std::map<FlowId, double>;

/// Every flow's rate equals max_min_rates over all flows in id order, and
/// every link rate the id-order sum of those rates over its delivered flows.
void expect_max_min_rates(const NetworkSim& sim, const topo::Topology& topo,
                          const Demands& demands) {
  std::vector<RatedFlow> rated;
  for (const auto& [id, demand] : demands) {
    rated.push_back(RatedFlow{id, demand, &sim.flow_path(id)});
  }
  const std::vector<double> rates = max_min_rates(topo, rated);
  std::vector<double> link_rates(topo.link_count(), 0.0);
  for (std::size_t i = 0; i < rated.size(); ++i) {
    EXPECT_EQ(sim.flow_rate(rated[i].id), rates[i]) << "flow " << rated[i].id;
    if (!rated[i].path->delivered()) continue;
    for (const topo::LinkId l : rated[i].path->links) link_rates[l] += rates[i];
  }
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    EXPECT_EQ(sim.link_rate(l), link_rates[l]) << "link " << l;
  }
}

TEST(NetworkSim, RoomyLinksSkipTheMaxMinSolve) {
  ScopedSim fx;  // 1 Mb/s flows on 40 Mb/s links
  Demands demands;
  for (const FlowId id : fx.flows) demands[id] = 1e6;
  // Every link rate is the id-order sum of the demands crossing it.
  const auto expect_demand_sums = [&] {
    std::vector<double> sums(fx.p.topo.link_count(), 0.0);
    for (const auto& [id, demand] : demands) {
      const FlowPath& path = fx.sim.flow_path(id);
      if (!path.delivered()) continue;
      for (const topo::LinkId l : path.links) sums[l] += demand;
    }
    for (topo::LinkId l = 0; l < sums.size(); ++l) {
      EXPECT_EQ(fx.sim.link_rate(l), sums[l]) << "link " << l;
    }
  };
  FlowId added = 0;
  Work w = work_of(fx.sim, [&] {
    added = fx.sim.add_flow(make_flow(fx.p.a, fx.p.p1.host(5), 4005, 3e6));
  });
  demands[added] = 3e6;
  EXPECT_EQ(w.solves, 1u);
  EXPECT_EQ(w.max_min, 0u);
  EXPECT_EQ(fx.sim.flow_rate(added), 3e6);
  expect_demand_sums();
  expect_max_min_rates(fx.sim, fx.p.topo, demands);

  w = work_of(fx.sim, [&] { fx.sim.remove_flow(fx.flows[1]); });
  demands.erase(fx.flows[1]);
  EXPECT_EQ(w.solves, 1u);
  EXPECT_EQ(w.max_min, 0u);
  expect_demand_sums();
  expect_max_min_rates(fx.sim, fx.p.topo, demands);
}

/// B->R2 carries three of ScopedSim's 1 Mb/s flows. Two 38.5 Mb/s B->P1
/// flows push it past its 40 Mb/s; it stays past until the second small
/// flow leaves (39.5 Mb/s), which raises the big flow's rate.
TEST(NetworkSim, OversubscribedLinkSolvesUntilItFits) {
  ScopedSim fx;
  Demands demands;
  for (const FlowId id : fx.flows) demands[id] = 1e6;
  const auto add = [&](std::uint16_t port) {
    const FlowId id =
        fx.sim.add_flow(make_flow(fx.p.b, fx.p.p1.host(port - 4000u), port, 38.5e6));
    demands[id] = 38.5e6;
    return id;
  };
  const auto remove = [&](FlowId id) {
    fx.sim.remove_flow(id);
    demands.erase(id);
  };
  FlowId x = 0;
  FlowId y = 0;
  Work w = work_of(fx.sim, [&] { x = add(4010); });  // 41.5 Mb/s
  EXPECT_EQ(w.max_min, 1u);
  expect_max_min_rates(fx.sim, fx.p.topo, demands);
  EXPECT_EQ(fx.sim.flow_rate(x), 37e6);
  w = work_of(fx.sim, [&] { y = add(4011); });  // 80 Mb/s
  EXPECT_EQ(w.max_min, 1u);
  expect_max_min_rates(fx.sim, fx.p.topo, demands);
  w = work_of(fx.sim, [&] { remove(y); });  // 41.5 Mb/s
  EXPECT_EQ(w.max_min, 1u);
  expect_max_min_rates(fx.sim, fx.p.topo, demands);
  w = work_of(fx.sim, [&] { remove(fx.flows[0]); });  // 40.5 Mb/s
  EXPECT_EQ(w.max_min, 1u);
  expect_max_min_rates(fx.sim, fx.p.topo, demands);
  EXPECT_EQ(fx.sim.flow_rate(x), 38e6);
  // Back under capacity: this update still takes the full solve, since the
  // big flow's rate rises to its demand.
  w = work_of(fx.sim, [&] { remove(fx.flows[1]); });  // 39.5 Mb/s
  EXPECT_EQ(w.solves, 1u);
  EXPECT_EQ(w.max_min, 1u);
  expect_max_min_rates(fx.sim, fx.p.topo, demands);
  EXPECT_EQ(fx.sim.flow_rate(x), 38.5e6);
  // Every link fits before and after the next change.
  w = work_of(fx.sim, [&] { remove(fx.flows[3]); });
  EXPECT_EQ(w.solves, 1u);
  EXPECT_EQ(w.max_min, 0u);
  expect_max_min_rates(fx.sim, fx.p.topo, demands);
}

TEST(NetworkSim, LinkFilledExactlyToCapacityRunsTheFullSolve) {
  support::PaperSimHarness fx;  // 40 Mb/s links
  Demands demands;
  std::vector<Work> work;
  for (std::uint16_t port = 4001; port <= 4004; ++port) {
    work.push_back(work_of(fx.sim, [&] {
      const Flow flow = make_flow(fx.p.b, fx.p.p1.host(port - 4000u), port, 10e6);
      demands[fx.sim.add_flow(flow)] = 10e6;
    }));
  }
  EXPECT_EQ(work[2].max_min, 0u);  // 30 Mb/s on B->R2 fits
  EXPECT_EQ(work[3].solves, 1u);   // 40 Mb/s: exactly full
  EXPECT_EQ(work[3].max_min, 1u);
  expect_max_min_rates(fx.sim, fx.p.topo, demands);
  EXPECT_EQ(fx.sim.link_rate(fx.p.topo.link_between(fx.p.b, fx.p.r2)), 40e6);
}

}  // namespace
}  // namespace fibbing::dataplane
