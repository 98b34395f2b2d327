#include <gtest/gtest.h>

#include <numeric>

#include "te/maxflow.hpp"
#include "te/minmax.hpp"
#include "te/mpls.hpp"
#include "te/ratio.hpp"
#include "topo/generators.hpp"
#include "util/rng.hpp"

namespace fibbing::te {
namespace {

using topo::make_paper_topology;
using topo::NodeId;
using topo::PaperTopology;

// ------------------------------------------------------------------- MaxFlow

TEST(MaxFlow, SimpleChain) {
  MaxFlow mf(3);
  mf.add_edge(0, 1, 5.0);
  mf.add_edge(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 2), 3.0);
}

TEST(MaxFlow, ParallelPathsSum) {
  MaxFlow mf(4);
  mf.add_edge(0, 1, 4.0);
  mf.add_edge(1, 3, 4.0);
  mf.add_edge(0, 2, 3.0);
  mf.add_edge(2, 3, 5.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 3), 7.0);
}

TEST(MaxFlow, ClassicResidualCase) {
  // The textbook diamond where augmenting through the middle edge must be
  // undone via the residual graph.
  MaxFlow mf(4);
  mf.add_edge(0, 1, 10.0);
  mf.add_edge(0, 2, 10.0);
  const std::size_t middle = mf.add_edge(1, 2, 1.0);
  mf.add_edge(1, 3, 10.0);
  mf.add_edge(2, 3, 10.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 3), 20.0);
  EXPECT_LE(mf.flow_on(middle), 1.0 + 1e-9);
}

TEST(MaxFlow, DisconnectedIsZero) {
  MaxFlow mf(4);
  mf.add_edge(0, 1, 5.0);
  mf.add_edge(2, 3, 5.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 3), 0.0);
}

TEST(MaxFlow, FlowOnReportsPerEdge) {
  MaxFlow mf(3);
  const std::size_t a = mf.add_edge(0, 1, 5.0);
  const std::size_t b = mf.add_edge(1, 2, 3.0);
  mf.solve(0, 2);
  EXPECT_DOUBLE_EQ(mf.flow_on(a), 3.0);
  EXPECT_DOUBLE_EQ(mf.flow_on(b), 3.0);
}

TEST(MaxFlow, ResidualAndBulkFlowAccessors) {
  MaxFlow mf(3);
  const std::size_t a = mf.add_edge(0, 1, 5.0);
  const std::size_t b = mf.add_edge(1, 2, 3.0);
  mf.solve(0, 2);
  EXPECT_DOUBLE_EQ(mf.residual_on(a), 2.0);
  EXPECT_DOUBLE_EQ(mf.residual_on(b), 0.0);
  const std::vector<double> flows = mf.flows();
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_DOUBLE_EQ(flows[a], 3.0);
  EXPECT_DOUBLE_EQ(flows[b], 3.0);
}

TEST(MaxFlow, WidenGrowsCapacityWithoutDisturbingFlow) {
  MaxFlow mf(3);
  mf.add_edge(0, 1, 5.0);
  const std::size_t b = mf.add_edge(1, 2, 3.0);
  mf.solve(0, 2);
  mf.widen(b, 4.0);
  EXPECT_DOUBLE_EQ(mf.flow_on(b), 3.0);
  EXPECT_DOUBLE_EQ(mf.residual_on(b), 4.0);
}

TEST(MaxFlow, PushResidualReroutesOntoParallelPath) {
  // Two disjoint 0->1->3 / 0->2->3 paths; saturate the first, then move
  // 2 units onto the second via a residual path that cancels on the first.
  MaxFlow mf(4);
  const std::size_t top_a = mf.add_edge(0, 1, 5.0);
  mf.add_edge(1, 3, 5.0);
  const std::size_t bot_a = mf.add_edge(0, 2, 4.0);
  const std::size_t bot_b = mf.add_edge(2, 3, 4.0);
  EXPECT_DOUBLE_EQ(mf.solve(0, 3), 9.0);
  EXPECT_DOUBLE_EQ(mf.flow_on(top_a), 5.0);
  // Move 2 units off the top path: push 2 along the residual 1 -> 0 -> 2 -> 3
  // ... -> back is implicit: cancel on top_a, forward on bottom -- but the
  // bottom is saturated, so the push must fail and leave the flow intact.
  EXPECT_FALSE(mf.push_residual(1, 0, 2.0, {top_a}));
  EXPECT_DOUBLE_EQ(mf.flow_on(top_a), 5.0);
  EXPECT_DOUBLE_EQ(mf.flow_on(bot_a), 4.0);
  EXPECT_DOUBLE_EQ(mf.flow_on(bot_b), 4.0);
}

TEST(MaxFlow, TargetedCyclePushMovesFlowBetweenBranches) {
  // The refinement's composition: a diamond whose max flow lands entirely
  // on the top branch; push_residual (return path, cancellation-preferring)
  // plus push_on_edge (targeted edge) move 2 units to the bottom branch
  // without changing the flow value.
  MaxFlow mf(5);
  const std::size_t top_a = mf.add_edge(0, 1, 4.0);
  const std::size_t top_b = mf.add_edge(1, 3, 4.0);
  const std::size_t bot_a = mf.add_edge(0, 2, 4.0);
  const std::size_t bot_b = mf.add_edge(2, 3, 4.0);
  const std::size_t src = mf.add_edge(4, 0, 4.0);
  EXPECT_DOUBLE_EQ(mf.solve(4, 3), 4.0);
  ASSERT_DOUBLE_EQ(mf.flow_on(top_a), 4.0);  // insertion order: top first
  EXPECT_DOUBLE_EQ(mf.flow_on(bot_a), 0.0);

  // Return path 2 -> 3 (forward) -> 1 (cancel top_b) -> 0 (cancel top_a),
  // then the targeted push onto bot_a closes the cycle.
  ASSERT_TRUE(mf.push_residual(2, 0, 2.0, {bot_a, src}));
  mf.push_on_edge(bot_a, 2.0);
  EXPECT_DOUBLE_EQ(mf.flow_on(top_a), 2.0);
  EXPECT_DOUBLE_EQ(mf.flow_on(top_b), 2.0);
  EXPECT_DOUBLE_EQ(mf.flow_on(bot_a), 2.0);
  EXPECT_DOUBLE_EQ(mf.flow_on(bot_b), 2.0);
  EXPECT_DOUBLE_EQ(mf.flow_on(src), 4.0);
}

// -------------------------------------------------------------------- minmax

TEST(MinMax, PaperSurgeOptimum) {
  // Fig. 1 situation: 100 units from A and 100 from B toward C, all links
  // capacity 100. The optimum spreads 200 units over the three C-facing
  // links (cuts {R2-C, R3-C, R4-C}): theta* = 200/300 = 2/3.
  const PaperTopology p = make_paper_topology(100.0);
  const std::vector<Demand> demands{{p.a, 100.0}, {p.b, 100.0}};
  const auto result = solve_min_max(p.topo, p.c, demands);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_NEAR(result.value().theta, 2.0 / 3.0, 1e-3);
}

TEST(MinMax, BeatsShortestPathOnPaperTopology) {
  const PaperTopology p = make_paper_topology(100.0);
  const std::vector<Demand> demands{{p.a, 100.0}, {p.b, 100.0}};
  const double spf_theta = shortest_path_max_utilization(p.topo, p.c, demands);
  // Plain IGP sends everything through B-R2-C: 200 on a 100-capacity link.
  EXPECT_NEAR(spf_theta, 2.0, 1e-9);
  const auto optimal = solve_min_max(p.topo, p.c, demands);
  ASSERT_TRUE(optimal.ok());
  EXPECT_LT(optimal.value().theta, spf_theta / 2.5);
}

TEST(MinMax, SplitsFormDagCoveringDemand) {
  const PaperTopology p = make_paper_topology(100.0);
  const std::vector<Demand> demands{{p.a, 100.0}, {p.b, 100.0}};
  const auto result = solve_min_max(p.topo, p.c, demands);
  ASSERT_TRUE(result.ok());
  const MinMaxResult& mm = result.value();

  // Ingresses must split; fractions sum to 1 at every split node.
  ASSERT_TRUE(mm.splits.contains(p.a));
  ASSERT_TRUE(mm.splits.contains(p.b));
  for (const auto& [node, split] : mm.splits) {
    double sum = 0.0;
    for (const auto& [via, frac] : split) {
      EXPECT_GT(frac, 0.0);
      sum += frac;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
  // Flow conservation: total into C equals total demand.
  double into_c = 0.0;
  for (topo::LinkId l = 0; l < p.topo.link_count(); ++l) {
    if (p.topo.link(l).to == p.c) into_c += mm.link_flow[l];
    EXPECT_GE(mm.link_flow[l], -1e-9);
  }
  EXPECT_NEAR(into_c, 200.0, 1e-3);
}

TEST(MinMax, RespectsBackgroundLoad) {
  const PaperTopology p = make_paper_topology(100.0);
  // B-R2 already carries 80 units of untouchable traffic.
  std::vector<double> background(p.topo.link_count(), 0.0);
  background[p.topo.link_between(p.b, p.r2)] = 80.0;
  const std::vector<Demand> demands{{p.b, 100.0}};
  const auto with_bg = solve_min_max(p.topo, p.c, demands, background);
  const auto without = solve_min_max(p.topo, p.c, demands);
  ASSERT_TRUE(with_bg.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_GT(with_bg.value().theta, without.value().theta);
  // The new flow must mostly avoid B-R2.
  EXPECT_LT(with_bg.value().link_flow[p.topo.link_between(p.b, p.r2)], 50.0);
}

TEST(MinMax, RefinementNeverTradesOptimalityAtZeroRelax) {
  const PaperTopology p = make_paper_topology(100.0);
  const std::vector<Demand> demands{{p.a, 100.0}, {p.b, 100.0}};
  MinMaxConfig refined;
  MinMaxConfig plain;
  plain.refine = false;
  const auto with = solve_min_max(p.topo, p.c, demands, {}, refined);
  const auto without = solve_min_max(p.topo, p.c, demands, {}, plain);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_NEAR(with.value().theta, without.value().theta, 1e-3);
  EXPECT_NEAR(with.value().theta, with.value().theta_opt, 1e-3);
  EXPECT_TRUE(with.value().refined);
  EXPECT_FALSE(without.value().refined);
}

TEST(MinMax, FeasibilitySlackScalesToMultiGbpsDemand) {
  // At multi-Gbps magnitudes a fixed 1e-6 bps slack term is numerically
  // invisible; the scale-aware slack must keep the oracle's verdict stable.
  const PaperTopology p = make_paper_topology(100e9);
  const std::vector<Demand> demands{{p.a, 100e9}, {p.b, 100e9}};
  const auto result = solve_min_max(p.topo, p.c, demands);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_NEAR(result.value().theta, 2.0 / 3.0, 1e-3);
}

/// The PR-1 degenerate optimum: background load saturating B's shortest
/// path makes every theta*-optimal flow exclude R2 at B entirely ("all via
/// R3"), which strict-mode lies cannot express at the demo metric scale.
/// At theta_relax = 0 the solver must not trade optimality (the exclusion
/// stays); with the fallback ladder's relaxation it must re-include the
/// shortest-path next hop at exactly the granularity floor.
TEST(MinMax, TiePreservingRefinementUnderThetaRelax) {
  const PaperTopology p = make_paper_topology();  // 40 Mb/s links
  // P2-like 31 Mb/s of untouchable traffic on A-B, B-R2, R2-C.
  std::vector<double> background(p.topo.link_count(), 0.0);
  background[p.topo.link_between(p.a, p.b)] = 31e6;
  background[p.topo.link_between(p.b, p.r2)] = 31e6;
  background[p.topo.link_between(p.r2, p.c)] = 31e6;
  const std::vector<Demand> demands{{p.b, 31e6}};

  MinMaxConfig config;
  config.max_stretch = 1.5;
  config.granularity_floor = 1.0 / 8.0;

  const auto exact = solve_min_max(p.topo, p.c, demands, background, config);
  ASSERT_TRUE(exact.ok()) << exact.error();
  EXPECT_NEAR(exact.value().theta_opt, 31e6 / 40e6, 1e-3);
  // theta* admits no flow on B-R2: the optimum is the all-or-nothing split.
  EXPECT_NEAR(exact.value().link_flow[p.topo.link_between(p.b, p.r2)], 0.0, 1.0);
  EXPECT_FALSE(exact.value().tie_complete);

  config.theta_relax = 0.25;
  const auto relaxed = solve_min_max(p.topo, p.c, demands, background, config);
  ASSERT_TRUE(relaxed.ok()) << relaxed.error();
  const auto& r = relaxed.value();
  EXPECT_LE(r.theta, r.theta_opt * 1.25 + 1e-6);
  EXPECT_TRUE(r.tie_complete);
  EXPECT_GE(r.spf_ties_added, 1);
  // Exactly one FIB slot's worth of flow moved onto the shortest-path hop.
  ASSERT_TRUE(r.splits.contains(p.b));
  double r2_frac = 0.0;
  for (const auto& [via, frac] : r.splits.at(p.b)) {
    if (via == p.r2) r2_frac = frac;
  }
  EXPECT_NEAR(r2_frac, 1.0 / 8.0, 1e-6);
}

TEST(MinMax, SliverRemovalRefinement) {
  // Two parallel paths where the exact optimum puts an inexpressible ~9.5%
  // sliver on the long path; with relaxation headroom the refinement folds
  // it onto the main path.
  topo::Topology t;
  const NodeId s = t.add_node("S");
  const NodeId m = t.add_node("M");
  const NodeId q = t.add_node("Q");
  const NodeId d = t.add_node("D");
  t.add_link(s, m, 1, 95.0);
  t.add_link(m, d, 1, 95.0);
  t.add_link(s, q, 5, 10.0);
  t.add_link(q, d, 5, 10.0);
  const std::vector<Demand> demands{{s, 100.0}};

  MinMaxConfig config;
  config.granularity_floor = 1.0 / 8.0;
  const auto exact = solve_min_max(t, d, demands, {}, config);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(exact.value().splits.contains(s));
  EXPECT_EQ(exact.value().splits.at(s).size(), 2u);  // sliver survives at theta*

  config.theta_relax = 0.15;
  const auto relaxed = solve_min_max(t, d, demands, {}, config);
  ASSERT_TRUE(relaxed.ok());
  const auto& r = relaxed.value();
  EXPECT_GE(r.slivers_removed, 1);
  ASSERT_TRUE(r.splits.contains(s));
  ASSERT_EQ(r.splits.at(s).size(), 1u);
  EXPECT_EQ(r.splits.at(s).front().first, m);
  EXPECT_NEAR(r.theta, 100.0 / 95.0, 1e-6);
  EXPECT_LE(r.theta, r.theta_opt * 1.15 + 1e-6);
}

TEST(MinMax, SupportRestrictionLimitsPlacement) {
  const PaperTopology p = make_paper_topology(100.0);
  const std::vector<Demand> demands{{p.b, 100.0}};
  // Restrict B's placement to the shortest-path DAG: no spreading over R3.
  MinMaxConfig config;
  config.support = shortest_path_dag(p.topo, p.c);
  const auto result = solve_min_max(p.topo, p.c, demands, {}, config);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_NEAR(result.value().theta, 1.0, 1e-3);  // all on B-R2-C
  EXPECT_NEAR(result.value().link_flow[p.topo.link_between(p.b, p.r3)], 0.0, 1e-6);
  // A malformed support vector is a soft failure, not an abort.
  config.support.assign(3, true);
  EXPECT_FALSE(solve_min_max(p.topo, p.c, demands, {}, config).ok());
}

TEST(MinMax, ZeroDemandIsTrivial) {
  const PaperTopology p = make_paper_topology();
  const auto result = solve_min_max(p.topo, p.c, {});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().theta, 0.0);
  EXPECT_TRUE(result.value().splits.empty());
}

TEST(MinMax, OverloadReportsThetaAboveOne) {
  const PaperTopology p = make_paper_topology(100.0);
  // 600 units cannot fit into the 300-capacity cut around C.
  const std::vector<Demand> demands{{p.a, 300.0}, {p.b, 300.0}};
  const auto result = solve_min_max(p.topo, p.c, demands);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().theta, 2.0, 1e-3);
}

/// Property: on random graphs, the solver's theta is never worse than plain
/// shortest-path routing, and link flows never exceed theta * capacity.
TEST(MinMax, OptimalityAndFeasibilityOnRandomGraphs) {
  util::Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    const topo::Topology t = topo::make_waxman(14, rng, 0.5, 0.5, 8, 100.0, 400.0);
    const NodeId dest = static_cast<NodeId>(trial % t.node_count());
    std::vector<Demand> demands;
    for (int d = 0; d < 3; ++d) {
      NodeId ingress = static_cast<NodeId>(rng.pick_index(t.node_count()));
      if (ingress == dest) ingress = (ingress + 1) % t.node_count();
      demands.push_back(Demand{ingress, rng.uniform(50.0, 200.0)});
    }
    const auto result = solve_min_max(t, dest, demands);
    ASSERT_TRUE(result.ok()) << "trial " << trial;
    const double spf = shortest_path_max_utilization(t, dest, demands);
    EXPECT_LE(result.value().theta, spf + 1e-6) << "trial " << trial;
    for (topo::LinkId l = 0; l < t.link_count(); ++l) {
      EXPECT_LE(result.value().link_flow[l],
                result.value().theta * t.link(l).capacity_bps + 1e-6);
    }
  }
}

// --------------------------------------------------------------------- ratio

TEST(Ratio, ExactFractionsAreExact) {
  const auto w = approximate_ratios({1.0 / 3, 2.0 / 3}, 8);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(ratio_error(w, {1.0 / 3, 2.0 / 3}), 0.0);
  EXPECT_EQ(w[0] * 2, w[1]);
}

TEST(Ratio, EvenSplitUsesMinimalDenominator) {
  const auto w = approximate_ratios({0.5, 0.5}, 8);
  EXPECT_EQ(w, (std::vector<std::uint32_t>{1, 1}));
}

TEST(Ratio, PositiveFractionNeverDropped) {
  const auto w = approximate_ratios({0.05, 0.95}, 4);
  EXPECT_GE(w[0], 1u);
  EXPECT_GE(w[1], 1u);
}

TEST(Ratio, ZeroFractionGetsZeroWeight) {
  const auto w = approximate_ratios({0.0, 0.4, 0.6}, 8);
  EXPECT_EQ(w[0], 0u);
  EXPECT_GT(w[1], 0u);
}

TEST(Ratio, TighterBudgetDegradesGracefully) {
  const std::vector<double> f{0.21, 0.34, 0.45};
  const auto w8 = approximate_ratios(f, 8);
  const auto w16 = approximate_ratios(f, 16);
  EXPECT_LE(ratio_error(w16, f), ratio_error(w8, f) + 1e-12);
}

/// Property sweep: error never exceeds 1/(2 * positive_count) * ... loose
/// bound: with budget >= k the largest-remainder error is below 1/k.
TEST(Ratio, ErrorBoundProperty) {
  util::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const int k = 2 + static_cast<int>(rng.uniform_int(0, 2));
    std::vector<double> f(static_cast<std::size_t>(k));
    double sum = 0.0;
    for (double& x : f) sum += (x = rng.uniform(0.05, 1.0));
    for (double& x : f) x /= sum;
    const std::uint32_t budget = 8;
    const auto w = approximate_ratios(f, budget);
    EXPECT_LE(ratio_error(w, f), 1.0 / static_cast<double>(k)) << "trial " << trial;
    EXPECT_LE(std::accumulate(w.begin(), w.end(), 0u), budget);
  }
}

// ---------------------------------------------------------------------- MPLS

TEST(Mpls, TunnelsCoverDemandAndRespectFlows) {
  const PaperTopology p = make_paper_topology(100.0);
  const std::vector<Demand> demands{{p.a, 100.0}, {p.b, 100.0}};
  const auto solution = solve_min_max(p.topo, p.c, demands);
  ASSERT_TRUE(solution.ok());
  const auto tunnels = tunnels_from_splits(p.topo, solution.value(), demands, p.c);

  // Reservation totals match demand per ingress.
  double from_a = 0.0;
  double from_b = 0.0;
  for (const Tunnel& t : tunnels) {
    EXPECT_EQ(t.egress, p.c);
    ASSERT_FALSE(t.links.empty());
    EXPECT_EQ(p.topo.link(t.links.front()).from, t.ingress);
    EXPECT_EQ(p.topo.link(t.links.back()).to, p.c);
    (t.ingress == p.a ? from_a : from_b) += t.reserved_bps;
  }
  EXPECT_NEAR(from_a, 100.0, 1e-3);
  EXPECT_NEAR(from_b, 100.0, 1e-3);

  // Per-link reservations never exceed the solver's flow.
  std::vector<double> reserved(p.topo.link_count(), 0.0);
  for (const Tunnel& t : tunnels) {
    for (const topo::LinkId l : t.links) reserved[l] += t.reserved_bps;
  }
  for (topo::LinkId l = 0; l < p.topo.link_count(); ++l) {
    EXPECT_LE(reserved[l], solution.value().link_flow[l] + 1e-3);
  }
}

TEST(Mpls, OverheadAccountingCountsStateAndMessages) {
  const PaperTopology p = make_paper_topology(100.0);
  const std::vector<Demand> demands{{p.a, 100.0}, {p.b, 100.0}};
  const auto solution = solve_min_max(p.topo, p.c, demands);
  ASSERT_TRUE(solution.ok());
  const auto tunnels = tunnels_from_splits(p.topo, solution.value(), demands, p.c);
  const MplsOverhead overhead = account_overhead(tunnels);
  EXPECT_EQ(overhead.tunnels, tunnels.size());
  EXPECT_GE(overhead.tunnels, 3u);  // multipath needs several LSPs
  std::size_t hops = 0;
  for (const Tunnel& t : tunnels) hops += t.links.size();
  EXPECT_EQ(overhead.setup_messages, 2 * hops);
  EXPECT_EQ(overhead.state_entries, hops + tunnels.size());
  EXPECT_GT(overhead.encap_overhead_ratio(), 0.0);
}

}  // namespace
}  // namespace fibbing::te
