#include <gtest/gtest.h>

#include "core/loads.hpp"
#include "core/service.hpp"
#include "core/verify.hpp"
#include "support/probes.hpp"
#include "support/scenario.hpp"
#include "topo/generators.hpp"
#include "video/flash_crowd.hpp"

namespace fibbing::core {
namespace {

using support::demo_config;
using support::PaperScenario;
using video::VideoAsset;

TEST(Fig2, ControllerSplitsAtBThenUnevenAtA) {
  PaperScenario run;
  run.schedule_fig2();

  // t < 15: a single 1 Mb/s flow on the shortest path B-R2-C.
  run.run_until(10.0);
  EXPECT_NEAR(run.rate(run.p.b, run.p.r2), 1e6, 1e3);
  EXPECT_DOUBLE_EQ(run.rate(run.p.b, run.p.r3), 0.0);
  EXPECT_DOUBLE_EQ(run.rate(run.p.a, run.p.r1), 0.0);

  // 15 < t < 35: the controller split B's traffic about evenly (Fig. 2's
  // B-R2 and B-R3 curves join). Hash-based ECMP wobbles around 50/50.
  run.run_until(30.0);
  EXPECT_EQ(run.service.controller().mitigations(), 1);
  EXPECT_NEAR(run.rate(run.p.b, run.p.r2), 15.5e6, 5e6);
  EXPECT_NEAR(run.rate(run.p.b, run.p.r3), 15.5e6, 5e6);
  EXPECT_NEAR(run.rate(run.p.b, run.p.r2) + run.rate(run.p.b, run.p.r3), 31e6, 1e4);
  EXPECT_DOUBLE_EQ(run.rate(run.p.a, run.p.r1), 0.0);

  // t > 35: uneven 1/3:2/3 at A; all three monitored links level out well
  // under capacity (the paper's punchline).
  run.run_until(55.0);
  EXPECT_EQ(run.service.controller().mitigations(), 2);
  EXPECT_NEAR(run.rate(run.p.a, run.p.r1), 20.7e6, 6e6);
  EXPECT_NEAR(run.rate(run.p.a, run.p.b), 10.3e6, 6e6);
  const double br2 = run.rate(run.p.b, run.p.r2);
  const double br3 = run.rate(run.p.b, run.p.r3);
  EXPECT_LT(br2, 40e6 * 0.8);  // decisively below capacity
  EXPECT_LT(br3, 40e6 * 0.8);
  // Total into C equals total demand: nothing lost.
  EXPECT_TRUE(support::traffic_conserved(run.service, run.p.c, 62e6));

  // Smooth playback for everyone.
  EXPECT_EQ(run.stalled_sessions(), 0);
}

TEST(Fig2, ControllerUsesPaperLieShape) {
  PaperScenario run;
  run.schedule_fig2();
  run.run_until(55.0);
  const auto& active = run.service.controller().active_lies();
  ASSERT_TRUE(active.contains(run.p.p1));
  ASSERT_TRUE(active.contains(run.p.p2));
  // P1: the single fB lie (B -> R3 at tie cost). P2: strict triple at A
  // (1x via B, 2x via R1) plus fB for P2.
  EXPECT_EQ(active.at(run.p.p1).size(), 1u);
  EXPECT_EQ(active.at(run.p.p1)[0].attach, run.p.b);
  EXPECT_EQ(active.at(run.p.p1)[0].via, run.p.r3);
  EXPECT_EQ(active.at(run.p.p2).size(), 4u);
  int a_to_r1 = 0;
  int a_to_b = 0;
  int b_to_r3 = 0;
  for (const Lie& lie : active.at(run.p.p2)) {
    if (lie.attach == run.p.a && lie.via == run.p.r1) ++a_to_r1;
    if (lie.attach == run.p.a && lie.via == run.p.b) ++a_to_b;
    if (lie.attach == run.p.b && lie.via == run.p.r3) ++b_to_r3;
  }
  EXPECT_EQ(a_to_r1, 2);
  EXPECT_EQ(a_to_b, 1);
  EXPECT_EQ(b_to_r3, 1);
}

TEST(Fig2, WithoutControllerPlaybackStutters) {
  PaperScenario run(demo_config(/*enabled=*/false));
  run.schedule_fig2();
  run.run_until(55.0);
  EXPECT_EQ(run.service.controller().mitigations(), 0);
  EXPECT_EQ(run.service.controller().active_lie_count(), 0u);
  // Everything still piles onto B-R2: saturated.
  EXPECT_NEAR(run.rate(run.p.b, run.p.r2), 40e6, 1e4);
  EXPECT_DOUBLE_EQ(run.rate(run.p.b, run.p.r3), 0.0);
  // The overload after t=35 starves most sessions: widespread stutter.
  EXPECT_GT(run.stalled_sessions(), 40);
}

TEST(Fig2, ReactiveModeMitigatesAfterSnmpDetection) {
  PaperScenario run(demo_config(/*enabled=*/true, /*proactive=*/false));
  run.schedule_fig2();
  // Surge hits at t=15; detection needs polls above the watermark for
  // hold_rounds (2) intervals: no mitigation before ~t=17.
  run.run_until(16.5);
  EXPECT_EQ(run.service.controller().mitigations(), 0);
  run.run_until(25.0);
  EXPECT_EQ(run.service.controller().mitigations(), 1);
  EXPECT_GT(run.rate(run.p.b, run.p.r3), 8e6);  // split is in effect
}

TEST(Controller, RetractsLiesWhenSurgeEnds) {
  PaperScenario run;
  // A short surge: 31 twenty-second videos.
  run.schedule(support::subsiding_surge_schedule(run.s1, run.p.p1, 31, 5.0, 20.0));

  run.run_until(15.0);
  EXPECT_EQ(run.service.controller().mitigations(), 1);
  EXPECT_GT(run.service.controller().active_lie_count(), 0u);

  // Videos end around t=27 (2 s startup + 20 s playout); demand drops to
  // zero and the lies retract.
  run.run_until(40.0);
  EXPECT_EQ(run.service.controller().active_lie_count(), 0u);
  EXPECT_GE(run.service.controller().retractions(), 1);
  // Forwarding is back to plain IGP: B routes P1 via R2 only.
  const auto& entry = run.service.domain().table(run.p.b).at(run.p.p1);
  ASSERT_EQ(entry.next_hops.size(), 1u);
  EXPECT_EQ(entry.next_hops[0].via, run.p.r2);
}

TEST(Controller, LedgerTracksDemand) {
  PaperScenario run;
  EXPECT_DOUBLE_EQ(run.service.controller().demand_for(run.p.p1), 0.0);
  const auto session = run.service.video().start_session(
      run.s1, run.p.p1, run.p.p1.host(1), VideoAsset{2e6, 60.0});
  EXPECT_DOUBLE_EQ(run.service.controller().demand_for(run.p.p1), 2e6);
  run.service.video().stop_session(session);
  EXPECT_DOUBLE_EQ(run.service.controller().demand_for(run.p.p1), 0.0);
}

TEST(Controller, IdempotentUnderRepeatedCongestionSignals) {
  PaperScenario run;
  run.schedule_fig2();
  run.run_until(30.0);
  const int mitigations = run.service.controller().mitigations();
  // Nothing changes while demand is steady, despite continuous polling.
  run.run_until(34.0);
  EXPECT_EQ(run.service.controller().mitigations(), mitigations);
}

/// Regression for the PR-1 degenerate optimum, on the input a batch member
/// sees when it is planned around its peer's stale shortest-path load: P1's
/// 31 Mb/s from B, with P2's 31 Mb/s from A on its IGP route as background.
/// The min-max optimum then excludes B's real next hop entirely ("all via
/// R3 at B"), which strict lies cannot express at the demo metric scale.
/// The seed controller looped on "insufficient metric granularity" forever.
/// The tie-preserving refinement plus the theta fallback ladder must compile
/// it anyway, with the realized theta inside the ladder's (1 + eps) bound.
TEST(Controller, DegenerateOptimumCompilesViaFallbackLadder) {
  const topo::PaperTopology p = topo::make_paper_topology();
  const ControllerConfig config = demo_config().controller;
  const topo::LinkStateMask mask(p.topo);
  igp::RouteCache cache(p.topo, mask);
  const std::vector<te::Demand> demands{{p.b, 31e6}};
  const std::vector<double> background =
      te::shortest_path_loads(p.topo, p.c, {{p.a, 31e6}}, &mask);

  const PlacementOutcome out = place_prefix(p.topo, config, mask, cache, p.p1, p.c,
                                            demands, background, /*first_lie_id=*/1);
  ASSERT_TRUE(out.ok()) << (out.compiled.has_value() ? out.compiled->error()
                                                     : out.solver_error);
  // theta* fails on granularity, and so do the 2, 5 and 10 % rungs; the
  // 25 % rung places it: 1 + 4 solves.
  EXPECT_EQ(out.relaxed, 1);
  EXPECT_EQ(out.solves, 5);

  // Replay the placing rung through the public solver: the same support
  // restriction (the optimum's flow links plus the shortest-path DAG) at
  // theta* * 1.25. theta* is 31/40 on the B-R2 / B-R3 bottleneck.
  te::MinMaxConfig mm;
  mm.max_stretch = config.max_stretch;
  mm.link_state = &mask;
  mm.granularity_floor = 1.0 / config.max_replicas;
  const auto exact = te::solve_min_max(p.topo, p.c, demands, background, mm);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(exact.value().theta_opt, 31.0 / 40.0, 1e-3);
  mm.support = te::shortest_path_dag(p.topo, p.c, &mask);
  for (topo::LinkId l = 0; l < p.topo.link_count(); ++l) {
    if (exact.value().link_flow[l] > 1.0) mm.support[l] = true;
  }
  mm.theta_relax = 0.25;  // the ladder's last rung
  const auto relaxed = te::solve_min_max(p.topo, p.c, demands, background, mm);
  ASSERT_TRUE(relaxed.ok());
  const double bound = relaxed.value().theta_opt * (1.0 + mm.theta_relax);
  EXPECT_GT(relaxed.value().theta, relaxed.value().theta_opt);
  EXPECT_LE(relaxed.value().theta, bound);
  // No workload reaches the ladder, so its exact output is pinned here: a
  // change to the solver or to the ladder that moves any of these values
  // changes what the controller installs.
  EXPECT_EQ(relaxed.value().theta_opt, 0.7750244140625);
  EXPECT_EQ(relaxed.value().theta, 0.87187499999999996);

  // The 7:1 split at B in tie mode: seven lies toward R3 beside B's real
  // next hop R2.
  const std::vector<Lie>& lies = out.compiled->value().lies;
  ASSERT_EQ(lies.size(), 7u);
  for (std::size_t i = 0; i < lies.size(); ++i) {
    EXPECT_EQ(lies[i].id, i + 1);
    EXPECT_EQ(lies[i].attach, p.b);
    EXPECT_EQ(lies[i].via, p.r3);
    EXPECT_EQ(lies[i].ext_metric, 0u);
    EXPECT_EQ(lies[i].forwarding_address, net::Ipv4(10, 0, 0, 14));
  }

  // The lies realize exactly that rung's requirement (no pollution, no
  // isolation breach, no loop), and the traffic they steer keeps every link
  // within the ladder's bound.
  const DestRequirement req =
      requirement_from_splits(p.p1, relaxed.value().splits, config.max_replicas);
  const VerifyReport report = verify_augmentation(p.topo, req, lies, &mask, &cache);
  EXPECT_TRUE(report.ok()) << report.to_string(p.topo);
  const igp::RouteCache::TablesPtr tables = cache.tables(to_externals(lies));
  const std::vector<double> mine =
      loads_from_routes(p.topo, *cache.column(*tables, p.p1), p.p1, demands);
  for (topo::LinkId l = 0; l < p.topo.link_count(); ++l) {
    EXPECT_LE((mine[l] + background[l]) / p.topo.link(l).capacity_bps, bound + 1e-3)
        << p.topo.link_name(l);
  }
}

TEST(Controller, DoubleSurgePlacesBothPrefixesWithoutChurn) {
  // The coalesced double surge must not see-saw: after the initial
  // placement round settles, continued polling leaves the lie sets alone.
  PaperScenario run;
  run.schedule(support::double_surge_schedule(run.s1, run.s2, run.p.p1, run.p.p2));
  run.run_until(20.0);
  ASSERT_GE(run.service.controller().mitigations(), 1);
  const int placed = run.service.controller().mitigations();
  const std::size_t lies = run.service.controller().active_lie_count();
  run.run_until(35.0);
  EXPECT_EQ(run.service.controller().mitigations(), placed);
  EXPECT_EQ(run.service.controller().active_lie_count(), lies);
}

TEST(Controller, DoubleSurgeSolvesEachPrefixOnceWithContiguousLieIds) {
  // The coalesced batch places P1, then P2 against P1's committed lies: one
  // solve each, and P2's lie ids continue where P1's compile stopped (P1's
  // one-lie set consumes ids 1 and 2).
  PaperScenario run;
  run.schedule(support::double_surge_schedule(run.s1, run.s2, run.p.p1, run.p.p2));
  run.run_until(35.0);
  const Controller& c = run.service.controller();
  EXPECT_EQ(c.mitigations(), 2);
  EXPECT_EQ(c.placement_solves(), 2);
  const auto ids = [&](const net::Prefix& prefix) {
    std::vector<std::uint64_t> out;
    for (const Lie& lie : c.active_lies().at(prefix)) out.push_back(lie.id);
    return out;
  };
  EXPECT_EQ(ids(run.p.p1), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(ids(run.p.p2), (std::vector<std::uint64_t>{3, 4, 5, 6}));
}

TEST(Controller, FailRestoreBatchesSolveEachMemberOnce) {
  // Failing B-R2 under both standing placements re-plans both prefixes in
  // one two-member batch, and restoring it does so again. Each member is
  // solved once, against the background of the members committed before it,
  // and every placement compiles at theta* without the fallback ladder.
  PaperScenario run;
  run.schedule_fig2();
  support::schedule_link_failure(run.service, 40.0, run.p.b, run.p.r2);
  support::schedule_link_restore(run.service, 50.0, run.p.b, run.p.r2);
  run.run_until(80.0);
  const Controller& c = run.service.controller();
  EXPECT_EQ(c.mitigations(), 6);
  EXPECT_EQ(c.placement_solves(), c.mitigations());
  EXPECT_EQ(c.relaxed_placements(), 0);
  EXPECT_EQ(c.active_lie_count(), 5u);
  EXPECT_TRUE(support::lies_respect_link_state(run.service));
  EXPECT_EQ(run.service.sim().looping_flows(), 0u);
  EXPECT_EQ(run.service.sim().blackholed_flows(), 0u);
}

}  // namespace
}  // namespace fibbing::core
