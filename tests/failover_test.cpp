// Failure-aware control loop scenarios: the controller plans on the
// topology that actually exists (links fail *and* recover), stranded lies
// are re-placed or retracted deliberately, and a restored link round-trips
// every layer back to a state indistinguishable from never having failed.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/augment.hpp"
#include "core/requirements.hpp"
#include "core/service.hpp"
#include "core/verify.hpp"
#include "igp/routes.hpp"
#include "support/probes.hpp"
#include "support/scenario.hpp"
#include "te/minmax.hpp"
#include "topo/generators.hpp"
#include "topo/link_state.hpp"

namespace fibbing::core {
namespace {

using support::HealthProbe;
using support::PaperScenario;
using topo::PaperTopology;

// --------------------------------------------------- deterministic scenarios

TEST(Failover, LinkFailsBeforeSurgeMitigationRoutesAround) {
  // A-R1 dies before any surge: the full-topology optimum (Fig. 1d sends
  // 2/3 of A's traffic via R1) is unusable, and the controller must place
  // both surges on the degraded topology -- everything from A via B, B's
  // aggregate split across R2/R3 -- without ever compiling a lie over the
  // dead link.
  PaperScenario run;
  support::schedule_link_failure(run.service, 2.0, run.p.a, run.p.r1);
  run.schedule_fig2();

  HealthProbe probe;
  probe.install(run.service, 55.0);
  run.run_until(55.0);

  EXPECT_TRUE(probe.healthy());
  EXPECT_GE(run.service.controller().mitigations(), 1);
  EXPECT_TRUE(support::lies_respect_link_state(run.service));
  // Nothing rides the dead link; A's surge reaches C entirely through B.
  EXPECT_DOUBLE_EQ(run.rate(run.p.a, run.p.r1), 0.0);
  EXPECT_GT(run.rate(run.p.a, run.p.b), 25e6);
  // B's aggregate (both surges + the early session) is spread off the naive
  // B-R2 pile-up and everything still arrives.
  EXPECT_GT(run.rate(run.p.b, run.p.r3), 10e6);
  EXPECT_LT(run.rate(run.p.b, run.p.r2), 40e6 * 0.99);
  EXPECT_TRUE(support::traffic_conserved(run.service, run.p.c, 62e6));
  EXPECT_EQ(run.stalled_sessions(), 0);
}

TEST(Failover, RestoreMidMitigationReoptimizesOntoRecoveredLink) {
  // Fig. 2 placement is standing (2/3 of A's P2 traffic via R1) when A-R1
  // dies: the controller re-places onto the degraded topology. When the
  // link comes back, the controller must deliberately re-optimize onto it
  // instead of leaving the inferior degraded placement in place.
  PaperScenario run;
  run.schedule_fig2();
  run.run_until(55.0);
  ASSERT_GE(run.service.controller().mitigations(), 2);
  ASSERT_GT(run.rate(run.p.a, run.p.r1), 10e6);

  ASSERT_TRUE(run.service.fail_link(run.p.a, run.p.r1).ok());
  run.run_until(60.0);
  EXPECT_TRUE(support::lies_respect_link_state(run.service));
  EXPECT_DOUBLE_EQ(run.rate(run.p.a, run.p.r1), 0.0);
  EXPECT_EQ(run.service.sim().blackholed_flows(), 0u);
  EXPECT_EQ(run.service.sim().looping_flows(), 0u);
  EXPECT_TRUE(support::traffic_conserved(run.service, run.p.c, 62e6));

  ASSERT_TRUE(run.service.restore_link(run.p.a, run.p.r1).ok());
  run.run_until(70.0);
  // Re-optimized back onto the recovered link: the uneven split returns.
  EXPECT_GT(run.rate(run.p.a, run.p.r1), 10e6);
  EXPECT_EQ(run.service.sim().blackholed_flows(), 0u);
  EXPECT_EQ(run.service.sim().looping_flows(), 0u);
  EXPECT_TRUE(support::traffic_conserved(run.service, run.p.c, 62e6));
  EXPECT_EQ(run.service.controller().topology_events(), 2);
}

TEST(Failover, FlappingLinkLeavesNoStaleLiesOrBlackholes) {
  // A-R1 flaps (fail / restore / fail) under the full Fig. 2 load. Whatever
  // intermediate placements the controller walks through, the end state
  // must have no lie steering at the dead link and no lost traffic.
  PaperScenario run;
  run.schedule_fig2();
  support::schedule_link_flap(run.service, run.p.a, run.p.r1,
                              /*fail_s=*/40.0, /*restore_s=*/43.0,
                              /*refail_s=*/46.0);
  run.run_until(60.0);

  EXPECT_TRUE(support::lies_respect_link_state(run.service));
  EXPECT_DOUBLE_EQ(run.rate(run.p.a, run.p.r1), 0.0);
  EXPECT_EQ(run.service.sim().blackholed_flows(), 0u);
  EXPECT_EQ(run.service.sim().looping_flows(), 0u);
  EXPECT_TRUE(support::traffic_conserved(run.service, run.p.c, 62e6));
  EXPECT_EQ(run.service.controller().topology_events(), 3);
}

// ------------------------------------------------------- restore round trip

TEST(Failover, RestoreRoundTripsRoutesAndRatesBitIdentical) {
  // With standing lies and live traffic, fail a core link, let everything
  // re-plan, then restore it: routes on every router and rates on every
  // link must come back bit-identical to the never-failed state.
  PaperScenario run;
  run.schedule_fig2();
  run.run_until(55.0);
  ASSERT_GT(run.service.controller().active_lie_count(), 0u);

  std::vector<igp::RoutingTable> tables_before;
  std::vector<double> rates_before;
  for (topo::NodeId n = 0; n < run.p.topo.node_count(); ++n) {
    tables_before.push_back(run.service.domain().table(n));
  }
  for (topo::LinkId l = 0; l < run.p.topo.link_count(); ++l) {
    rates_before.push_back(run.service.sim().link_rate(l));
  }

  ASSERT_TRUE(run.service.fail_link(run.p.b, run.p.r2).ok());
  run.run_until(58.0);
  ASSERT_TRUE(run.service.restore_link(run.p.b, run.p.r2).ok());
  run.run_until(65.0);

  for (topo::NodeId n = 0; n < run.p.topo.node_count(); ++n) {
    EXPECT_EQ(run.service.domain().table(n), tables_before[n])
        << "router " << run.p.topo.node(n).name;
  }
  for (topo::LinkId l = 0; l < run.p.topo.link_count(); ++l) {
    EXPECT_DOUBLE_EQ(run.service.sim().link_rate(l), rates_before[l])
        << run.p.topo.link_name(l);
  }
}

// ------------------------------------------------------------- API edge cases

TEST(Failover, RestoreOfNeverFailedLinkIsNoOp) {
  PaperScenario run;
  const std::uint64_t lsas = run.service.domain().total_proto_counters().lsas_sent;
  const auto result = run.service.restore_link(run.p.a, run.p.b);
  ASSERT_TRUE(result.ok()) << result.error();
  run.run_until(2.0);
  // No LSA moved, the controller saw no topology event, nothing is down.
  EXPECT_EQ(run.service.domain().total_proto_counters().lsas_sent, lsas);
  EXPECT_EQ(run.service.controller().topology_events(), 0);
  EXPECT_FALSE(run.service.link_state().any_down());
}

TEST(Failover, DoubleFailAndDoubleRestoreAreIdempotent) {
  PaperScenario run;
  ASSERT_TRUE(run.service.fail_link(run.p.a, run.p.r1).ok());
  run.run_until(2.0);
  const std::uint64_t lsas_after_fail =
      run.service.domain().total_proto_counters().lsas_sent;
  ASSERT_EQ(run.service.controller().topology_events(), 1);

  // Second fail (either direction) changes nothing.
  ASSERT_TRUE(run.service.fail_link(run.p.r1, run.p.a).ok());
  run.run_until(4.0);
  EXPECT_EQ(run.service.domain().total_proto_counters().lsas_sent, lsas_after_fail);
  EXPECT_EQ(run.service.controller().topology_events(), 1);
  EXPECT_EQ(run.service.link_state().down_count(), 1u);

  ASSERT_TRUE(run.service.restore_link(run.p.a, run.p.r1).ok());
  run.run_until(6.0);
  const std::uint64_t lsas_after_restore =
      run.service.domain().total_proto_counters().lsas_sent;
  EXPECT_EQ(run.service.controller().topology_events(), 2);
  EXPECT_FALSE(run.service.link_state().any_down());

  ASSERT_TRUE(run.service.restore_link(run.p.a, run.p.r1).ok());
  run.run_until(8.0);
  EXPECT_EQ(run.service.domain().total_proto_counters().lsas_sent, lsas_after_restore);
  EXPECT_EQ(run.service.controller().topology_events(), 2);
}

TEST(Failover, LayerLevelMutationKeepsAllLayersInSync) {
  // The shared mask notifies every subscribed layer: failing a link through
  // the data-plane API must still tear down the IGP adjacency and wake the
  // controller, and restoring through the IGP API must re-walk the data
  // plane's flows -- there is no way to desynchronize the layers.
  PaperScenario run;
  const topo::LinkId link = run.p.topo.link_between(run.p.a, run.p.r1);

  run.service.sim().fail_link(link);
  run.run_until(2.0);
  EXPECT_TRUE(run.service.domain().link_is_down(link));
  EXPECT_EQ(run.service.controller().topology_events(), 1);
  // The IGP really re-originated: A routes to the prefixes via B only.
  const auto& entry = run.service.domain().table(run.p.a).at(run.p.p1);
  ASSERT_EQ(entry.next_hops.size(), 1u);
  EXPECT_EQ(entry.next_hops[0].via, run.p.b);

  run.service.domain().restore_link(link);
  run.run_until(4.0);
  EXPECT_FALSE(run.service.sim().link_is_down(link));
  EXPECT_EQ(run.service.controller().topology_events(), 2);
  EXPECT_FALSE(run.service.link_state().any_down());
}

TEST(Failover, FailLinkOnNonAdjacentNodesReportsError) {
  PaperScenario run;
  // A and C are not adjacent: an error, not an assertion failure.
  const auto result = run.service.fail_link(run.p.a, run.p.c);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("not adjacent"), std::string::npos) << result.error();
  // Unknown node ids are reported too.
  const auto bogus = run.service.fail_link(run.p.a, 999);
  ASSERT_FALSE(bogus.ok());
  EXPECT_NE(bogus.error().find("unknown node"), std::string::npos) << bogus.error();
  // And the same for restore.
  const auto restore = run.service.restore_link(run.p.a, run.p.c);
  ASSERT_FALSE(restore.ok());
  // Nothing changed anywhere.
  EXPECT_FALSE(run.service.link_state().any_down());
  EXPECT_EQ(run.service.controller().topology_events(), 0);
}

// -------------------------------------------- degraded-topology golden lock

/// Golden lock on the degraded-topology placement for the Fig. 1 network
/// with the core link B-R2 down (the analogue of the Fig. 1d lie-set golden
/// on the pristine topology): P1's 31 Mb/s from B follows the degraded
/// shortest path (B-R3-C) as background, and the optimizer must push P2's
/// 31 Mb/s surge from A entirely through R1 -- realized by a single strict
/// lie at A, compiled against the degraded view.
TEST(Failover, UnrelatedLinkFailureDoesNotReplanUntouchedPlacement) {
  // A P1-only surge is mitigated onto B -> {R2, R3} -> C. Failing R1-R4 --
  // R1's route toward P1 shifts, but none of P1's traffic ever crosses R1
  // -- must cost zero optimizer work: topology-change re-planning is scoped
  // to prefixes whose *realized* forwarding shifted. A failure on a link
  // the placement does ride (B-R3) must re-plan it.
  PaperScenario run;
  run.schedule({video::RequestBatch{15.0, run.s1, run.p.p1, /*first_host=*/1,
                                    /*count=*/31, video::VideoAsset{1e6, 300.0}}});
  run.run_until(30.0);
  ASSERT_GE(run.service.controller().mitigations(), 1);
  const int solves_before = run.service.controller().placement_solves();
  const auto signature = [](const std::map<net::Prefix, std::vector<Lie>>& all) {
    std::vector<std::tuple<topo::NodeId, topo::NodeId, topo::Metric>> sig;
    for (const auto& [prefix, lies] : all) {
      for (const Lie& lie : lies) sig.emplace_back(lie.attach, lie.via, lie.ext_metric);
    }
    return sig;
  };
  const auto lies_before = signature(run.service.controller().active_lies());
  const int events_before = run.service.controller().topology_events();

  ASSERT_TRUE(run.service.fail_link(run.p.r1, run.p.r4).ok());
  run.run_until(40.0);
  EXPECT_GT(run.service.controller().topology_events(), events_before);
  EXPECT_EQ(run.service.controller().placement_solves(), solves_before)
      << "untouched placement was re-solved on an unrelated failure";
  EXPECT_EQ(signature(run.service.controller().active_lies()), lies_before);

  ASSERT_TRUE(run.service.fail_link(run.p.b, run.p.r3).ok());
  run.run_until(50.0);
  EXPECT_GT(run.service.controller().placement_solves(), solves_before)
      << "placement riding the failed link was not re-planned";
  EXPECT_TRUE(support::lies_respect_link_state(run.service));
  EXPECT_EQ(run.service.sim().looping_flows(), 0u);
  EXPECT_EQ(run.service.sim().blackholed_flows(), 0u);
}

TEST(DegradedGolden, Fig1PlacementWithCoreLinkDown) {
  const PaperTopology p = topo::make_paper_topology();
  topo::LinkStateMask mask(p.topo);
  ASSERT_TRUE(mask.fail(p.topo.link_between(p.b, p.r2)));

  const std::vector<te::Demand> p1_demand{{p.b, 31e6}};
  const std::vector<double> background =
      te::shortest_path_loads(p.topo, p.c, p1_demand, &mask);
  // The degraded plain route B-R3-C carries all of P1.
  EXPECT_DOUBLE_EQ(background[p.topo.link_between(p.b, p.r3)], 31e6);
  EXPECT_DOUBLE_EQ(background[p.topo.link_between(p.b, p.r2)], 0.0);

  const std::vector<te::Demand> p2_demand{{p.a, 31e6}};
  te::MinMaxConfig solve;
  solve.max_stretch = 1.5;
  solve.link_state = &mask;
  const auto solution = te::solve_min_max(p.topo, p.c, p2_demand, background, solve);
  ASSERT_TRUE(solution.ok()) << solution.error();
  // Nothing placed on a down link, ever (acceptance criterion at solve time).
  for (topo::LinkId l = 0; l < p.topo.link_count(); ++l) {
    if (mask.is_down(l)) {
      EXPECT_DOUBLE_EQ(solution.value().link_flow[l], 0.0) << p.topo.link_name(l);
    }
  }

  const DestRequirement req =
      requirement_from_splits(p.p2, solution.value().splits, 8);
  AugmentConfig config;
  config.link_state = &mask;
  const auto compiled = compile_lies(p.topo, req, config);
  ASSERT_TRUE(compiled.ok()) << compiled.error();
  EXPECT_TRUE(verify_augmentation(p.topo, req, compiled.value().lies, &mask).ok());

  std::vector<std::string> got;
  for (const Lie& lie : compiled.value().lies) {
    got.push_back(lie.prefix.to_string() + " " + p.topo.node(lie.attach).name +
                  "->" + p.topo.node(lie.via).name +
                  " ext=" + std::to_string(lie.ext_metric) +
                  " target=" + std::to_string(lie.target_cost) +
                  " fa=" + lie.forwarding_address.to_string());
  }
  std::sort(got.begin(), got.end());
  const std::vector<std::string> golden{
      "203.0.113.128/25 A->R1 ext=3 target=7 fa=10.0.0.6",
  };
  EXPECT_EQ(got, golden);
}

/// A lie whose forwarding link is down cannot compile: the transfer /30 is
/// gone from the degraded view, so the compiler reports it instead of
/// emitting a lie that would dangle.
TEST(DegradedGolden, LieOverDownLinkDoesNotCompile) {
  const PaperTopology p = topo::make_paper_topology();
  topo::LinkStateMask mask(p.topo);
  ASSERT_TRUE(mask.fail(p.topo.link_between(p.b, p.r3)));

  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.b] = {igp::WeightedNextHop{p.r2, 1}, igp::WeightedNextHop{p.r3, 1}};
  AugmentConfig config;
  config.link_state = &mask;
  const auto compiled = compile_lies(p.topo, req, config);
  ASSERT_FALSE(compiled.ok());
}

}  // namespace
}  // namespace fibbing::core
