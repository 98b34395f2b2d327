#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/augment.hpp"
#include "core/lie.hpp"
#include "core/loads.hpp"
#include "core/requirements.hpp"
#include "core/verify.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "te/minmax.hpp"
#include "topo/generators.hpp"
#include "util/rng.hpp"

namespace fibbing::core {
namespace {

using igp::WeightedNextHop;
using topo::make_paper_topology;
using topo::NodeId;
using topo::PaperTopology;

DestRequirement paper_requirement_p2(const PaperTopology& p) {
  // Fig. 1d for P2: A splits 1/3 via B, 2/3 via R1; B splits evenly R2/R3.
  DestRequirement req;
  req.prefix = p.p2;
  req.nodes[p.a] = {WeightedNextHop{p.b, 1}, WeightedNextHop{p.r1, 2}};
  req.nodes[p.b] = {WeightedNextHop{p.r2, 1}, WeightedNextHop{p.r3, 1}};
  return req;
}

// ------------------------------------------------------------- requirements

TEST(Requirements, FromSplitsRoundsFractions) {
  const PaperTopology p = make_paper_topology();
  te::SplitMap splits;
  splits[p.a] = {{p.b, 1.0 / 3}, {p.r1, 2.0 / 3}};
  splits[p.b] = {{p.r2, 0.5}, {p.r3, 0.5}};
  const DestRequirement req = requirement_from_splits(p.p2, splits, 8);
  ASSERT_TRUE(req.nodes.contains(p.a));
  EXPECT_EQ(req.nodes.at(p.a),
            (std::vector<WeightedNextHop>{{p.b, 1}, {p.r1, 2}}));
  EXPECT_EQ(req.nodes.at(p.b), (std::vector<WeightedNextHop>{{p.r2, 1}, {p.r3, 1}}));
}

TEST(Requirements, FromSplitsKeepsAtMostMaxReplicasShares) {
  // Ten even 10 % shares all clear the half-slot cutoff, but only eight FIB
  // slots exist: the eight lowest node ids keep one copy each.
  te::SplitMap splits;
  for (NodeId v = 1; v <= 10; ++v) splits[0].push_back({v, 0.1});
  const DestRequirement req =
      requirement_from_splits(net::Prefix(net::Ipv4(203, 0, 113, 0), 24), splits, 8);
  const std::vector<WeightedNextHop>& hops = req.nodes.at(0);
  EXPECT_LE(hops.size(), 8u);
  std::uint32_t copies = 0;
  for (const WeightedNextHop& hop : hops) copies += hop.weight;
  EXPECT_LE(copies, 8u);
  EXPECT_EQ(hops.front().via, 1u);
  EXPECT_EQ(hops.back().via, 8u);
}

TEST(Requirements, ValidateRejectsNonAdjacent) {
  const PaperTopology p = make_paper_topology();
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.a] = {WeightedNextHop{p.c, 1}};  // A is not adjacent to C
  EXPECT_FALSE(validate_requirement(p.topo, req).ok());
}

TEST(Requirements, ValidateRejectsCycle) {
  const PaperTopology p = make_paper_topology();
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.a] = {WeightedNextHop{p.b, 1}};
  req.nodes[p.b] = {WeightedNextHop{p.a, 1}};
  EXPECT_FALSE(validate_requirement(p.topo, req).ok());
}

TEST(Requirements, ValidateRejectsUnannouncedPrefix) {
  const PaperTopology p = make_paper_topology();
  DestRequirement req;
  req.prefix = p.blue;  // the aggregate is not announced
  req.nodes[p.b] = {WeightedNextHop{p.r2, 1}};
  EXPECT_FALSE(validate_requirement(p.topo, req).ok());
}

TEST(Requirements, ValidateAcceptsPaperRequirement) {
  const PaperTopology p = make_paper_topology();
  EXPECT_TRUE(validate_requirement(p.topo, paper_requirement_p2(p)).ok());
}

// ----------------------------------------------------------------- verifier

TEST(Verify, LowestTermsReducesWeights) {
  EXPECT_EQ(igp::lowest_terms(std::vector<WeightedNextHop>{{1, 2}, {2, 4}}),
            (std::vector<WeightedNextHop>{{1, 1}, {2, 2}}));
  // Unsorted, with via 2 listed twice: sorted and merged, then reduced.
  EXPECT_EQ(igp::lowest_terms(std::vector<WeightedNextHop>{{2, 2}, {1, 2}, {2, 4}}),
            (std::vector<WeightedNextHop>{{1, 1}, {2, 3}}));
}

TEST(Verify, SameSplitComparesWeightRatios) {
  const std::vector<WeightedNextHop> even{{1, 1}, {2, 1}};
  EXPECT_TRUE(same_split(even, std::vector<WeightedNextHop>{{1, 3}, {2, 3}}));
  EXPECT_FALSE(same_split(even, std::vector<WeightedNextHop>{{1, 1}, {2, 2}}));
  EXPECT_FALSE(same_split(even, std::vector<WeightedNextHop>{{1, 1}, {3, 1}}));
  EXPECT_FALSE(same_split(even, std::vector<WeightedNextHop>{{1, 1}}));
  EXPECT_FALSE(same_split(std::vector<WeightedNextHop>{{1, 0}},
                          std::vector<WeightedNextHop>{{1, 1}}));
  EXPECT_TRUE(same_split({}, {}));
}

TEST(Verify, HandBuiltPaperLiesVerify) {
  const PaperTopology p = make_paper_topology();
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.b] = {WeightedNextHop{p.r2, 1}, WeightedNextHop{p.r3, 1}};
  std::vector<Lie> lies;
  Lie fb;
  fb.id = 1;
  fb.prefix = p.p1;
  fb.attach = p.b;
  fb.via = p.r3;
  fb.ext_metric = 0;  // dist(B, S_BR3) = 4 = B's real cost
  fb.forwarding_address = lie_forwarding_address(p.topo, p.b, p.r3);
  lies.push_back(fb);
  const VerifyReport report = verify_augmentation(p.topo, req, lies);
  EXPECT_TRUE(report.ok()) << report.to_string(p.topo);
}

TEST(Verify, DetectsUnmetRequirement) {
  const PaperTopology p = make_paper_topology();
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.b] = {WeightedNextHop{p.r2, 1}, WeightedNextHop{p.r3, 1}};
  const VerifyReport report = verify_augmentation(p.topo, req, {});  // no lies
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.issues[0].node, p.b);
}

TEST(Verify, DetectsPollution) {
  const PaperTopology p = make_paper_topology();
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.b] = {WeightedNextHop{p.r2, 1}, WeightedNextHop{p.r3, 1}};
  std::vector<Lie> lies;
  Lie fb;
  fb.id = 1;
  fb.prefix = p.p1;
  fb.attach = p.b;
  fb.via = p.r3;
  fb.ext_metric = 0;
  fb.forwarding_address = lie_forwarding_address(p.topo, p.b, p.r3);
  lies.push_back(fb);
  // A rogue lie that drags R4's traffic for P1 toward R1.
  Lie rogue;
  rogue.id = 2;
  rogue.prefix = p.p1;
  rogue.attach = p.r4;
  rogue.via = p.r1;
  rogue.ext_metric = 0;  // cost 2 at R4 < its real cost -> hijack
  rogue.forwarding_address = lie_forwarding_address(p.topo, p.r4, p.r1);
  lies.push_back(rogue);
  const VerifyReport report = verify_augmentation(p.topo, req, lies);
  ASSERT_FALSE(report.ok());
  bool saw_pollution = false;
  for (const auto& issue : report.issues) {
    if (issue.node == p.r4) saw_pollution = true;
  }
  EXPECT_TRUE(saw_pollution) << report.to_string(p.topo);
}

TEST(Verify, DetectsIsolationViolation) {
  const PaperTopology p = make_paper_topology();
  // Requirement on P1 but a lie that also reroutes P2 at B.
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.b] = {WeightedNextHop{p.r2, 1}, WeightedNextHop{p.r3, 1}};
  std::vector<Lie> lies;
  Lie fb;
  fb.id = 1;
  fb.prefix = p.p1;
  fb.attach = p.b;
  fb.via = p.r3;
  fb.ext_metric = 0;
  fb.forwarding_address = lie_forwarding_address(p.topo, p.b, p.r3);
  lies.push_back(fb);
  Lie hijack_p2;  // environment lie breaking P2 at B
  hijack_p2.id = 2;
  hijack_p2.prefix = p.p2;
  hijack_p2.attach = p.b;
  hijack_p2.via = p.r3;
  hijack_p2.ext_metric = 0;
  hijack_p2.forwarding_address = lie_forwarding_address(p.topo, p.b, p.r3);
  // The environment lie is in both baseline and augmented views, so it must
  // NOT trip the verifier: isolation is judged on req.prefix's lies only.
  lies.push_back(hijack_p2);
  const VerifyReport report = verify_augmentation(p.topo, req, lies);
  EXPECT_TRUE(report.ok()) << report.to_string(p.topo);
}

// ------------------------------------------------------------ augmentation

TEST(Augment, CompilesFbLieForEvenSplitAtB) {
  const PaperTopology p = make_paper_topology();
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.b] = {WeightedNextHop{p.r2, 1}, WeightedNextHop{p.r3, 1}};
  const auto result = compile_lies(p.topo, req);
  ASSERT_TRUE(result.ok()) << result.error();
  const Augmentation& aug = result.value();
  // One lie suffices: fB toward R3 at tie cost (the paper's fB).
  ASSERT_EQ(aug.lies.size(), 1u);
  EXPECT_EQ(aug.lies[0].attach, p.b);
  EXPECT_EQ(aug.lies[0].via, p.r3);
  EXPECT_EQ(aug.lies[0].ext_metric, 0u);
  EXPECT_EQ(aug.lies[0].target_cost, 4u);
  EXPECT_TRUE(verify_augmentation(p.topo, req, aug.lies).ok());
}

TEST(Augment, NonCanonicalRequirementCompilesLikeItsLowestTerms) {
  // B's even split for P1, written unsorted with a common factor, with R2
  // split across two entries, and unsorted only. Each must compile to the
  // lies of {R2:1, R3:1}, fB alone (planned as written, {R2:2, R3:2} would
  // tie with three lies: R2, R3, R3), and verify with its reports.
  const PaperTopology p = make_paper_topology();
  DestRequirement even;
  even.prefix = p.p1;
  even.nodes[p.b] = {WeightedNextHop{p.r2, 1}, WeightedNextHop{p.r3, 1}};
  const auto want = compile_lies(p.topo, even);
  ASSERT_TRUE(want.ok()) << want.error();
  ASSERT_EQ(want.value().lies.size(), 1u);

  const auto lies_of = [&](const Augmentation& aug) {
    std::vector<std::string> out;
    for (const Lie& lie : aug.lies) {
      out.push_back(std::to_string(lie.id) + " " + to_string(lie, p.topo));
    }
    return out;
  };
  const auto report_of = [&](const DestRequirement& req, const std::vector<Lie>& lies) {
    std::vector<std::string> out;
    for (const VerifyIssue& issue : verify_augmentation(p.topo, req, lies).issues) {
      out.push_back(std::to_string(static_cast<int>(issue.kind)) + " @" +
                    std::to_string(issue.node) + " " + issue.what);
    }
    return out;
  };
  // The reports are compared on no lies, the compiled lies, and those plus
  // a second copy of fB (B then splits R2:1, R3:2).
  std::vector<Lie> doubled = want.value().lies;
  doubled.push_back(doubled.front());
  doubled.back().id = 2;
  const std::vector<std::vector<Lie>> lie_sets{{}, want.value().lies, doubled};
  const std::string unmet =
      std::to_string(static_cast<int>(VerifyIssueKind::kRequirementNotMet)) + " @" +
      std::to_string(p.b) + " requirement not met: want {R2:1, R3:1}, got {R2:1, R3:2}";
  EXPECT_EQ(std::ranges::count(report_of(even, doubled), unmet), 1);

  const std::vector<std::vector<WeightedNextHop>> written{
      {{p.r3, 2}, {p.r2, 2}},
      {{p.r2, 1}, {p.r3, 2}, {p.r2, 1}},
      {{p.r3, 1}, {p.r2, 1}},
  };
  for (const std::vector<WeightedNextHop>& hops : written) {
    DestRequirement req = even;
    req.nodes[p.b] = hops;
    const auto got = compile_lies(p.topo, req);
    ASSERT_TRUE(got.ok()) << got.error();
    EXPECT_EQ(lies_of(got.value()), lies_of(want.value()));
    EXPECT_EQ(got.value().naive_lie_count, want.value().naive_lie_count);
    for (const std::vector<Lie>& lies : lie_sets) {
      EXPECT_EQ(report_of(req, lies), report_of(even, lies));
    }
  }
}

TEST(Augment, CompilesPaperP2RequirementWithStrictModeAtA) {
  const PaperTopology p = make_paper_topology();
  const DestRequirement req = paper_requirement_p2(p);
  const auto result = compile_lies(p.topo, req);
  ASSERT_TRUE(result.ok()) << result.error();
  const Augmentation& aug = result.value();
  EXPECT_TRUE(verify_augmentation(p.topo, req, aug.lies).ok());
  // A needs 3 lies in strict mode (target 5): 1 toward B (ext 3), 2 toward
  // R1 (ext 1). B needs 1 lie (tie, ext 0). Total 4 after reduction.
  std::map<std::pair<NodeId, NodeId>, int> per_edge;
  for (const Lie& lie : aug.lies) per_edge[std::make_pair(lie.attach, lie.via)]++;
  EXPECT_EQ(per_edge[std::make_pair(p.a, p.b)], 1);
  EXPECT_EQ(per_edge[std::make_pair(p.a, p.r1)], 2);
  EXPECT_EQ(per_edge[std::make_pair(p.b, p.r3)], 1);
  EXPECT_EQ(aug.lies.size(), 4u);
}

/// Golden lock on the paper's Fig. 1d augmentation for P2 (A splits 1/3 via
/// B, 2/3 via R1; B splits evenly R2/R3). Optimizer or compiler refactors
/// that change any field of the emitted lie set -- metric, target cost or
/// forwarding address -- fail here, not silently in paper fidelity.
TEST(Augment, GoldenFig1dLieSetForP2) {
  const PaperTopology p = make_paper_topology();
  const auto result = compile_lies(p.topo, paper_requirement_p2(p));
  ASSERT_TRUE(result.ok()) << result.error();
  std::vector<std::string> got;
  for (const Lie& lie : result.value().lies) {
    got.push_back(lie.prefix.to_string() + " " + p.topo.node(lie.attach).name +
                  "->" + p.topo.node(lie.via).name +
                  " ext=" + std::to_string(lie.ext_metric) +
                  " target=" + std::to_string(lie.target_cost) +
                  " fa=" + lie.forwarding_address.to_string());
  }
  std::sort(got.begin(), got.end());
  const std::vector<std::string> golden{
      "203.0.113.128/25 A->B ext=3 target=5 fa=10.0.0.2",
      "203.0.113.128/25 A->R1 ext=1 target=5 fa=10.0.0.6",
      "203.0.113.128/25 A->R1 ext=1 target=5 fa=10.0.0.6",
      "203.0.113.128/25 B->R3 ext=0 target=4 fa=10.0.0.14",
  };
  EXPECT_EQ(got, golden);
}

TEST(Augment, FullPaperSceneBothPrefixes) {
  const PaperTopology p = make_paper_topology();
  // P1: even split at B. P2: the Fig. 1d requirement.
  DestRequirement req1;
  req1.prefix = p.p1;
  req1.nodes[p.b] = {WeightedNextHop{p.r2, 1}, WeightedNextHop{p.r3, 1}};
  const auto aug1 = compile_lies(p.topo, req1);
  ASSERT_TRUE(aug1.ok()) << aug1.error();

  DestRequirement req2 = paper_requirement_p2(p);
  AugmentConfig config2;
  config2.first_lie_id = 100;
  const auto aug2 = compile_lies(p.topo, req2, config2);
  ASSERT_TRUE(aug2.ok()) << aug2.error();

  // Both lie sets coexist: verify each requirement in the presence of the
  // other's lies (per-destination isolation).
  std::vector<Lie> all = aug1.value().lies;
  all.insert(all.end(), aug2.value().lies.begin(), aug2.value().lies.end());
  EXPECT_TRUE(verify_augmentation(p.topo, req1, all).ok());
  EXPECT_TRUE(verify_augmentation(p.topo, req2, all).ok());
}

TEST(Augment, StrictModeExcludesRealPath) {
  // Excluding a real next hop needs the lie to cost *less* than the real
  // route, yet a forwarding-address lie can never cost less than the
  // interface metric toward the desired hop. The deployment remedy is
  // announcing the prefix with a redistribution metric (headroom): all real
  // costs rise uniformly, leaving room below them.
  PaperTopology p = make_paper_topology();
  topo::Topology t = p.topo;  // rebuild with attachment metric 10
  topo::Topology fresh;
  for (topo::NodeId n = 0; n < t.node_count(); ++n) fresh.add_node(t.node(n).name);
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    const topo::Link& link = t.link(l);
    if (link.from < link.to) {
      fresh.add_link(link.from, link.to, link.metric, link.capacity_bps);
    }
  }
  fresh.attach_prefix(p.c, p.p1, /*metric=*/10);

  // B must abandon its real best (R2) entirely: all traffic via R3.
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.b] = {WeightedNextHop{p.r3, 1}};
  const auto result = compile_lies(fresh, req);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_TRUE(verify_augmentation(fresh, req, result.value().lies).ok());
  // Strict: target below B's real cost 14 (4 + attachment metric 10).
  for (const Lie& lie : result.value().lies) {
    if (lie.attach == p.b) {
      EXPECT_LT(lie.target_cost, 14u);
    }
  }
}

TEST(Augment, StrictExclusionWithoutHeadroomFails) {
  // Same requirement at attachment metric 0: the only candidate target (3)
  // sits below B's interface distance to the R3 transfer network (4);
  // compile must fail with the granularity diagnostic rather than emit a
  // broken lie.
  const PaperTopology p = make_paper_topology();
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.b] = {WeightedNextHop{p.r3, 1}};
  const auto result = compile_lies(p.topo, req);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("granularity"), std::string::npos) << result.error();
}

TEST(Augment, FailsAtUnitMetricsWithDiagnostic) {
  // The unscaled paper topology (metric scale 1) has no room for strict
  // lies at B: compile must fail with the granularity diagnostic.
  const PaperTopology p = make_paper_topology(40e6, /*metric_scale=*/1);
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.b] = {WeightedNextHop{p.r3, 1}};  // strict: drop R2
  const auto result = compile_lies(p.topo, req);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("granularity"), std::string::npos) << result.error();
}

TEST(Augment, RequirementAtAnnouncerFails) {
  const PaperTopology p = make_paper_topology();
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.c] = {WeightedNextHop{p.r2, 1}};
  const auto result = compile_lies(p.topo, req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error_kind(), CompileErrorKind::kBadRequirement);
  EXPECT_EQ(result.error_node(), p.c);
}

// ------------------------------------------------- structured failure kinds

TEST(CompileErrorKinds, GranularityAtCoarseMetrics) {
  // Strict exclusion of B's real next hop with no metric headroom: the
  // target cost lands below the interface distance.
  const PaperTopology p = make_paper_topology();
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.b] = {WeightedNextHop{p.r3, 1}};
  const auto result = compile_lies(p.topo, req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error_kind(), CompileErrorKind::kGranularity);
  EXPECT_EQ(result.error_node(), p.b);
  EXPECT_STREQ(to_string(result.error_kind()), "granularity");
}

TEST(CompileErrorKinds, GranularityAtUnitMetrics) {
  // The unscaled paper topology leaves no room for strict lies at B -- the
  // repair loop escalates until a target cost would go non-positive or
  // under the interface distance; either way the kind is granularity.
  const PaperTopology p = make_paper_topology(40e6, /*metric_scale=*/1);
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.b] = {WeightedNextHop{p.r3, 1}};
  const auto result = compile_lies(p.topo, req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error_kind(), CompileErrorKind::kGranularity);
}

TEST(CompileErrorKinds, UnreachablePrefixAtPartitionedRouter) {
  // A loses both adjacencies: the prefix has no route at A on the degraded
  // view, so a requirement there is unreachable, not a granularity problem.
  const PaperTopology p = make_paper_topology();
  topo::LinkStateMask mask(p.topo);
  ASSERT_TRUE(mask.fail(p.topo.link_between(p.a, p.b)));
  ASSERT_TRUE(mask.fail(p.topo.link_between(p.a, p.r1)));
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.a] = {WeightedNextHop{p.b, 1}};
  AugmentConfig config;
  config.link_state = &mask;
  const auto result = compile_lies(p.topo, req, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error_kind(), CompileErrorKind::kUnreachable);
  EXPECT_EQ(result.error_node(), p.a);
}

TEST(CompileErrorKinds, UnreachableTransferSubnetOverDownLink) {
  // The lie's forwarding link is down: its transfer /30 left the view.
  const PaperTopology p = make_paper_topology();
  topo::LinkStateMask mask(p.topo);
  ASSERT_TRUE(mask.fail(p.topo.link_between(p.b, p.r3)));
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.b] = {WeightedNextHop{p.r2, 1}, WeightedNextHop{p.r3, 1}};
  AugmentConfig config;
  config.link_state = &mask;
  const auto result = compile_lies(p.topo, req, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error_kind(), CompileErrorKind::kUnreachable);
}

TEST(CompileErrorKinds, WrongInterfaceWhenDetourUndercutsTheLie) {
  // X-Y is so expensive that X's route to the X-Y transfer subnet also goes
  // through W: a forwarding-address lie toward Y cannot steer out of the
  // intended interface.
  topo::Topology t;
  const topo::NodeId x = t.add_node("X");
  const topo::NodeId w = t.add_node("W");
  const topo::NodeId y = t.add_node("Y");
  t.add_link_asymmetric(x, y, 14, 10, 100.0);
  t.add_link(x, w, 2, 100.0);
  t.add_link(w, y, 2, 100.0);
  const net::Prefix prefix(net::Ipv4(203, 0, 113, 0), 25);
  t.attach_prefix(y, prefix);
  DestRequirement req;
  req.prefix = prefix;
  req.nodes[x] = {WeightedNextHop{y, 1}};
  const auto result = compile_lies(t, req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error_kind(), CompileErrorKind::kWrongInterface);
  EXPECT_EQ(result.error_node(), x);
}

TEST(CompileErrorKinds, UnrepairableWhenRepairBudgetExhausted) {
  // The paper P2 requirement needs at least one repair round (the tie-mode
  // first attempt pollutes); a zero budget must fail as unrepairable.
  const PaperTopology p = make_paper_topology();
  AugmentConfig config;
  config.max_repair_rounds = 0;
  const auto result = compile_lies(p.topo, paper_requirement_p2(p), config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error_kind(), CompileErrorKind::kUnrepairable);
}

TEST(Augment, ReductionDropsRedundantLies) {
  const PaperTopology p = make_paper_topology();
  // Requirement equal to current state: zero lies needed; reduction (and
  // tie-mode delta computation) must produce an empty set.
  DestRequirement req;
  req.prefix = p.p1;
  req.nodes[p.b] = {WeightedNextHop{p.r2, 1}};
  const auto result = compile_lies(p.topo, req);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value().lies.size(), 0u);
}

/// End-to-end property on random graphs: take the min-max optimizer's DAG,
/// compile lies, verify exactness. This is the paper's central claim --
/// Fibbing can realize the optimal min-max placement.
TEST(Augment, RealizesMinMaxDagOnRandomGraphs) {
  util::Rng rng(424242);
  int compiled = 0;
  for (int trial = 0; trial < 8; ++trial) {
    topo::Topology t =
        topo::make_waxman(12, rng, 0.5, 0.5, /*max_metric=*/6, 100.0, 300.0);
    // Scale metrics x4 for granularity headroom (deployment guidance).
    topo::Topology scaled;
    for (topo::NodeId n = 0; n < t.node_count(); ++n) scaled.add_node(t.node(n).name);
    for (topo::LinkId l = 0; l < t.link_count(); ++l) {
      const topo::Link& link = t.link(l);
      if (link.from < link.to) {
        scaled.add_link(link.from, link.to, link.metric * 4, link.capacity_bps);
      }
    }
    const NodeId dest = static_cast<NodeId>(rng.pick_index(scaled.node_count()));
    const net::Prefix prefix(net::Ipv4(203, 0, static_cast<std::uint8_t>(trial), 0), 24);
    // Announce with a redistribution metric: headroom for strict-mode lies
    // (see StrictModeExcludesRealPath).
    scaled.attach_prefix(dest, prefix, 16);

    std::vector<te::Demand> demands;
    for (int d = 0; d < 3; ++d) {
      NodeId ingress = static_cast<NodeId>(rng.pick_index(scaled.node_count()));
      if (ingress == dest) ingress = (ingress + 1) % scaled.node_count();
      demands.push_back(te::Demand{ingress, rng.uniform(80.0, 250.0)});
    }
    te::MinMaxConfig config;
    config.max_stretch = 2.0;
    const auto solution = te::solve_min_max(scaled, dest, demands, {}, config);
    if (!solution.ok()) continue;
    const DestRequirement req =
        requirement_from_splits(prefix, solution.value().splits, 8);
    if (req.nodes.empty()) continue;
    const auto result = compile_lies(scaled, req);
    if (!result.ok()) {
      // Granularity failures are legitimate on adversarial metrics; anything
      // else is a bug.
      EXPECT_NE(result.error().find("granularity"), std::string::npos)
          << "trial " << trial << ": " << result.error();
      continue;
    }
    ++compiled;
    const VerifyReport report = verify_augmentation(scaled, req, result.value().lies);
    EXPECT_TRUE(report.ok()) << "trial " << trial << ": " << report.to_string(scaled);
  }
  EXPECT_GE(compiled, 4);  // most random instances must compile
}

TEST(Augment, RefusesLieSetThatAliasesOnTheWire) {
  // A /31 leaves one host bit: only 2 coexisting lies for the prefix are
  // wire-distinguishable (appendix E folds the lie id into the host bits).
  // A 3:2 split at B needs 4 lies -- compilable in the abstract model, but
  // two of them would share a wire identity and silently supersede each
  // other, so the compiler must refuse with the typed error.
  PaperTopology p = make_paper_topology();
  const net::Prefix narrow(net::Ipv4(203, 0, 113, 0), 31);
  p.topo.attach_prefix(p.c, narrow, 16);

  DestRequirement req;
  req.prefix = narrow;
  req.nodes[p.b] = {{p.r2, 3}, {p.r3, 2}};
  const auto result = compile_lies(p.topo, req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error_kind(), CompileErrorKind::kWireAliasing);
  EXPECT_NE(result.error().find("2^(32-len)"), std::string::npos);

  // The same requirement against a /24 (256 wire identities) compiles.
  const net::Prefix wide(net::Ipv4(203, 0, 114, 0), 24);
  p.topo.attach_prefix(p.c, wide, 16);
  DestRequirement wide_req;
  wide_req.prefix = wide;
  wide_req.nodes[p.b] = {{p.r2, 3}, {p.r3, 2}};
  EXPECT_TRUE(compile_lies(p.topo, wide_req).ok());
}

// -------------------------------------------------------------------- loads

TEST(Loads, PropagatesWeightedSplits) {
  const PaperTopology p = make_paper_topology();
  const DestRequirement req = paper_requirement_p2(p);
  const auto aug = compile_lies(p.topo, req);
  ASSERT_TRUE(aug.ok());
  const auto tables = igp::compute_all_routes(
      igp::NetworkView::from_topology(p.topo, to_externals(aug.value().lies)));
  const auto load =
      loads_from_routes(p.topo, igp::column_of(tables, p.p2), p.p2, {{p.a, 99e6}});
  // Fig. 1d fractions: 33 via A-B then split at B; 66 via A-R1-R4.
  EXPECT_NEAR(load[p.topo.link_between(p.a, p.b)], 33e6, 1e-3);
  EXPECT_NEAR(load[p.topo.link_between(p.a, p.r1)], 66e6, 1e-3);
  EXPECT_NEAR(load[p.topo.link_between(p.b, p.r2)], 16.5e6, 1e-3);
  EXPECT_NEAR(load[p.topo.link_between(p.b, p.r3)], 16.5e6, 1e-3);
  EXPECT_NEAR(load[p.topo.link_between(p.r1, p.r4)], 66e6, 1e-3);
}

TEST(Loads, TransientCycleChargesItsLinksInsteadOfStranding) {
  // Churn regression: a topology change turns a stale lie set into a
  // forwarding loop A -> B -> A for a prefix delivered at C. Until the
  // controller's re-placement lands, A-B carries the looping bytes in both
  // directions -- the prediction must charge them, not zero them.
  const PaperTopology p = make_paper_topology();
  std::vector<igp::RoutingTable> tables(p.topo.node_count());
  tables[p.a][p.p1] = igp::RouteEntry{10, false, {{p.b, 1}}};
  tables[p.b][p.p1] = igp::RouteEntry{10, false, {{p.a, 1}}};
  tables[p.c][p.p1] = igp::RouteEntry{0, true, {}};
  ASSERT_TRUE(forwarding_loops(p.topo, igp::column_of(tables, p.p1)));

  const auto load =
      loads_from_routes(p.topo, igp::column_of(tables, p.p1), p.p1, {{p.a, 50e6}});
  // One lap: A's 50 Mb/s crosses A->B, comes back B->A, and stops when the
  // walk revisits A (the deterministic lower bound on the circulating load).
  EXPECT_NEAR(load[p.topo.link_between(p.a, p.b)], 50e6, 1e-3);
  EXPECT_NEAR(load[p.topo.link_between(p.b, p.a)], 50e6, 1e-3);
}

TEST(Loads, InflowFromOrderedRegionIntoCycleIsCharged) {
  // R1 forwards cleanly into a loop between A and B: R1's own hop is part
  // of the ordered region, the loop is not. The stranded inflow must still
  // appear on the cycle's links, with ECMP splits honoured on the way in.
  const PaperTopology p = make_paper_topology();
  std::vector<igp::RoutingTable> tables(p.topo.node_count());
  tables[p.r1][p.p1] = igp::RouteEntry{12, false, {{p.a, 1}}};
  tables[p.a][p.p1] = igp::RouteEntry{10, false, {{p.b, 1}}};
  tables[p.b][p.p1] = igp::RouteEntry{10, false, {{p.a, 1}}};
  tables[p.c][p.p1] = igp::RouteEntry{0, true, {}};

  const auto load =
      loads_from_routes(p.topo, igp::column_of(tables, p.p1), p.p1, {{p.r1, 30e6}});
  EXPECT_NEAR(load[p.topo.link_between(p.r1, p.a)], 30e6, 1e-3);
  EXPECT_NEAR(load[p.topo.link_between(p.a, p.b)], 30e6, 1e-3);
  EXPECT_NEAR(load[p.topo.link_between(p.b, p.a)], 30e6, 1e-3);
}

TEST(Loads, CycleEscapePathStillDeliversAndSplitsProportionally) {
  // B splits 1:1 between the loop back to A and an escape via R3 toward C.
  // Half of every lap's traffic escapes and must keep flowing normally;
  // the looping half charges the cycle once per entering unit.
  const PaperTopology p = make_paper_topology();
  std::vector<igp::RoutingTable> tables(p.topo.node_count());
  tables[p.a][p.p1] = igp::RouteEntry{10, false, {{p.b, 1}}};
  tables[p.b][p.p1] = igp::RouteEntry{10, false, {{p.a, 1}, {p.r3, 1}}};
  tables[p.r3][p.p1] = igp::RouteEntry{4, false, {{p.c, 1}}};
  tables[p.c][p.p1] = igp::RouteEntry{0, true, {}};

  const auto load =
      loads_from_routes(p.topo, igp::column_of(tables, p.p1), p.p1, {{p.a, 40e6}});
  EXPECT_NEAR(load[p.topo.link_between(p.a, p.b)], 40e6, 1e-3);
  // At B: 20 escapes via R3 to C, 20 loops back to A and dies there (the
  // walk revisits A). R3 is downstream of the cycle, so it is unordered
  // too -- its delivery leg must still be charged.
  EXPECT_NEAR(load[p.topo.link_between(p.b, p.r3)], 20e6, 1e-3);
  EXPECT_NEAR(load[p.topo.link_between(p.r3, p.c)], 20e6, 1e-3);
  EXPECT_NEAR(load[p.topo.link_between(p.b, p.a)], 20e6, 1e-3);
}

}  // namespace
}  // namespace fibbing::core
