#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "igp/domain.hpp"
#include "igp/lsa.hpp"
#include "igp/lsdb.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "support/scenario.hpp"
#include "topo/generators.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"

namespace fibbing::igp {
namespace {

using support::fwd_addr;
using topo::make_paper_topology;
using topo::NodeId;
using topo::PaperTopology;

std::map<std::string, std::uint32_t> named_hops(const topo::Topology& t,
                                                const RouteEntry& entry) {
  std::map<std::string, std::uint32_t> out;
  for (const auto& nh : entry.next_hops) out[t.node(nh.via).name] = nh.weight;
  return out;
}

// ------------------------------------------------------------------ SPF core

TEST(Routes, ChangedPrefixesListsWhatAppearedVanishedOrDiffers) {
  const net::Prefix a(net::Ipv4(10, 0, 1, 0), 24);
  const net::Prefix b(net::Ipv4(10, 0, 2, 0), 24);
  const net::Prefix c(net::Ipv4(10, 0, 3, 0), 24);
  const net::Prefix d(net::Ipv4(10, 0, 0, 0), 16);
  const RouteEntry via1{4, false, {WeightedNextHop{1, 1}}};
  RoutingTable before{{a, via1}, {b, via1}, {c, via1}};
  EXPECT_TRUE(changed_prefixes(before, before).empty());
  RoutingTable after = before;
  after.erase(a);                        // vanished
  after.at(b).cost = 5;                  // cost only
  after[d] = RouteEntry{0, true, {}};    // appeared
  EXPECT_EQ(changed_prefixes(before, after), (std::vector<net::Prefix>{d, a, b}));
  after = before;
  after.at(c).next_hops[0].weight = 2;   // weight only
  EXPECT_EQ(changed_prefixes(before, after), (std::vector<net::Prefix>{c}));
  EXPECT_EQ(changed_prefixes({}, before), (std::vector<net::Prefix>{a, b, c}));
  EXPECT_EQ(changed_prefixes(before, {}), (std::vector<net::Prefix>{a, b, c}));
}

TEST(Spf, PaperTopologyDistances) {
  const PaperTopology p = make_paper_topology();
  const NetworkView view = NetworkView::from_topology(p.topo);
  const SpfResult from_a = run_spf(view, p.a);
  EXPECT_EQ(from_a.dist[p.c], 6u);   // A-B-R2-C (metrics are scaled by 2)
  EXPECT_EQ(from_a.dist[p.b], 2u);
  EXPECT_EQ(from_a.dist[p.r1], 4u);
  EXPECT_EQ(from_a.dist[p.r4], 6u);  // A-R1-R4
  const SpfResult from_b = run_spf(view, p.b);
  EXPECT_EQ(from_b.dist[p.c], 4u);   // B-R2-C
  EXPECT_EQ(from_b.dist[p.r3], 4u);
}

TEST(Spf, FirstHopsAreUniqueOnPaperTopology) {
  const PaperTopology p = make_paper_topology();
  const NetworkView view = NetworkView::from_topology(p.topo);
  const SpfResult from_a = run_spf(view, p.a);
  EXPECT_TRUE(std::ranges::equal(from_a.first_hops[p.c], std::vector<NodeId>{p.b}));
  const SpfResult from_b = run_spf(view, p.b);
  EXPECT_TRUE(std::ranges::equal(from_b.first_hops[p.c], std::vector<NodeId>{p.r2}));
}

TEST(Spf, EcmpMergesFirstHops) {
  // Diamond: s-(1)-x-(1)-t and s-(1)-y-(1)-t: two equal paths.
  topo::Topology t;
  const NodeId s = t.add_node("s");
  const NodeId x = t.add_node("x");
  const NodeId y = t.add_node("y");
  const NodeId d = t.add_node("d");
  t.add_link(s, x, 1, 1e9);
  t.add_link(s, y, 1, 1e9);
  t.add_link(x, d, 1, 1e9);
  t.add_link(y, d, 1, 1e9);
  const SpfResult spf = run_spf(NetworkView::from_topology(t), s);
  EXPECT_EQ(spf.dist[d], 2u);
  EXPECT_TRUE(std::ranges::equal(spf.first_hops[d], std::vector<NodeId>{x, y}));
}

TEST(Spf, UnreachableNodeHasInfiniteCost) {
  topo::Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  t.add_node("island");  // node 2, never linked
  t.add_link(a, b, 1, 1e9);
  const SpfResult spf = run_spf(NetworkView::from_topology(t), a);
  EXPECT_FALSE(spf.reaches(2));
  EXPECT_TRUE(spf.reaches(b));
}

TEST(Spf, AsymmetricMetricsUseDirectionalCosts) {
  topo::Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  t.add_link_asymmetric(a, b, 5, 2, 1e9);
  EXPECT_EQ(run_spf(NetworkView::from_topology(t), a).dist[b], 5u);
  EXPECT_EQ(run_spf(NetworkView::from_topology(t), b).dist[a], 2u);
}

// ------------------------------------------------------------ route building

TEST(Routes, IntraRoutesOnPaperTopology) {
  const PaperTopology p = make_paper_topology();
  const NetworkView view = NetworkView::from_topology(p.topo);

  const RoutingTable at_a = compute_routes(view, p.a);
  ASSERT_TRUE(at_a.contains(p.p1));
  EXPECT_EQ(at_a.at(p.p1).cost, 6u);
  EXPECT_EQ(named_hops(p.topo, at_a.at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"B", 1}}));

  const RoutingTable at_b = compute_routes(view, p.b);
  EXPECT_EQ(at_b.at(p.p1).cost, 4u);
  EXPECT_EQ(named_hops(p.topo, at_b.at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}}));

  const RoutingTable at_c = compute_routes(view, p.c);
  EXPECT_TRUE(at_c.at(p.p1).local);
  EXPECT_EQ(at_c.at(p.p1).cost, 0u);
}

/// Fig. 1c, first lie: fake node fB attached to B announcing D1's prefix at
/// a total cost equal to B's real path cost, resolving to R3. B must see two
/// equal-cost paths.
TEST(Routes, LieFbGivesBEcmp) {
  const PaperTopology p = make_paper_topology();
  // dist(B, S_BR3) = 4 = B's real cost, so ext_metric 0 creates the tie.
  const NetworkView::External fb{/*lie_id=*/1, p.p1, /*ext_metric=*/0,
                                 fwd_addr(p.topo, p.b, p.r3)};
  const NetworkView view = NetworkView::from_topology(p.topo, {fb});

  const RoutingTable at_b = compute_routes(view, p.b);
  EXPECT_EQ(at_b.at(p.p1).cost, 4u);
  EXPECT_EQ(named_hops(p.topo, at_b.at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}, {"R3", 1}}));
}

/// The fB lie ties at A (A's path to the forwarding subnet runs through B
/// at equal total cost) but only duplicates A's unique next hop -- the
/// forwarding *behaviour* at A must not change. This benign tie is why the
/// verifier compares normalized distributions, not raw weights.
TEST(Routes, LieFbTieAtAIsBehaviorallyInvisible) {
  const PaperTopology p = make_paper_topology();
  const NetworkView::External fb{1, p.p1, 0, fwd_addr(p.topo, p.b, p.r3)};
  const NetworkView view = NetworkView::from_topology(p.topo, {fb});

  const RoutingTable at_a = compute_routes(view, p.a);
  const RouteEntry& entry = at_a.at(p.p1);
  EXPECT_EQ(entry.cost, 6u);
  ASSERT_EQ(entry.next_hops.size(), 1u);  // still only via B
  EXPECT_EQ(entry.next_hops[0].via, p.b);
  EXPECT_EQ(entry.next_hops[0].weight, 2u);  // intra + lie, same interface
}

/// Fig. 1c, second step: two fake nodes fA at A announcing D2's prefix at
/// a total cost equal to A's real path cost, resolving to R1 -> A's FIB gets
/// {B:1, R1:2} = the paper's 1/3 : 2/3 uneven split.
TEST(Routes, TwoFaLiesGiveUnevenSplitAtA) {
  const PaperTopology p = make_paper_topology();
  const net::Ipv4 fa_r1 = fwd_addr(p.topo, p.a, p.r1);
  // dist(A, S_AR1) = 4, so ext_metric 2 makes the total 6 = A's real cost.
  const NetworkView view = NetworkView::from_topology(
      p.topo, {{10, p.p2, 2, fa_r1}, {11, p.p2, 2, fa_r1}});

  const RoutingTable at_a = compute_routes(view, p.a);
  const RouteEntry& entry = at_a.at(p.p2);
  EXPECT_EQ(entry.cost, 6u);
  EXPECT_EQ(named_hops(p.topo, entry),
            (std::map<std::string, std::uint32_t>{{"B", 1}, {"R1", 2}}));
  EXPECT_EQ(entry.total_weight(), 3u);

  // Per-destination isolation: A's route for P1 is untouched.
  EXPECT_EQ(named_hops(p.topo, at_a.at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"B", 1}}));
}

/// The full Fig. 1c/1d lie set: fB about both halves; at A, strict-mode lies
/// for P2 (one unit below A's real cost, so fB's benign tie at A cannot
/// pollute the uneven split): fA' resolving to B plus twice fA resolving to
/// R1. Checks every router's resulting next hops -- the complete data plane
/// of Fig. 1d.
TEST(Routes, FullPaperLieSetMatchesFig1d) {
  const PaperTopology p = make_paper_topology();
  const net::Ipv4 to_r3 = fwd_addr(p.topo, p.b, p.r3);
  const net::Ipv4 to_r1 = fwd_addr(p.topo, p.a, p.r1);
  const net::Ipv4 to_b = fwd_addr(p.topo, p.a, p.b);
  // A's targets: total 5 (real cost 6, strict). dist(A,S_AB)=2 -> ext 3;
  // dist(A,S_AR1)=4 -> ext 1. B's target: total 4 (tie) -> ext 0.
  const NetworkView view = NetworkView::from_topology(p.topo, {
                                                                  {1, p.p1, 0, to_r3},
                                                                  {2, p.p2, 0, to_r3},
                                                                  {9, p.p2, 3, to_b},
                                                                  {10, p.p2, 1, to_r1},
                                                                  {11, p.p2, 1, to_r1},
                                                              });

  const auto tables = compute_all_routes(view);
  // B splits both prefixes evenly across R2/R3.
  EXPECT_EQ(named_hops(p.topo, tables[p.b].at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}, {"R3", 1}}));
  EXPECT_EQ(named_hops(p.topo, tables[p.b].at(p.p2)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}, {"R3", 1}}));
  // A: P1 via B only; P2 at 1/3 B, 2/3 R1.
  ASSERT_EQ(tables[p.a].at(p.p1).next_hops.size(), 1u);
  EXPECT_EQ(tables[p.a].at(p.p1).next_hops[0].via, p.b);
  EXPECT_EQ(named_hops(p.topo, tables[p.a].at(p.p2)),
            (std::map<std::string, std::uint32_t>{{"B", 1}, {"R1", 2}}));
  // Transit routers unaffected: R1 -> R4, R2/R3/R4 -> C, for both prefixes.
  for (const auto& prefix : {p.p1, p.p2}) {
    EXPECT_EQ(named_hops(p.topo, tables[p.r1].at(prefix)),
              (std::map<std::string, std::uint32_t>{{"R4", 1}}));
    EXPECT_EQ(named_hops(p.topo, tables[p.r2].at(prefix)),
              (std::map<std::string, std::uint32_t>{{"C", 1}}));
    EXPECT_EQ(named_hops(p.topo, tables[p.r3].at(prefix)),
              (std::map<std::string, std::uint32_t>{{"C", 1}}));
    EXPECT_EQ(named_hops(p.topo, tables[p.r4].at(prefix)),
              (std::map<std::string, std::uint32_t>{{"C", 1}}));
    EXPECT_TRUE(tables[p.c].at(prefix).local);
  }
}

TEST(Routes, SelfPointingLieIsIgnored) {
  const PaperTopology p = make_paper_topology();
  // FA owned by R3 itself: R3 must ignore it; others may use it.
  const NetworkView::External lie{1, p.p1, 0, fwd_addr(p.topo, p.b, p.r3)};
  const NetworkView view = NetworkView::from_topology(p.topo, {lie});
  const RoutingTable at_r3 = compute_routes(view, p.r3);
  // R3's route for P1 is its plain intra route (cost 2 via C).
  EXPECT_EQ(at_r3.at(p.p1).cost, 2u);
  EXPECT_EQ(named_hops(p.topo, at_r3.at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"C", 1}}));
}

TEST(Routes, DanglingForwardingAddressIsUnusable) {
  const PaperTopology p = make_paper_topology();
  const NetworkView::External lie{1, p.p1, 0, net::Ipv4(1, 2, 3, 4)};
  const NetworkView view = NetworkView::from_topology(p.topo, {lie});
  // Route falls back to the intra path everywhere.
  const RoutingTable at_b = compute_routes(view, p.b);
  EXPECT_EQ(at_b.at(p.p1).cost, 4u);
  EXPECT_EQ(named_hops(p.topo, at_b.at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}}));
}

TEST(Routes, LieForUnknownPrefixCreatesRoute) {
  const PaperTopology p = make_paper_topology();
  const net::Prefix q(net::Ipv4(198, 51, 100, 0), 24);
  const NetworkView::External lie{1, q, 0, fwd_addr(p.topo, p.b, p.r3)};
  const NetworkView view = NetworkView::from_topology(p.topo, {lie});
  const RoutingTable at_b = compute_routes(view, p.b);
  ASSERT_TRUE(at_b.contains(q));
  EXPECT_EQ(named_hops(p.topo, at_b.at(q)),
            (std::map<std::string, std::uint32_t>{{"R3", 1}}));
}

// ----------------------------------------------------------------- LSDB

TEST(Lsdb, NewerSequenceWins) {
  Lsdb db;
  ExternalLsa ext;
  ext.lie_id = 7;
  ext.prefix = net::Prefix(net::Ipv4(203, 0, 113, 0), 24);
  EXPECT_EQ(db.install(make_external_lsa(ext, 1)), Lsdb::InstallResult::kNewer);
  EXPECT_EQ(db.install(make_external_lsa(ext, 1)), Lsdb::InstallResult::kDuplicate);
  ext.ext_metric = 9;
  EXPECT_EQ(db.install(make_external_lsa(ext, 2)), Lsdb::InstallResult::kNewer);
  EXPECT_EQ(db.install(make_external_lsa(ext, 1)), Lsdb::InstallResult::kStale);
  const Lsa* stored = db.find(LsaKey{LsaType::kExternal, 7});
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(std::get<ExternalLsa>(stored->body).ext_metric, 9u);
}

TEST(Lsdb, WithdrawnLsasAreNotLive) {
  Lsdb db;
  ExternalLsa ext;
  ext.lie_id = 7;
  db.install(make_external_lsa(ext, 1));
  EXPECT_EQ(db.live().size(), 1u);
  ext.withdrawn = true;
  db.install(make_external_lsa(ext, 2));
  EXPECT_EQ(db.live().size(), 0u);
  EXPECT_EQ(db.all().size(), 1u);  // tombstone retained
}

TEST(Lsdb, EscapingOrderIsInsertionOrderIndependent) {
  // Pins the lint:unordered-iter-ok waivers in lsdb.cpp: entries_ is an
  // unordered_map, but live() and all() promise a deterministic, sorted-by-key
  // order regardless of install history. Build the same content twice with
  // permuted install orders (which produces different hash-table layouts) and
  // demand bit-identical escape sequences.
  std::vector<Lsa> instances;
  for (std::uint64_t id : {19u, 3u, 42u, 7u, 28u, 11u, 36u, 1u, 23u, 15u,
                           31u, 5u, 40u, 9u, 26u, 13u}) {
    ExternalLsa ext;
    ext.lie_id = id;
    ext.ext_metric = static_cast<topo::Metric>(id * 2);
    ext.withdrawn = (id % 5 == 0);  // a few tombstones: live() != all()
    instances.push_back(make_external_lsa(ext, /*seq=*/1 + id % 3));
  }

  Lsdb forward;
  for (const Lsa& lsa : instances) forward.install(lsa);
  Lsdb reversed;
  for (auto it = instances.rbegin(); it != instances.rend(); ++it)
    reversed.install(*it);
  Lsdb interleaved;  // evens then odds: yet another rehash history
  for (std::size_t i = 0; i < instances.size(); i += 2)
    interleaved.install(instances[i]);
  for (std::size_t i = 1; i < instances.size(); i += 2)
    interleaved.install(instances[i]);

  const auto keys_of = [](const Lsdb& db) {
    std::vector<LsaKey> live_keys;
    for (const Lsa* lsa : db.live()) live_keys.push_back(lsa->id);
    std::vector<LsaKey> all_keys;
    for (const LsaPtr& lsa : db.all()) all_keys.push_back(lsa->id);
    return std::pair{live_keys, all_keys};
  };
  const auto [live_fwd, all_fwd] = keys_of(forward);
  EXPECT_TRUE(std::is_sorted(live_fwd.begin(), live_fwd.end()));
  EXPECT_TRUE(std::is_sorted(all_fwd.begin(), all_fwd.end()));
  EXPECT_LT(live_fwd.size(), all_fwd.size());  // tombstones only in all()
  EXPECT_EQ(keys_of(reversed), (std::pair{live_fwd, all_fwd}));
  EXPECT_EQ(keys_of(interleaved), (std::pair{live_fwd, all_fwd}));
  EXPECT_TRUE(forward.same_content(reversed));
  EXPECT_TRUE(forward.same_content(interleaved));
}

// ------------------------------------------------------------------ protocol

TEST(Domain, FloodingConvergesToIdenticalLsdbs) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();
  for (NodeId n = 1; n < p.topo.node_count(); ++n) {
    EXPECT_TRUE(domain.router(0).lsdb().same_content(domain.router(n).lsdb()))
        << "router " << n << " LSDB differs";
  }
  EXPECT_EQ(domain.router(0).lsdb().size(), p.topo.node_count());
}

TEST(Domain, ConvergedTablesMatchDirectComputation) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();
  const auto direct = compute_all_routes(NetworkView::from_topology(p.topo));
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    EXPECT_EQ(domain.table(n), direct[n]) << "router " << n;
  }
}

TEST(Domain, InjectedLieFloodsAndReprograms) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();

  // Controller session at R3 (as in the paper's demo setup).
  ExternalLsa fb;
  fb.lie_id = 1;
  fb.prefix = p.p1;
  fb.ext_metric = 0;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, fb);
  domain.run_to_convergence();

  EXPECT_EQ(named_hops(p.topo, domain.table(p.b).at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}, {"R3", 1}}));
}

TEST(Domain, WithdrawRestoresOriginalRoutes) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();
  const RoutingTable before = domain.table(p.b);

  ExternalLsa fb;
  fb.lie_id = 1;
  fb.prefix = p.p1;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, fb);
  domain.run_to_convergence();
  EXPECT_NE(domain.table(p.b), before);

  ASSERT_TRUE(domain.withdraw_external(p.r3, 1).ok());
  domain.run_to_convergence();
  EXPECT_EQ(domain.table(p.b), before);
}

TEST(Domain, ReinjectionSupersedesOlderInstance) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();

  ExternalLsa fa;
  fa.lie_id = 10;
  fa.prefix = p.p2;
  fa.ext_metric = 2;  // total 6 = A's real cost: tie -> ECMP at A
  fa.forwarding_address = fwd_addr(p.topo, p.a, p.r1);
  domain.inject_external(p.r3, fa);
  domain.run_to_convergence();
  EXPECT_EQ(domain.table(p.a).at(p.p2).next_hops.size(), 2u);

  // Update the same lie to a non-competitive metric: route reverts.
  fa.ext_metric = 50;
  domain.inject_external(p.r3, fa);
  domain.run_to_convergence();
  EXPECT_EQ(domain.table(p.a).at(p.p2).next_hops.size(), 1u);
}

TEST(Domain, AliasingLieFromAnotherSessionIsDetectedAtDecode) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();

  ExternalLsa fb;
  fb.lie_id = 1;
  fb.prefix = p.p1;  // /25: ids congruent modulo 128 share a wire identity
  fb.ext_metric = 0;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, fb);
  domain.run_to_convergence();
  const RoutingTable settled = domain.table(p.b);

  // A colliding lie arrives through a *different* session router, so the
  // injecting session has no send-side state to refuse it with. The first
  // router to decode it sees a route tag disagreeing with the wire
  // identity's standing owner, refuses to install, and counts the event.
  ExternalLsa alias = fb;
  alias.lie_id = 129;
  alias.ext_metric = 7;
  domain.inject_external(p.r2, alias);
  domain.run_to_convergence();

  EXPECT_EQ(domain.router(p.r2).alias_collisions(), 1u);
  // The standing lie survives everywhere; the alias never entered any LSDB.
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    const Lsa* stored = domain.router(n).lsdb().find(LsaKey{LsaType::kExternal, 1});
    ASSERT_NE(stored, nullptr) << "router " << n;
    EXPECT_EQ(domain.router(n).lsdb().find(LsaKey{LsaType::kExternal, 129}), nullptr)
        << "router " << n;
  }
  EXPECT_EQ(domain.table(p.b), settled);
}

TEST(Domain, LsaFloodCountIsBounded) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();
  const std::uint64_t boot = domain.total_proto_counters().lsas_sent;

  ExternalLsa fb;
  fb.lie_id = 1;
  fb.prefix = p.p1;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, fb);
  domain.run_to_convergence();
  const std::uint64_t delta = domain.total_proto_counters().lsas_sent - boot;
  // One LSA flooded once per directed link is the upper bound.
  EXPECT_LE(delta, p.topo.link_count());
  EXPECT_GE(delta, p.topo.node_count() - 1);  // must have reached everyone
}

TEST(Domain, LinkFailureReconvergesToReducedTopology) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();
  ASSERT_EQ(domain.table(p.b).at(p.p1).cost, 4u);  // B-R2-C

  domain.fail_link(p.topo.link_between(p.b, p.r2));
  domain.run_to_convergence();

  // B lost its best path: R3 takes over at cost 6 (B-R3-C).
  EXPECT_EQ(domain.table(p.b).at(p.p1).cost, 6u);
  EXPECT_EQ(named_hops(p.topo, domain.table(p.b).at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R3", 1}}));
  // R2 still reaches the prefix directly through C.
  EXPECT_EQ(named_hops(p.topo, domain.table(p.r2).at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"C", 1}}));
}

TEST(Domain, LinkFailureKillsLieForwardingAddress) {
  // A lie whose forwarding address lives on the failed link must stop
  // steering: its /30 disappears from both Router-LSAs, the FA dangles and
  // routes fall back to the intra path.
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();

  ExternalLsa fb;
  fb.lie_id = 1;
  fb.prefix = p.p1;
  fb.ext_metric = 0;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, fb);
  domain.run_to_convergence();
  ASSERT_EQ(domain.table(p.b).at(p.p1).next_hops.size(), 2u);

  domain.fail_link(p.topo.link_between(p.b, p.r3));
  domain.run_to_convergence();
  EXPECT_EQ(named_hops(p.topo, domain.table(p.b).at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}}));
}

/// Property: on random graphs, protocol-computed tables equal direct
/// computation from the topology (flooding correctness at scale).
TEST(Domain, RandomGraphsConvergeToDirectTables) {
  util::Rng rng(2026);
  for (int trial = 0; trial < 5; ++trial) {
    topo::Topology t = topo::make_waxman(12 + 4 * trial, rng);
    const net::Prefix pfx(net::Ipv4(203, 0, static_cast<std::uint8_t>(trial), 0), 24);
    t.attach_prefix(static_cast<NodeId>(trial % t.node_count()), pfx, 0);
    util::EventQueue events;
    IgpDomain domain(t, events);
    domain.start();
    domain.run_to_convergence();
    const auto direct = compute_all_routes(NetworkView::from_topology(t));
    for (NodeId n = 0; n < t.node_count(); ++n) {
      ASSERT_EQ(domain.table(n), direct[n]) << "trial " << trial << " router " << n;
    }
  }
}

/// Router SPF patches its kept view from the LSAs that changed: a link
/// failure re-originates its two endpoints, and every router re-reads each
/// of them once; a lie re-reads no Router-LSA at all.
TEST(Domain, SpfReReadsOnlyTheReoriginatedRouterLsas) {
  util::Rng rng(40);
  topo::Topology t = topo::make_waxman(40, rng);
  const net::Prefix pfx(net::Ipv4(203, 0, 113, 0), 24);
  t.attach_prefix(0, pfx, 0);
  util::EventQueue events;
  IgpDomain domain(t, events);
  domain.start();
  domain.run_to_convergence();

  // A non-bridge link: the domain stays connected without it.
  const auto connected_without = [&](topo::LinkId cut) {
    std::vector<bool> seen(t.node_count(), false);
    std::vector<NodeId> stack{0};
    seen[0] = true;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const topo::LinkId l : t.out_links(u)) {
        if (l == cut || l == t.link(cut).reverse || seen[t.link(l).to]) continue;
        seen[t.link(l).to] = true;
        stack.push_back(t.link(l).to);
      }
    }
    return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
  };
  topo::LinkId cut = 0;
  while (!connected_without(cut)) ++cut;

  const std::uint64_t before = domain.total_spf_origins_read();
  domain.fail_link(cut);
  domain.run_to_convergence();
  EXPECT_EQ(domain.total_spf_origins_read() - before, 2 * t.node_count());

  ExternalLsa lie;
  lie.lie_id = 1;
  lie.prefix = pfx;
  lie.forwarding_address = t.link(t.out_links(3).front()).local_addr;
  const std::uint64_t runs = domain.total_spf_runs();
  const std::uint64_t at_lie = domain.total_spf_origins_read();
  domain.inject_external(5, lie);
  domain.run_to_convergence();
  EXPECT_GE(domain.total_spf_runs() - runs, t.node_count());
  EXPECT_EQ(domain.total_spf_origins_read(), at_lie);
}

// ------------------------------------------------------------ link recovery

TEST(Domain, RestoreLinkRoundTripsTablesBitIdentical) {
  // Fail B-R2 with a standing lie, restore it: every router's table must be
  // bit-identical to before the failure, and the shared mask must be clean.
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();

  ExternalLsa fb;
  fb.lie_id = 1;
  fb.prefix = p.p1;
  fb.ext_metric = 0;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, fb);
  domain.run_to_convergence();

  std::vector<RoutingTable> before;
  for (NodeId n = 0; n < p.topo.node_count(); ++n) before.push_back(domain.table(n));

  const topo::LinkId dead = p.topo.link_between(p.b, p.r2);
  domain.fail_link(dead);
  domain.run_to_convergence();
  ASSERT_NE(domain.table(p.b), before[p.b]);  // the failure really moved routes
  ASSERT_TRUE(domain.link_is_down(dead));

  domain.restore_link(dead);
  domain.run_to_convergence();
  EXPECT_FALSE(domain.link_is_down(dead));
  EXPECT_FALSE(domain.link_state().any_down());
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    EXPECT_EQ(domain.table(n), before[n]) << "router " << p.topo.node(n).name;
  }
}

TEST(Domain, RestoreOfNeverFailedLinkIsNoOp) {
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();
  const std::uint64_t lsas = domain.total_proto_counters().lsas_sent;
  domain.restore_link(p.topo.link_between(p.a, p.b));
  EXPECT_TRUE(domain.converged());  // nothing scheduled
  EXPECT_EQ(domain.total_proto_counters().lsas_sent, lsas);
}

TEST(Domain, RestoreHealsPartitionThroughDatabaseExchange) {
  // Isolate A (fail A-B and A-R1), inject a lie while A is cut off, then
  // restore one link: the adjacency's database exchange must deliver the
  // missed External-LSA to A, not just the two fresh Router-LSAs.
  const PaperTopology p = make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();

  domain.fail_link(p.topo.link_between(p.a, p.b));
  domain.fail_link(p.topo.link_between(p.a, p.r1));
  domain.run_to_convergence();
  {
    const auto marooned = domain.table(p.a).find(p.p1);
    ASSERT_TRUE(marooned == domain.table(p.a).end() ||
                !marooned->second.reachable());
  }

  ExternalLsa fb;
  fb.lie_id = 7;
  fb.prefix = p.p1;
  fb.ext_metric = 0;
  fb.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, fb);
  domain.run_to_convergence();
  ASSERT_EQ(domain.router(p.a).lsdb().find(LsaKey{LsaType::kExternal, 7}), nullptr);

  domain.restore_link(p.topo.link_between(p.a, p.b));
  domain.run_to_convergence();
  // A holds the lie it never heard, and its routes match direct computation
  // on the degraded topology (A-R1 still down) with the lie installed.
  EXPECT_NE(domain.router(p.a).lsdb().find(LsaKey{LsaType::kExternal, 7}), nullptr);
  EXPECT_TRUE(domain.table(p.a).at(p.p1).reachable());
  EXPECT_EQ(named_hops(p.topo, domain.table(p.b).at(p.p1)),
            (std::map<std::string, std::uint32_t>{{"R2", 1}, {"R3", 1}}));
}

}  // namespace
}  // namespace fibbing::igp
