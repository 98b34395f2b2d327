// Protocol-driven liveness scenarios: failures nobody announces. A crashed
// router, a one-way packet-loss fault and lossy/slow links are only ever
// discovered the way deployed OSPF discovers them -- Hello silence expiring
// the RouterDeadInterval, or the RFC 2328 10.2 1-way check -- and the
// resulting state must be bit-identical to the same failure delivered
// administratively through the link-state mask. The churn-flush regression
// pins the RFC 14 side of the story: withdrawal tombstones leave every LSDB
// once acknowledged, so churn cannot grow the database.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/service.hpp"
#include "igp/domain.hpp"
#include "igp/lsa.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "support/probes.hpp"
#include "support/scenario.hpp"
#include "topo/generators.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"

namespace fibbing::igp {
namespace {

using support::fwd_addr;
using topo::LinkId;
using topo::NodeId;
using topo::PaperTopology;

/// Demo-scale liveness timers: detection within a few simulated seconds
/// instead of the deployed-OSPF 40 s default.
IgpTiming fast_timing() {
  IgpTiming timing;
  timing.hello_interval_s = 0.5;
  timing.dead_interval_s = 2.0;
  return timing;
}

/// Recorded (link, down) liveness transitions, in the deterministic order
/// the domain reports them.
using Transitions = std::vector<std::pair<LinkId, bool>>;

Transitions& record(IgpDomain& domain, Transitions& into) {
  domain.set_on_liveness_change(
      [&into](LinkId link, bool down) { into.emplace_back(link, down); });
  return into;
}

bool saw(const Transitions& seen, LinkId link, bool down) {
  return std::find(seen.begin(), seen.end(), std::make_pair(link, down)) !=
         seen.end();
}

// --------------------------------------------------------------- crash

TEST(Liveness, RouterCrashIsDetectedByHelloSilenceAlone) {
  const PaperTopology p = topo::make_paper_topology();
  util::EventQueue events;
  IgpDomain live(p.topo, events, fast_timing());
  Transitions seen;
  record(live, seen);
  live.start();
  live.run_to_convergence();

  // R1 dies fail-stop. Nothing is torn down administratively: the mask is
  // untouched and stays untouched for the whole test.
  live.crash_router(p.r1);
  EXPECT_FALSE(live.is_alive(p.r1));
  EXPECT_EQ(live.link_state().down_count(), 0u);
  EXPECT_TRUE(seen.empty());  // nothing detected yet -- Hellos only just stopped

  // Every neighbor's RouterDeadInterval expires independently; each tears
  // its adjacency down and re-originates without the link.
  events.run_until(events.now() + fast_timing().dead_interval_s + 1.0);
  live.run_to_convergence();

  EXPECT_TRUE(saw(seen, p.topo.link_between(p.a, p.r1), true));
  EXPECT_TRUE(saw(seen, p.topo.link_between(p.r4, p.r1), true));
  EXPECT_EQ(live.link_state().down_count(), 0u);  // still zero fail_link calls
  // The corpse's own dead timers still fire, but it reports nothing.
  for (const auto& [link, down] : seen) {
    EXPECT_NE(p.topo.link(link).from, p.r1) << "link " << link;
  }

  // Bit-identical to the same failure driven through the mask: a twin
  // domain where both of R1's links are failed administratively.
  util::EventQueue masked_events;
  IgpDomain masked(p.topo, masked_events, fast_timing());
  masked.start();
  masked.run_to_convergence();
  masked.fail_link(p.topo.link_between(p.a, p.r1));
  masked.fail_link(p.topo.link_between(p.r1, p.r4));
  masked.run_to_convergence();
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    if (n == p.r1) continue;  // the corpse's own table is not comparable
    ASSERT_EQ(live.table(n), masked.table(n)) << "router " << n;
  }
}

// ------------------------------------------------------------- one-way

TEST(Liveness, OneWayLossIsCaughtByTheOneWayHelloCheck) {
  const PaperTopology p = topo::make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events, fast_timing());
  Transitions seen;
  record(domain, seen);
  domain.start();
  domain.run_to_convergence();
  std::vector<RoutingTable> before;
  for (NodeId n = 0; n < p.topo.node_count(); ++n) before.push_back(domain.table(n));

  // A->B loses every packet; B->A is untouched. B discovers the fault by
  // RouterDeadInterval (A's Hellos stop arriving); A keeps hearing B
  // perfectly and can only learn from B's Hellos no longer listing it --
  // the RFC 10.2 1-WayReceived path.
  const LinkId a_to_b = p.topo.link_between(p.a, p.b);
  const LinkId b_to_a = p.topo.link(a_to_b).reverse;
  domain.set_link_loss(a_to_b, 1.0);
  events.run_until(events.now() + fast_timing().dead_interval_s + 2.0);
  domain.run_to_convergence();

  EXPECT_TRUE(saw(seen, b_to_a, true));  // B: dead interval
  EXPECT_TRUE(saw(seen, a_to_b, true));  // A: 1-way Hello
  EXPECT_EQ(domain.link_state().down_count(), 0u);

  // Same routes as an administrative failure of the link.
  util::EventQueue masked_events;
  IgpDomain masked(p.topo, masked_events, fast_timing());
  masked.start();
  masked.run_to_convergence();
  masked.fail_link(a_to_b);
  masked.run_to_convergence();
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    ASSERT_EQ(domain.table(n), masked.table(n)) << "router " << n;
  }

  // The fault clears: Hellos flow again, the adjacency re-forms through the
  // full bring-up, both detections are retracted, and every table returns
  // bit-identical to the pre-fault state.
  domain.set_link_loss(a_to_b, 0.0);
  events.run_until(events.now() + fast_timing().dead_interval_s + 2.0);
  domain.run_to_convergence();
  EXPECT_TRUE(saw(seen, a_to_b, false));
  EXPECT_TRUE(saw(seen, b_to_a, false));
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    ASSERT_EQ(domain.table(n), before[n]) << "router " << n;
  }
}

// ------------------------------------------- churn on degraded links

TEST(Liveness, ChurnOnLossyAndSlowLinksConvergesToDirectTables) {
  // Lie churn rides links that drop a third of their packets one way and a
  // link slowed by 50 ms: retransmissions, the exchange watchdog and
  // delayed acks have to carry the protocol through. Liveness stays on
  // with 8 Hellos per dead interval, so the deterministic loss pattern
  // cannot plausibly silence a full window.
  util::Rng rng(7);
  topo::Topology t = topo::make_waxman(40, rng, 0.25, 0.25, 10);
  const net::Prefix pfx(net::Ipv4(203, 0, 113, 0), 24);
  t.attach_prefix(0, pfx, 0);

  IgpTiming timing = fast_timing();
  timing.hello_interval_s = 0.25;
  util::EventQueue events;
  IgpDomain domain(t, events, timing);
  domain.start();
  domain.run_to_convergence();

  LinkId lossy = topo::kInvalidLink;
  LinkId slow = topo::kInvalidLink;
  for (LinkId l = 0; l < t.link_count(); ++l) {
    if (t.out_links(t.link(l).from).size() < 3 ||
        t.out_links(t.link(l).to).size() < 3) {
      continue;
    }
    if (lossy == topo::kInvalidLink) {
      lossy = l;
    } else if (t.link(l).from != t.link(lossy).from &&
               t.link(l).from != t.link(lossy).to) {
      slow = l;
      break;
    }
  }
  ASSERT_NE(lossy, topo::kInvalidLink);
  ASSERT_NE(slow, topo::kInvalidLink);
  domain.set_link_loss(lossy, 0.35);
  domain.set_link_delay(slow, 0.05);

  ExternalLsa lie;
  lie.lie_id = 1;
  lie.prefix = pfx;
  lie.ext_metric = 3;
  lie.forwarding_address = fwd_addr(t, t.link(0).from, t.link(0).to);
  domain.inject_external(2, lie);
  domain.run_to_convergence();
  lie.ext_metric = 4;  // supersede in place
  domain.inject_external(2, lie);
  domain.run_to_convergence();
  ExternalLsa second = lie;
  second.lie_id = 2;
  second.ext_metric = 6;
  domain.inject_external(2, second);
  events.run_until(events.now() + 0.004);            // both mid-flood...
  ASSERT_TRUE(domain.withdraw_external(2, 1).ok());  // ...retract the first
  domain.run_to_convergence();

  // Degradation off; give any adjacency the loss pattern may have torn
  // down time to re-form, then settle.
  domain.set_link_loss(lossy, 0.0);
  domain.set_link_delay(slow, 0.0);
  events.run_until(events.now() + 6.0);
  domain.run_to_convergence();

  for (NodeId n = 1; n < t.node_count(); ++n) {
    ASSERT_TRUE(domain.router(0).lsdb().same_content(domain.router(n).lsdb()))
        << "router " << n;
  }
  const auto direct = compute_all_routes(NetworkView::from_topology(
      t, {{second.lie_id, second.prefix, second.ext_metric,
           second.forwarding_address}}));
  for (NodeId n = 0; n < t.node_count(); ++n) {
    ASSERT_EQ(domain.table(n), direct[n]) << "router " << n;
  }
}

// ------------------------------------------------------ churn flushing

TEST(Liveness, WithdrawChurnFlushesTombstonesAndBoundsTheLsdb) {
  // Ten inject/withdraw cycles: if RFC 14 flushing ever strands a MaxAge
  // tombstone, the LSDB grows monotonically with churn. It must instead
  // return to exactly one entry per router after every cycle.
  const PaperTopology p = topo::make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events, fast_timing());
  domain.start();
  domain.run_to_convergence();
  const std::size_t base = p.topo.node_count();

  for (std::uint64_t id = 1; id <= 10; ++id) {
    ExternalLsa lie;
    lie.lie_id = id;
    lie.prefix = p.p1;
    lie.ext_metric = 2 + id;
    lie.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
    domain.inject_external(p.r3, lie);
    domain.run_to_convergence();
    for (NodeId n = 0; n < p.topo.node_count(); ++n) {
      ASSERT_EQ(domain.router(n).lsdb().size(), base + 1)
          << "router " << n << " cycle " << id;
    }
    ASSERT_TRUE(domain.withdraw_external(p.r3, id).ok());
    domain.run_to_convergence();
    for (NodeId n = 0; n < p.topo.node_count(); ++n) {
      ASSERT_EQ(domain.router(n).lsdb().size(), base)
          << "router " << n << " cycle " << id;
      ASSERT_EQ(domain.router(n).lsdb().find(LsaKey{LsaType::kExternal, id}),
                nullptr)
          << "router " << n << " cycle " << id;
    }
  }
  for (NodeId n = 0; n < p.topo.node_count(); ++n) {
    EXPECT_GE(domain.router(n).tombstones_flushed(), 10u) << "router " << n;
  }
}

TEST(Liveness, TombstoneHeldByADeadAdjacencyFlushesWhenItTimesOut) {
  // R2 -> B loses every packet, so R2's acks of lie 1's withdrawal never
  // reach B and the tombstone stays on B's retransmission list toward R2.
  // When B's RouterDeadInterval for R2 expires the list is gone, and that
  // adjacency loss alone must let B flush the tombstone.
  const PaperTopology p = topo::make_paper_topology();
  util::EventQueue events;
  IgpDomain domain(p.topo, events, fast_timing());
  domain.start();
  domain.run_to_convergence();

  ExternalLsa lie;
  lie.lie_id = 1;
  lie.prefix = p.p1;
  lie.forwarding_address = fwd_addr(p.topo, p.b, p.r3);
  domain.inject_external(p.r3, lie);
  domain.run_to_convergence();

  domain.set_link_loss(p.topo.link_between(p.r2, p.b), 1.0);
  ASSERT_TRUE(domain.withdraw_external(p.r3, 1).ok());
  events.run_until(events.now() + fast_timing().dead_interval_s + 1.0);
  domain.run_to_convergence();

  EXPECT_EQ(domain.router(p.b).lsdb().find(LsaKey{LsaType::kExternal, 1}), nullptr);
  EXPECT_GE(domain.router(p.b).tombstones_flushed(), 1u);
}

}  // namespace
}  // namespace fibbing::igp

// ---------------------------------------------------------- service level

namespace fibbing::core {
namespace {

TEST(Liveness, ServiceCrashFeedsTheMaskAndTheControllerReplans) {
  // The full stack, with nobody told about the crash: R1 dies at t=2 and
  // the only path from the event to the controller is protocol detection
  // feeding the shared link-state mask through the domain's liveness hook.
  // The controller must then place both Fig. 2 surges on the degraded
  // topology exactly as if the links had been failed administratively.
  ServiceConfig config = support::demo_config();
  config.igp_timing.hello_interval_s = 0.5;
  config.igp_timing.dead_interval_s = 2.0;
  support::PaperScenario run(config);
  run.service.events().schedule_at(
      2.0, [&run] { run.service.crash_router(run.p.r1); });
  run.schedule_fig2();

  support::HealthProbe probe;
  probe.install(run.service, 55.0);
  run.run_until(55.0);

  // Both of R1's adjacencies were marked down in the mask -- with zero
  // fail_link calls anywhere in this test.
  EXPECT_EQ(run.service.link_state().down_count(), 2u);
  EXPECT_TRUE(run.service.link_state().is_down(
      run.p.topo.link_between(run.p.a, run.p.r1)));
  EXPECT_TRUE(run.service.link_state().is_down(
      run.p.topo.link_between(run.p.r1, run.p.r4)));

  EXPECT_TRUE(probe.healthy());
  EXPECT_GE(run.service.controller().mitigations(), 1);
  EXPECT_TRUE(support::lies_respect_link_state(run.service));
  // Nothing reaches the corpse; A's surge gets to C entirely through B.
  EXPECT_DOUBLE_EQ(run.rate(run.p.a, run.p.r1), 0.0);
  EXPECT_GT(run.rate(run.p.a, run.p.b), 25e6);
  EXPECT_TRUE(support::traffic_conserved(run.service, run.p.c, 62e6));
  EXPECT_EQ(run.stalled_sessions(), 0);
}

}  // namespace
}  // namespace fibbing::core
