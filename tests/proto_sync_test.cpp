// Database-synchronization economy at scale: the whole point of the DD-based
// southbound is that (re)forming an adjacency exchanges header *summaries*
// plus the instances that actually differ -- O(changed), not O(database).
// These tests pin that down with the codec's own traffic counters on a
// 200-router domain, and prove a healed partition reconverges bit-identical
// to a domain that never partitioned.

#include <gtest/gtest.h>

#include <vector>

#include "igp/domain.hpp"
#include "igp/lsa.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "proto/neighbor.hpp"
#include "topo/generators.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"

namespace fibbing::igp {
namespace {

using topo::LinkId;
using topo::NodeId;

net::Ipv4 fa_toward(const topo::Topology& t, NodeId from, NodeId to) {
  const LinkId l = t.link_between(from, to);
  return t.link(t.link(l).reverse).local_addr;
}

TEST(ProtoSync, RestorationAt200RoutersExchangesOnlyChangedLsas) {
  util::Rng rng(91);
  topo::Topology t = topo::make_waxman(200, rng, 0.25, 0.25, 10);
  const net::Prefix pfx(net::Ipv4(203, 0, 113, 0), 24);
  t.attach_prefix(0, pfx, 0);

  util::EventQueue events;
  IgpDomain domain(t, events);
  domain.start();
  domain.run_to_convergence();

  // A standing lie makes the database carry an External-LSA too.
  const topo::Link& some = t.link(t.out_links(5).front());
  ExternalLsa lie;
  lie.lie_id = 1;
  lie.prefix = pfx;
  lie.ext_metric = 3;
  lie.forwarding_address = fa_toward(t, some.from, some.to);
  domain.inject_external(10, lie);
  domain.run_to_convergence();

  const std::size_t db_size = domain.router(0).lsdb().size();
  ASSERT_EQ(db_size, t.node_count() + 1);

  // Fail and restore an adjacency whose endpoints keep other links (the
  // domain stays connected, so both fail-time re-originations flood to
  // everyone and the only post-restore differences are the two restore-time
  // re-originations themselves).
  LinkId flapped = topo::kInvalidLink;
  for (LinkId l = 0; l < t.link_count(); ++l) {
    if (t.out_links(t.link(l).from).size() >= 3 &&
        t.out_links(t.link(l).to).size() >= 3) {
      flapped = l;
      break;
    }
  }
  ASSERT_NE(flapped, topo::kInvalidLink);
  const NodeId a = t.link(flapped).from;
  const NodeId b = t.link(flapped).to;

  domain.fail_link(flapped);
  domain.run_to_convergence();
  domain.restore_link(flapped);
  domain.run_to_convergence();

  // The restored adjacency's sessions are fresh (created at restore), so
  // their counters are exactly the cost of the resynchronization.
  const proto::NeighborSession* at_a = domain.router(a).session(b);
  const proto::NeighborSession* at_b = domain.router(b).session(a);
  ASSERT_NE(at_a, nullptr);
  ASSERT_NE(at_b, nullptr);
  ASSERT_TRUE(at_a->synchronized());
  ASSERT_TRUE(at_b->synchronized());

  // Summaries described (at least) the whole database...
  EXPECT_GE(at_a->counters().dd_headers_sent, db_size);
  EXPECT_GE(at_b->counters().dd_headers_sent, db_size);
  // ...but each side requested at most the peer's restore-time
  // re-origination (at most: flooding through the rest of the graph may
  // have delivered it first), and only O(changed) full LSAs crossed the
  // adjacency -- two orders of magnitude below the 2 x 201 a full-database
  // copy would move.
  EXPECT_LE(at_a->counters().ls_requests_sent, 2u);
  EXPECT_LE(at_b->counters().ls_requests_sent, 2u);
  EXPECT_LE(at_a->counters().lsas_sent + at_b->counters().lsas_sent, 8u);

  // And the domain is actually whole again: databases identical everywhere,
  // routes equal to direct computation with the lie in place.
  for (NodeId n = 1; n < t.node_count(); ++n) {
    ASSERT_TRUE(domain.router(0).lsdb().same_content(domain.router(n).lsdb()))
        << "router " << n;
  }
  const auto direct = compute_all_routes(NetworkView::from_topology(
      t, {{lie.lie_id, lie.prefix, lie.ext_metric, lie.forwarding_address}}));
  for (NodeId n = 0; n < t.node_count(); ++n) {
    ASSERT_EQ(domain.table(n), direct[n]) << "router " << n;
  }
}

/// Two 100-router rings joined by a single bridge: failing the bridge
/// partitions the domain deterministically.
topo::Topology make_barbell(std::size_t half) {
  topo::Topology t;
  for (std::size_t i = 0; i < 2 * half; ++i) t.add_node("n" + std::to_string(i));
  for (std::size_t side = 0; side < 2; ++side) {
    const auto base = static_cast<NodeId>(side * half);
    for (std::size_t i = 0; i < half; ++i) {
      t.add_link(base + static_cast<NodeId>(i),
                 base + static_cast<NodeId>((i + 1) % half), 1, 10e9);
    }
    // A few chords so the rings are not degenerate paths (i < half/2 keeps
    // the chord set free of duplicate adjacencies).
    for (std::size_t i = 0; i < half / 2; i += 10) {
      t.add_link(base + static_cast<NodeId>(i),
                 base + static_cast<NodeId>(i + half / 2), 3, 10e9);
    }
  }
  t.add_link(0, static_cast<NodeId>(half), 1, 10e9);  // the bridge
  return t;
}

/// The controller session's reflush runs at a round barrier, so a sharded
/// domain must heal exactly like the single-threaded one (TSan-clean too).
void run_partition_heal(std::size_t shards) {
  const std::size_t kHalf = 100;
  topo::Topology t = make_barbell(kHalf);
  const net::Prefix pfx(net::Ipv4(203, 0, 113, 0), 24);
  t.attach_prefix(3, pfx, 0);
  const NodeId left = 0;
  const NodeId right = static_cast<NodeId>(kHalf);
  const LinkId bridge = t.link_between(left, right);
  const NodeId session_router = 5;  // left side

  util::EventQueue events;
  IgpDomain domain(t, events, IgpTiming{}, nullptr, shards);
  ASSERT_EQ(domain.shard_count(), shards);
  domain.start();
  domain.run_to_convergence();

  // Lie L1 while whole: everyone holds it.
  ExternalLsa l1;
  l1.lie_id = 1;
  l1.prefix = pfx;
  l1.ext_metric = 2;
  l1.forwarding_address = fa_toward(t, 3, 4);
  domain.inject_external(session_router, l1);
  domain.run_to_convergence();

  domain.fail_link(bridge);
  domain.run_to_convergence();

  // While partitioned: retract L1 and inject L2 on the left. The right
  // side hears neither -- it still believes L1 and never learns L2.
  ExternalLsa l2 = l1;
  l2.lie_id = 2;
  l2.ext_metric = 5;
  ASSERT_TRUE(domain.withdraw_external(session_router, 1).ok());
  domain.inject_external(session_router, l2);
  domain.run_to_convergence();
  {
    const Lsdb& marooned = domain.router(right + 7).lsdb();
    const Lsa* stale = marooned.find(LsaKey{LsaType::kExternal, 1});
    ASSERT_NE(stale, nullptr);
    EXPECT_FALSE(std::get<ExternalLsa>(stale->body).withdrawn);
    EXPECT_EQ(marooned.find(LsaKey{LsaType::kExternal, 2}), nullptr);
  }

  // On the left, L1's tombstone has by now been fully acknowledged and
  // flushed (RFC 14): left LSDBs hold no trace of L1 at all.
  EXPECT_EQ(domain.router(session_router).lsdb().find(LsaKey{LsaType::kExternal, 1}),
            nullptr);
  EXPECT_GT(domain.router(session_router).tombstones_flushed(), 0u);

  domain.restore_link(bridge);
  domain.run_to_convergence();

  // The DD exchange on the healed bridge: the right side lacked the left
  // endpoint's restore-time Router-LSA and L2; the left side lacked the
  // right endpoint's Router-LSA -- and, having flushed the tombstone, the
  // right's still-live L1 (2 requests each). Resurrecting stale L1 on the
  // left is the RFC 13.4 hazard the controller session resolves below.
  const proto::NeighborSession* at_left = domain.router(left).session(right);
  const proto::NeighborSession* at_right = domain.router(right).session(left);
  ASSERT_NE(at_left, nullptr);
  ASSERT_NE(at_right, nullptr);
  EXPECT_EQ(at_right->counters().ls_requests_sent, 2u);
  EXPECT_EQ(at_left->counters().ls_requests_sent, 2u);
  EXPECT_GE(at_left->counters().dd_headers_sent, 2 * kHalf);
  EXPECT_LE(at_left->counters().lsas_sent + at_right->counters().lsas_sent, 8u);

  // The session router installed the resurrected live L1 from a real
  // neighbor and echoed it up; the controller re-flushed at a fresher
  // sequence, and that tombstone in turn converged and was flushed
  // everywhere: no LSDB remembers L1, on either side.
  EXPECT_GE(domain.controller_session(session_router).counters().reflushes, 1u);
  {
    const Lsdb& healed = domain.router(right + 7).lsdb();
    EXPECT_EQ(healed.find(LsaKey{LsaType::kExternal, 1}), nullptr);
    ASSERT_NE(healed.find(LsaKey{LsaType::kExternal, 2}), nullptr);
  }
  for (NodeId n = 1; n < t.node_count(); ++n) {
    ASSERT_TRUE(domain.router(0).lsdb().same_content(domain.router(n).lsdb()))
        << "router " << n;
  }

  // Bit-identical to a pristine domain that only ever saw L2.
  util::EventQueue pristine_events;
  IgpDomain pristine(t, pristine_events);
  pristine.start();
  pristine.run_to_convergence();
  pristine.inject_external(session_router, l2);
  pristine.run_to_convergence();
  for (NodeId n = 0; n < t.node_count(); ++n) {
    ASSERT_EQ(domain.table(n), pristine.table(n)) << "router " << n;
  }
}

TEST(ProtoSync, PartitionHealReconvergesBitIdenticalAndRequestsOnlyTheDelta) {
  run_partition_heal(1);
}

TEST(ProtoSync, PartitionHealReconvergesBitIdenticalAndRequestsOnlyTheDeltaOnFourShards) {
  run_partition_heal(4);
}

}  // namespace
}  // namespace fibbing::igp
