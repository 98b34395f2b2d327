// RouteCache unit coverage: version-keyed invalidation, the exact memo,
// lie-delta patching and its column sharing, incremental SPF (repair, no-op
// certification and the non-local and bulk fallbacks) -- each checked for
// bit-identity against the fresh compute_all_routes / run_spf path it
// replaces.

#include <gtest/gtest.h>

#include <vector>

#include "igp/route_cache.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "net/prefix.hpp"
#include "support/probes.hpp"
#include "topo/generators.hpp"
#include "topo/link_state.hpp"
#include "util/rng.hpp"

namespace fibbing {
namespace {

using igp::NetworkView;

/// The reference path the cache must match bit-for-bit.
std::vector<igp::RoutingTable> fresh_tables(
    const topo::Topology& t, const topo::LinkStateMask& mask,
    const std::vector<NetworkView::External>& externals) {
  return igp::compute_all_routes(NetworkView::from_topology(t, externals, &mask));
}

/// The cache's prefix-major table set in the reference's router-major form.
std::vector<igp::RoutingTable> router_major(const topo::Topology& t,
                                            const igp::RouteCache::TablesPtr& tables) {
  return support::routing_tables(*tables, t.node_count());
}

/// A random connected topology with a few prefixes attached.
topo::Topology test_topology(std::uint64_t seed, std::size_t n = 20) {
  util::Rng rng(seed);
  topo::Topology t = topo::make_waxman(n, rng, 0.5, 0.5, 8);
  for (int i = 0; i < 4; ++i) {
    t.attach_prefix(static_cast<topo::NodeId>(rng.pick_index(t.node_count())),
                    net::Prefix(net::Ipv4(203, 0, static_cast<std::uint8_t>(i), 0),
                                24));
  }
  return t;
}

/// A lie-shaped external: announce `prefix` with the forwarding address of
/// `link`'s far end (so the near end steers into the link).
NetworkView::External lie_external(const topo::Topology& t, topo::LinkId link,
                                   const net::Prefix& prefix, topo::Metric metric,
                                   std::uint64_t lie_id) {
  const topo::LinkId rev = t.link(link).reverse;
  return NetworkView::External{lie_id, prefix, metric, t.link(rev).local_addr};
}

TEST(RouteCache, BaselineMatchesFreshComputation) {
  const topo::Topology t = test_topology(1);
  const topo::LinkStateMask mask(t);
  igp::RouteCache cache(t, mask);
  EXPECT_EQ(router_major(t, cache.tables({})), fresh_tables(t, mask, {}));
  EXPECT_EQ(cache.stats().baseline_builds, 1u);
}

TEST(RouteCache, LieDeltaPatchingMatchesFresh) {
  const topo::Topology t = test_topology(2);
  const topo::LinkStateMask mask(t);
  igp::RouteCache cache(t, mask);
  const net::Prefix attached = t.prefixes().front().prefix;
  const net::Prefix unknown(net::Ipv4(198, 51, 100, 0), 24);

  // Replicated lies, a lie for an attached prefix, a lie for a prefix the
  // IGP does not announce, and a dangling forwarding address.
  std::vector<NetworkView::External> externals{
      lie_external(t, 0, attached, 3, 1),
      lie_external(t, 0, attached, 3, 2),   // replica: weight accumulates
      lie_external(t, 2, unknown, 1, 3),
      NetworkView::External{4, unknown, 1, net::Ipv4(192, 0, 2, 1)},  // dangling
  };
  EXPECT_EQ(router_major(t, cache.tables(externals)), fresh_tables(t, mask, externals));
  EXPECT_EQ(cache.stats().table_builds, 1u);
  // The patch path starts from the baseline, so that was built too.
  EXPECT_EQ(cache.stats().baseline_builds, 1u);
}

TEST(RouteCache, ExactMemoHitsAndIgnoresLieIds) {
  const topo::Topology t = test_topology(3);
  const topo::LinkStateMask mask(t);
  igp::RouteCache cache(t, mask);
  const net::Prefix p = t.prefixes().front().prefix;

  const std::vector<NetworkView::External> a{lie_external(t, 4, p, 2, 7)};
  // Same route-relevant content, different lie id and order of insertion.
  const std::vector<NetworkView::External> b{lie_external(t, 4, p, 2, 99)};

  const auto first = cache.tables(a);
  EXPECT_EQ(cache.stats().table_hits, 0u);
  EXPECT_EQ(cache.tables(a).get(), first.get());
  EXPECT_EQ(cache.tables(b).get(), first.get());  // ids never shape routes
  EXPECT_EQ(cache.stats().table_hits, 2u);
  EXPECT_EQ(cache.stats().table_builds, 1u);
}

TEST(RouteCache, MemoEvictsLeastRecentlyUsedNotOldest) {
  const topo::Topology t = test_topology(11);
  const topo::LinkStateMask mask(t);
  igp::RouteCache cache(t, mask, /*memo_capacity=*/2);
  const net::Prefix p = t.prefixes().front().prefix;

  const std::vector<NetworkView::External> v1{lie_external(t, 2, p, 2, 1)};
  const std::vector<NetworkView::External> v2{lie_external(t, 4, p, 2, 1)};
  const std::vector<NetworkView::External> v3{lie_external(t, 6, p, 2, 1)};

  const auto t1 = cache.tables(v1);     // memo: {v1}
  (void)cache.tables(v2);               // memo: {v1, v2} (at capacity)
  (void)cache.tables(v1);               // hit refreshes v1's recency
  (void)cache.tables(v3);               // evicts v2 -- the LRU -- not v1
  EXPECT_EQ(cache.stats().memo_evictions, 1u);

  const std::uint64_t builds = cache.stats().table_builds;
  EXPECT_EQ(cache.tables(v1).get(), t1.get());  // v1 survived: hit
  EXPECT_EQ(cache.stats().table_builds, builds);
  (void)cache.tables(v2);  // v2 was evicted: rebuilt
  EXPECT_EQ(cache.stats().table_builds, builds + 1);
  EXPECT_EQ(cache.stats().memo_evictions, 2u);  // v3 paid for v2's return
  // Under FIFO eviction the v1 re-touch would not have saved it: inserting
  // v3 would have evicted v1 (the oldest insertion) instead of v2.
}

TEST(RouteCache, VariantsShareEveryColumnTheyDoNotPatch) {
  const topo::Topology t = test_topology(12);
  const topo::LinkStateMask mask(t);
  igp::RouteCache cache(t, mask);
  const net::Prefix p = t.prefixes()[0].prefix;
  const net::Prefix q = t.prefixes()[1].prefix;
  ASSERT_NE(p, q);

  const auto base = cache.tables({});
  const auto with_p = cache.tables({lie_external(t, 2, p, 1, 1)});
  const auto with_q = cache.tables({lie_external(t, 5, q, 1, 2)});
  for (const auto& [variant, patched] : {std::pair{with_p, p}, std::pair{with_q, q}}) {
    ASSERT_EQ(variant->size(), base->size());
    for (const auto& [prefix, column] : *base) {
      if (prefix == patched) {
        EXPECT_NE(variant->at(prefix).get(), column.get()) << prefix.to_string();
      } else {
        EXPECT_EQ(variant->at(prefix).get(), column.get()) << prefix.to_string();
      }
    }
  }
  // A prefix no router has a source for reads as unreachable everywhere.
  const igp::RouteColumn& absent =
      *cache.column(*base, net::Prefix(net::Ipv4(198, 51, 100, 0), 24));
  EXPECT_EQ(absent, igp::RouteColumn(t.node_count()));
}

TEST(RouteCache, EvictedVariantRebuildsToEqualColumns) {
  const topo::Topology t = test_topology(13);
  const topo::LinkStateMask mask(t);
  igp::RouteCache cache(t, mask, /*memo_capacity=*/1);
  const net::Prefix p = t.prefixes().front().prefix;
  const std::vector<NetworkView::External> v1{lie_external(t, 2, p, 2, 1)};
  const std::vector<NetworkView::External> v2{lie_external(t, 4, p, 2, 1)};

  const auto first = cache.tables(v1);
  (void)cache.tables(v2);  // evicts v1
  const auto rebuilt = cache.tables(v1);
  EXPECT_EQ(cache.stats().memo_evictions, 2u);
  EXPECT_EQ(cache.stats().table_builds, 3u);
  EXPECT_NE(rebuilt.get(), first.get());
  ASSERT_EQ(rebuilt->size(), first->size());
  const auto base = cache.tables({});
  for (const auto& [prefix, column] : *first) {
    EXPECT_EQ(*rebuilt->at(prefix), *column) << prefix.to_string();
    if (prefix != p) {
      EXPECT_EQ(rebuilt->at(prefix).get(), base->at(prefix).get()) << prefix.to_string();
    }
  }
}

TEST(RouteCache, VersionKeyedInvalidationOnFailure) {
  const topo::Topology t = test_topology(4);
  topo::LinkStateMask mask(t);
  igp::RouteCache cache(t, mask);

  const auto before = cache.tables({});
  ASSERT_TRUE(mask.fail(0));
  // New version, new tables; both match their own topology state.
  const auto after = cache.tables({});
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(router_major(t, after), fresh_tables(t, mask, {}));
  EXPECT_EQ(cache.stats().generations, 1u);

  ASSERT_TRUE(mask.restore(0));
  EXPECT_EQ(router_major(t, cache.tables({})), router_major(t, before));
  EXPECT_EQ(cache.stats().generations, 2u);
}

TEST(RouteCache, NetZeroChurnBetweenQueriesRevalidatesEverything) {
  const topo::Topology t = test_topology(5);
  topo::LinkStateMask mask(t);
  igp::RouteCache cache(t, mask);

  const auto before = cache.tables({});
  const auto spf_runs = cache.stats().spf_full;
  // A fail/restore pair the cache never observes mid-flight: the version
  // moved, the bits did not -- everything cached is still exact.
  ASSERT_TRUE(mask.fail(2));
  ASSERT_TRUE(mask.restore(2));
  EXPECT_EQ(cache.tables({}).get(), before.get());
  EXPECT_EQ(cache.stats().spf_full, spf_runs);
  EXPECT_EQ(cache.stats().generations, 0u);
}

TEST(RouteCache, IncrementalSpfMatchesFreshAfterSingleFailure) {
  const topo::Topology t = test_topology(6);
  topo::LinkStateMask mask(t);
  igp::RouteCache cache(t, mask);

  // Warm every source, then flip one adjacency.
  for (topo::NodeId n = 0; n < t.node_count(); ++n) (void)cache.spf(n);
  const auto full_before = cache.stats().spf_full;
  ASSERT_TRUE(mask.fail(1));

  const NetworkView degraded = NetworkView::from_topology(t, {}, &mask);
  for (topo::NodeId n = 0; n < t.node_count(); ++n) {
    const igp::SpfResult& cached = cache.spf(n);
    const igp::SpfResult reference = igp::run_spf(degraded, n);
    EXPECT_EQ(cached.dist, reference.dist) << "source " << n;
    EXPECT_EQ(cached.first_hops, reference.first_hops) << "source " << n;
  }
  // The repair path did the work: no more than a fallback's worth of fresh
  // Dijkstras, and at least one repair or no-op certification.
  EXPECT_GT(cache.stats().spf_incremental + cache.stats().spf_unchanged, 0u);
  EXPECT_LT(cache.stats().spf_full - full_before, t.node_count());
}

TEST(RouteCache, IncrementalSpfFallsBackWhenChangeIsNonLocal) {
  // On a ring every link failure re-routes half the graph for most sources:
  // exactly the non-local case that must fall back to a full Dijkstra.
  const topo::Topology t = topo::make_ring(32);
  topo::LinkStateMask mask(t);
  igp::RouteCache cache(t, mask);

  (void)cache.spf(0);
  ASSERT_EQ(cache.stats().spf_full, 1u);
  // Fail the source's own clockwise adjacency: every node on that side
  // (half the ring) must re-route the long way around.
  ASSERT_TRUE(mask.fail(t.link_between(0, 1)));
  const igp::SpfResult& repaired = cache.spf(0);
  const NetworkView degraded = NetworkView::from_topology(t, {}, &mask);
  const igp::SpfResult reference = igp::run_spf(degraded, 0);
  EXPECT_EQ(repaired.dist, reference.dist);
  EXPECT_EQ(repaired.first_hops, reference.first_hops);
  EXPECT_EQ(cache.stats().spf_full, 2u);  // fallback, not repair
  EXPECT_EQ(cache.stats().spf_incremental, 0u);
}

// ---------------------------------------------------------------- update_spf

/// Exhaustive single-adjacency flips on random graphs: removal of every
/// adjacency (old result on the full view) and insertion of every adjacency
/// (old result on the degraded view), each compared to a fresh Dijkstra.
class SpfUpdateProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpfUpdateProperty, RemovalAndInsertionMatchFreshEverywhere) {
  util::Rng rng(GetParam());
  const topo::Topology t = topo::make_waxman(16, rng, 0.6, 0.6, 7);
  topo::LinkStateMask mask(t);
  const NetworkView full = NetworkView::from_topology(t, {}, &mask);

  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    const topo::Link& link = t.link(l);
    if (link.from > link.to) continue;  // one flip per adjacency
    const topo::Metric w_ab = link.metric;
    const topo::Metric w_ba = t.link(link.reverse).metric;

    ASSERT_TRUE(mask.fail(l));
    const NetworkView degraded = NetworkView::from_topology(t, {}, &mask);
    for (topo::NodeId src = 0; src < t.node_count(); ++src) {
      const igp::SpfResult on_full = igp::run_spf(full, src);
      const igp::SpfResult on_degraded = igp::run_spf(degraded, src);

      const igp::SpfUpdate removal = igp::update_spf(
          degraded, on_full,
          {igp::EdgeDelta{link.from, link.to, w_ab, /*removed=*/true},
           igp::EdgeDelta{link.to, link.from, w_ba, /*removed=*/true}});
      const igp::SpfResult& removed = removal.mode == igp::SpfUpdate::Mode::kUnchanged
                                          ? on_full
                                          : removal.result;
      EXPECT_EQ(removed.dist, on_degraded.dist) << "link " << l << " src " << src;
      EXPECT_EQ(removed.first_hops, on_degraded.first_hops)
          << "link " << l << " src " << src;

      const igp::SpfUpdate insertion = igp::update_spf(
          full, on_degraded,
          {igp::EdgeDelta{link.from, link.to, w_ab, /*removed=*/false},
           igp::EdgeDelta{link.to, link.from, w_ba, /*removed=*/false}});
      const igp::SpfResult& inserted =
          insertion.mode == igp::SpfUpdate::Mode::kUnchanged ? on_degraded
                                                             : insertion.result;
      EXPECT_EQ(inserted.dist, on_full.dist) << "link " << l << " src " << src;
      EXPECT_EQ(inserted.first_hops, on_full.first_hops)
          << "link " << l << " src " << src;
    }
    ASSERT_TRUE(mask.restore(l));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpfUpdateProperty,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(SpfUpdate, BulkDeltasRunTheFullDijkstra) {
  // Nine adjacencies off every shortest path from the source fail at once.
  // Each alone would leave the result unchanged, but 18 directed deltas are
  // a bulk transition, which update_spf answers with a full Dijkstra.
  const topo::Topology t = test_topology(5, 40);
  topo::LinkStateMask mask(t);
  const igp::SpfResult before =
      igp::run_spf(NetworkView::from_topology(t, {}, &mask), 0);
  std::vector<igp::EdgeDelta> deltas;
  for (topo::LinkId l = 0; l < t.link_count() && deltas.size() < 18; ++l) {
    const topo::Link& link = t.link(l);
    const topo::Link& rev = t.link(link.reverse);
    if (link.from > link.to) continue;  // one flip per adjacency
    if (before.dist[link.from] + link.metric == before.dist[link.to] ||
        before.dist[link.to] + rev.metric == before.dist[link.from]) {
      continue;  // on a shortest path
    }
    ASSERT_TRUE(mask.fail(l));
    deltas.push_back(igp::EdgeDelta{link.from, link.to, link.metric, /*removed=*/true});
    deltas.push_back(igp::EdgeDelta{link.to, link.from, rev.metric, /*removed=*/true});
  }
  ASSERT_EQ(deltas.size(), 18u);

  const NetworkView after = NetworkView::from_topology(t, {}, &mask);
  const igp::SpfUpdate update = igp::update_spf(after, before, deltas);
  EXPECT_EQ(update.mode, igp::SpfUpdate::Mode::kFull);
  const igp::SpfResult reference = igp::run_spf(after, 0);
  EXPECT_EQ(update.result.dist, reference.dist);
  EXPECT_EQ(update.result.first_hops, reference.first_hops);
}

}  // namespace
}  // namespace fibbing
