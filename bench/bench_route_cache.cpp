// Route-computation hot path: the controller recomputing all-pairs route
// tables per candidate lie set (the pre-cache behaviour) vs the versioned
// RouteCache (exact memo + lie-delta patching + incremental SPF).
//
// The workload is a repeated-mitigation scenario on a >= 50-router Waxman
// graph, shaped like Controller::mitigate_ actually drives it: per round
// one evaluation (tables for the full lie set), then for each hot prefix a
// background table set (all lies except it) and a verify-style pair
// (baseline vs candidate), with the candidate committed; every few rounds
// an adjacency flips so the topology version moves. Fresh and cached
// variants execute the identical request sequence, so the time ratio is
// the cache's speedup on the hot path (the acceptance bar is >= 3x).
//
// Counters: table sets served per second (both), and for the cached
// variant the memo hits, patch builds, and full / incremental / no-op SPF
// work actually performed.
//
// BM_ColumnBuild times the kernel under one patch build alone: one prefix's
// column for a k-lie set, every router's route entry.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "igp/route_cache.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "topo/generators.hpp"
#include "topo/link_state.hpp"
#include "util/rng.hpp"

using namespace fibbing;

namespace {

constexpr int kHotPrefixes = 3;

struct Scenario {
  topo::Topology topo;
  std::vector<net::Prefix> prefixes;
  std::vector<topo::LinkId> flippable;  // adjacencies cycled down/up
};

Scenario make_scenario(std::size_t n) {
  util::Rng rng(4242 + n);
  Scenario s;
  s.topo = topo::make_waxman(n, rng, 0.5, 0.5, 8);
  for (int i = 0; i < 6; ++i) {
    const net::Prefix p(net::Ipv4(203, 0, static_cast<std::uint8_t>(i), 0), 24);
    s.topo.attach_prefix(static_cast<topo::NodeId>(rng.pick_index(n)), p);
    s.prefixes.push_back(p);
  }
  for (int i = 0; i < 4; ++i) {
    s.flippable.push_back(
        static_cast<topo::LinkId>(rng.pick_index(s.topo.link_count())));
  }
  return s;
}

/// A lie-shaped external steering into link `l` (forwarding address of the
/// far-end interface).
igp::NetworkView::External lie_toward(const Scenario& s, topo::LinkId l,
                                      const net::Prefix& prefix,
                                      topo::Metric metric, std::uint64_t id) {
  const topo::LinkId rev = s.topo.link(l).reverse;
  return igp::NetworkView::External{id, prefix, metric, s.topo.link(rev).local_addr};
}

using Externals = std::vector<igp::NetworkView::External>;
using TablesFn = std::function<void(const Externals&)>;

/// One mitigation round, identical for both variants: `serve` receives
/// every table-set request the controller pipeline would issue. Returns
/// the number of requests made.
int mitigation_round(const Scenario& s, topo::LinkStateMask& mask, int round,
                     std::vector<Externals>& placed, const TablesFn& serve) {
  int requests = 0;
  if (round % 5 == 4) {
    // Topology churn: cycle one adjacency down / back up.
    const topo::LinkId l = s.flippable[(round / 5) % s.flippable.size()];
    if (!mask.fail(l)) mask.restore(l);
  }

  const auto all_lies = [&] {
    Externals all;
    for (const Externals& lies : placed) all.insert(all.end(), lies.begin(), lies.end());
    return all;
  };

  // Evaluation: predicted loads on the current forwarding state.
  serve(all_lies());
  ++requests;

  for (int k = 0; k < kHotPrefixes; ++k) {
    const std::size_t p = (round + k) % s.prefixes.size();
    // Background: every other prefix's lies.
    Externals others;
    for (std::size_t q = 0; q < placed.size(); ++q) {
      if (q == p) continue;
      others.insert(others.end(), placed[q].begin(), placed[q].end());
    }
    serve(others);
    ++requests;

    // New candidate placement for p (the lie set drifts round over round,
    // like re-solved splits do), verified against the background.
    Externals candidate;
    const topo::NodeId attach = s.topo.prefixes()[p].node;
    const auto& out = s.topo.out_links(attach == 0 ? 1 : attach - 1);
    for (std::size_t i = 0; i < 2 && i < out.size(); ++i) {
      candidate.push_back(lie_toward(
          s, out[i], s.prefixes[p],
          static_cast<topo::Metric>(2 + (round + static_cast<int>(i)) % 5),
          static_cast<std::uint64_t>(round) * 100 + static_cast<std::uint64_t>(i)));
    }
    Externals augmented = others;
    augmented.insert(augmented.end(), candidate.begin(), candidate.end());
    serve(augmented);  // verify: augmented vs the `others` baseline above
    ++requests;
    placed[p] = std::move(candidate);
  }
  return requests;
}

void run_variant(benchmark::State& state, std::size_t n, bool cached) {
  const Scenario s = make_scenario(n);
  topo::LinkStateMask mask(s.topo);
  igp::RouteCache cache(s.topo, mask);
  const TablesFn fresh = [&](const Externals& externals) {
    benchmark::DoNotOptimize(igp::compute_all_routes(
        igp::NetworkView::from_topology(s.topo, externals, &mask)));
  };
  const TablesFn via_cache = [&](const Externals& externals) {
    benchmark::DoNotOptimize(cache.tables(externals));
  };

  std::vector<Externals> placed(s.prefixes.size());
  int round = 0;
  std::int64_t requests = 0;
  for (auto _ : state) {
    requests += mitigation_round(s, mask, round++, placed,
                                 cached ? via_cache : fresh);
  }
  state.counters["table_sets"] =
      benchmark::Counter(static_cast<double>(requests), benchmark::Counter::kIsRate);
  if (cached) {
    // Per-iteration averages, so the counters are comparable across runs
    // with different iteration counts (the CI perf diff tracks them).
    const igp::RouteCacheStats& st = cache.stats();
    const auto per_round = [](std::uint64_t v) {
      return benchmark::Counter(static_cast<double>(v),
                                benchmark::Counter::kAvgIterations);
    };
    state.counters["memo_hits"] = per_round(st.table_hits);
    state.counters["patch_builds"] = per_round(st.table_builds);
    state.counters["spf_full"] = per_round(st.spf_full);
    state.counters["spf_incremental"] = per_round(st.spf_incremental);
    state.counters["spf_unchanged"] = per_round(st.spf_unchanged);
  }
}

void BM_RepeatedMitigationFresh(benchmark::State& state) {
  run_variant(state, static_cast<std::size_t>(state.range(0)), /*cached=*/false);
}

void BM_RepeatedMitigationCached(benchmark::State& state) {
  run_variant(state, static_cast<std::size_t>(state.range(0)), /*cached=*/true);
}

BENCHMARK(BM_RepeatedMitigationFresh)->Arg(60)->Arg(100)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RepeatedMitigationCached)->Arg(60)->Arg(100)->Unit(benchmark::kMillisecond);

/// SRLG sweep: a shared-risk group of `srlg_size` adjacencies fails and is
/// repaired between cached queries with a standing lie set, on a 100-router
/// graph. The batched multi-link delta must keep these on the incremental
/// path: `spf_batched` > 0 and `spf_full` flat (cold builds only) is the
/// acceptance signal the CI perf diff tracks.
void BM_SrlgFailoverCached(benchmark::State& state) {
  const auto srlg = static_cast<std::size_t>(state.range(0));
  const Scenario s = make_scenario(100);
  topo::LinkStateMask mask(s.topo);
  igp::RouteCache cache(s.topo, mask);

  // Standing lies: two per prefix, steering out of a neighbor of the
  // attachment point (round-over-round stable; only the topology churns).
  Externals lies;
  std::uint64_t id = 1;
  for (std::size_t p = 0; p < s.prefixes.size(); ++p) {
    const topo::NodeId attach = s.topo.prefixes()[p].node;
    const auto& out = s.topo.out_links(attach == 0 ? 1 : attach - 1);
    for (std::size_t i = 0; i < 2 && i < out.size(); ++i) {
      lies.push_back(lie_toward(s, out[i], s.prefixes[p],
                                static_cast<topo::Metric>(2 + i), id++));
    }
  }

  // One conduit's fiber group, fixed across iterations (one id per pair).
  util::Rng rng(1717);
  std::vector<topo::LinkId> group;
  while (group.size() < srlg) {
    const auto l = static_cast<topo::LinkId>(rng.pick_index(s.topo.link_count()));
    const topo::LinkId fwd = std::min(l, s.topo.link(l).reverse);
    bool dup = false;
    for (const topo::LinkId g : group) dup = dup || g == fwd;
    if (!dup) group.push_back(fwd);
  }

  benchmark::DoNotOptimize(cache.tables(lies));  // cold build outside the loop
  for (auto _ : state) {
    for (const topo::LinkId l : group) mask.fail(l);
    benchmark::DoNotOptimize(cache.tables(lies));
    for (const topo::LinkId l : group) mask.restore(l);
    benchmark::DoNotOptimize(cache.tables(lies));
  }
  const igp::RouteCacheStats& st = cache.stats();
  const auto per_round = [](std::uint64_t v) {
    return benchmark::Counter(static_cast<double>(v),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["spf_batched"] = per_round(st.spf_batched);
  state.counters["spf_full"] = per_round(st.spf_full);
  state.counters["spf_incremental"] = per_round(st.spf_incremental);
  state.counters["spf_unchanged"] = per_round(st.spf_unchanged);
}

BENCHMARK(BM_SrlgFailoverCached)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

/// One memo-miss column build on a 60-router graph: a lie set of `k` lies
/// for one prefix alternates with a variant one ext metric apart through a
/// one-entry memo, so every query builds exactly that prefix's column
/// (resolving the k forwarding addresses, then one route entry per router)
/// from the memoized SPFs. This is the kernel inside every placement
/// attempt's verify rounds; `table_builds` per query must stay 1.
void BM_ColumnBuild(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const Scenario s = make_scenario(60);
  topo::LinkStateMask mask(s.topo);
  igp::RouteCache cache(s.topo, mask, /*memo_capacity=*/1);
  Externals variants[2];
  for (std::size_t i = 0; i < k; ++i) {
    const auto l = static_cast<topo::LinkId>((i * 37) % s.topo.link_count());
    variants[0].push_back(lie_toward(s, l, s.prefixes[0],
                                     static_cast<topo::Metric>(2 + i % 4), i + 1));
  }
  variants[1] = variants[0];
  variants[1].back().ext_metric += 1;

  benchmark::DoNotOptimize(cache.tables(variants[1]));  // SPFs and baseline
  const std::uint64_t builds_before = cache.stats().table_builds;
  std::size_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(cache.tables(variants[i++ % 2]));
  state.counters["table_builds"] =
      benchmark::Counter(static_cast<double>(cache.stats().table_builds - builds_before),
                         benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_ColumnBuild)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
