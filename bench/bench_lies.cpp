// Ablation A2: augmentation size and compile cost. The naive Simple
// algorithm emits one External-LSA per required (router, next hop, replica)
// plus pins for pollution victims; the verification-driven reduction pass
// then drops every lie whose removal keeps the augmentation correct
// (Merger-style).
//
// google-benchmark form so CI records a perf baseline per commit
// (--benchmark_format=json artifacts). Counters in the same JSON carry the
// historical A2 table: naive vs reduced lie counts, repair rounds, pinned
// routers, and the required-router count of the compiled requirement.
//
// BM_CompileWarmCache times the controller's path instead: every compile
// plans on one shared igp::RouteCache (AugmentConfig::route_cache), so its
// verify rounds read memoized table sets, and the counters report the
// table-set variants built and evicted per compile.

#include <benchmark/benchmark.h>

#include "core/augment.hpp"
#include "core/requirements.hpp"
#include "igp/route_cache.hpp"
#include "te/minmax.hpp"
#include "topo/generators.hpp"
#include "topo/link_state.hpp"
#include "util/rng.hpp"

using namespace fibbing;

namespace {

struct Instance {
  topo::Topology topo;
  core::DestRequirement req;
};

/// Same instance family as the historical A2 table: a random min-max
/// requirement on a Waxman graph with x4 metrics and announcer headroom.
Instance make_instance(std::size_t n) {
  util::Rng rng(7777 + n);
  topo::Topology base = topo::make_waxman(n, rng, 0.5, 0.5, 6, 80.0, 250.0);
  Instance inst;
  for (topo::NodeId v = 0; v < base.node_count(); ++v) {
    inst.topo.add_node(base.node(v).name);
  }
  for (topo::LinkId l = 0; l < base.link_count(); ++l) {
    const topo::Link& link = base.link(l);
    if (link.from < link.to) {
      inst.topo.add_link(link.from, link.to, link.metric * 4, link.capacity_bps);
    }
  }
  const topo::NodeId dest = static_cast<topo::NodeId>(rng.pick_index(n));
  const net::Prefix prefix(net::Ipv4(198, 51, static_cast<std::uint8_t>(n), 0), 24);
  inst.topo.attach_prefix(dest, prefix, 16);
  std::vector<te::Demand> demands;
  for (int d = 0; d < 4; ++d) {
    topo::NodeId ingress = static_cast<topo::NodeId>(rng.pick_index(n));
    if (ingress == dest) ingress = (ingress + 1) % static_cast<topo::NodeId>(n);
    demands.push_back(te::Demand{ingress, rng.uniform(60.0, 220.0)});
  }
  te::MinMaxConfig config;
  config.max_stretch = 2.5;
  const auto opt = te::solve_min_max(inst.topo, dest, demands, {}, config);
  if (opt.ok()) {
    inst.req = core::requirement_from_splits(prefix, opt.value().splits, 8);
  }
  return inst;
}

void BM_A2_CompileNaive(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  if (inst.req.nodes.empty()) {
    state.SkipWithError("no requirement for this instance");
    return;
  }
  core::AugmentConfig cfg;
  cfg.reduce = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compile_lies(inst.topo, inst.req, cfg));
  }
  const auto aug = core::compile_lies(inst.topo, inst.req, cfg);
  state.counters["compiled"] = aug.ok() ? 1.0 : 0.0;
  if (aug.ok()) {
    state.counters["naive_lies"] = static_cast<double>(aug.value().lies.size());
    state.counters["required_routers"] = static_cast<double>(inst.req.nodes.size());
  }
}
BENCHMARK(BM_A2_CompileNaive)->Arg(14)->Arg(16)->Arg(18)->Arg(20);

void BM_A2_CompileReduced(benchmark::State& state) {
  // The default path: Simple + repair loop + reduction pass (the pass is
  // O(lies^2) verifications -- the gap to BM_A2_CompileNaive is its price).
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  if (inst.req.nodes.empty()) {
    state.SkipWithError("no requirement for this instance");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compile_lies(inst.topo, inst.req));
  }
  const auto aug = core::compile_lies(inst.topo, inst.req);
  state.counters["compiled"] = aug.ok() ? 1.0 : 0.0;
  if (aug.ok()) {
    state.counters["reduced_lies"] = static_cast<double>(aug.value().lies.size());
    state.counters["naive_lies"] =
        static_cast<double>(aug.value().naive_lie_count);
    state.counters["repair_rounds"] =
        static_cast<double>(aug.value().repair_rounds);
    state.counters["pinned_routers"] =
        static_cast<double>(aug.value().pinned_nodes);
  }
}
BENCHMARK(BM_A2_CompileReduced)->Arg(14)->Arg(16)->Arg(18)->Arg(20);

void BM_CompileWarmCache(benchmark::State& state) {
  // The default compile through a shared route cache primed by one untimed
  // compile: what the controller pays per placement attempt once the
  // baseline and the per-source SPFs are memoized.
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  if (inst.req.nodes.empty()) {
    state.SkipWithError("no requirement for this instance");
    return;
  }
  const topo::LinkStateMask mask(inst.topo);
  igp::RouteCache cache(inst.topo, mask);
  core::AugmentConfig cfg;
  cfg.link_state = &mask;
  cfg.route_cache = &cache;
  const auto primed = core::compile_lies(inst.topo, inst.req, cfg);
  const igp::RouteCacheStats before = cache.stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compile_lies(inst.topo, inst.req, cfg));
  }
  const igp::RouteCacheStats after = cache.stats();
  state.counters["compiled"] = primed.ok() ? 1.0 : 0.0;
  state.counters["table_builds"] =
      benchmark::Counter(static_cast<double>(after.table_builds - before.table_builds),
                         benchmark::Counter::kAvgIterations);
  state.counters["memo_evictions"] = benchmark::Counter(
      static_cast<double>(after.memo_evictions - before.memo_evictions),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CompileWarmCache)->Arg(14)->Arg(16)->Arg(18)->Arg(20);

}  // namespace

BENCHMARK_MAIN();
