// Claim C2 (paper Sec. 2): "Fibbing can thus theoretically implement the
// optimal solution to the min-max link utilization problem", while plain
// ECMP cannot (even splits only) and pure shortest paths do far worse.
//
// google-benchmark form so CI records a perf baseline per commit
// (--benchmark_format=json artifacts). The claim aggregates ride along as
// counters in the same JSON:
//   spf_theta / opt_theta   -- shortest-path vs optimal max utilization,
//   fib_theta               -- utilization of the compiled lie set's routes,
//   verified                -- 1 when the augmentation verifies exactly.
// Timed paths: the exact solve, the production solve (degeneracy-breaking
// refinement on), one fallback-ladder re-solve (theta relaxed, support
// restricted), and the full optimize -> round -> compile -> verify chain.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/augment.hpp"
#include "core/loads.hpp"
#include "core/requirements.hpp"
#include "core/verify.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "te/minmax.hpp"
#include "topo/generators.hpp"
#include "util/rng.hpp"

using namespace fibbing;

namespace {

struct Instance {
  topo::Topology topo;
  topo::NodeId dest;
  net::Prefix prefix;
  std::vector<te::Demand> demands;
};

/// Same instance family as the historical C2 table: Waxman graphs with x4
/// metrics (granularity headroom) and a redistribution metric at the
/// announcer, 4 random single-destination surges.
Instance make_instance(std::size_t n) {
  util::Rng rng(20160822 + n);  // SIGCOMM'16 demo day
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
  inst.dest = static_cast<topo::NodeId>(rng.pick_index(n));
  inst.prefix = net::Prefix(net::Ipv4(203, 0, static_cast<std::uint8_t>(n), 0), 24);
  inst.topo.attach_prefix(inst.dest, inst.prefix, 16);
  for (int d = 0; d < 4; ++d) {
    topo::NodeId ingress = static_cast<topo::NodeId>(rng.pick_index(n));
    if (ingress == inst.dest) ingress = (ingress + 1) % static_cast<topo::NodeId>(n);
    inst.demands.push_back(te::Demand{ingress, rng.uniform(60.0, 220.0)});
  }
  return inst;
}

void BM_C2_SolveExact(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  te::MinMaxConfig config;
  config.max_stretch = 2.5;
  config.refine = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        te::solve_min_max(inst.topo, inst.dest, inst.demands, {}, config));
  }
  const auto opt = te::solve_min_max(inst.topo, inst.dest, inst.demands, {}, config);
  if (opt.ok()) {
    state.counters["opt_theta"] = opt.value().theta;
    state.counters["spf_theta"] =
        te::shortest_path_max_utilization(inst.topo, inst.dest, inst.demands);
  }
}
BENCHMARK(BM_C2_SolveExact)->Arg(12)->Arg(16)->Arg(20);

void BM_C2_SolveRefined(benchmark::State& state) {
  // The production path: degeneracy-breaking refinement at theta*.
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  te::MinMaxConfig config;
  config.max_stretch = 2.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        te::solve_min_max(inst.topo, inst.dest, inst.demands, {}, config));
  }
  const auto opt = te::solve_min_max(inst.topo, inst.dest, inst.demands, {}, config);
  if (opt.ok()) {
    state.counters["spf_ties_added"] =
        static_cast<double>(opt.value().spf_ties_added);
    state.counters["slivers_removed"] =
        static_cast<double>(opt.value().slivers_removed);
    state.counters["tie_complete"] = opt.value().tie_complete ? 1.0 : 0.0;
  }
}
BENCHMARK(BM_C2_SolveRefined)->Arg(12)->Arg(16)->Arg(20);

void BM_C2_FallbackLadderStep(benchmark::State& state) {
  // One rung of the controller's granularity ladder: re-solve with theta
  // relaxed, restricted to the compilable support.
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  te::MinMaxConfig config;
  config.max_stretch = 2.5;
  const auto base = te::solve_min_max(inst.topo, inst.dest, inst.demands, {}, config);
  if (!base.ok()) {
    state.SkipWithError("base solve failed");
    return;
  }
  config.theta_relax = 0.25;
  config.support = te::shortest_path_dag(inst.topo, inst.dest);
  for (topo::LinkId l = 0; l < inst.topo.link_count(); ++l) {
    if (base.value().link_flow[l] > 1e-6) config.support[l] = true;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        te::solve_min_max(inst.topo, inst.dest, inst.demands, {}, config));
  }
  const auto relaxed =
      te::solve_min_max(inst.topo, inst.dest, inst.demands, {}, config);
  if (relaxed.ok()) {
    state.counters["theta_over_opt"] =
        relaxed.value().theta / std::max(relaxed.value().theta_opt, 1e-12);
  }
}
BENCHMARK(BM_C2_FallbackLadderStep)->Arg(12)->Arg(16)->Arg(20);

void BM_C2_OptimizeCompileVerify(benchmark::State& state) {
  // The full C2 chain; counters carry the historical claim table's
  // aggregates (SPF/Fibbing improvement, Fibbing/optimal rounding gap).
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  te::MinMaxConfig config;
  config.max_stretch = 2.5;
  for (auto _ : state) {
    const auto opt =
        te::solve_min_max(inst.topo, inst.dest, inst.demands, {}, config);
    if (!opt.ok()) continue;
    const auto req = core::requirement_from_splits(inst.prefix, opt.value().splits, 8);
    benchmark::DoNotOptimize(core::compile_lies(inst.topo, req));
  }

  const auto opt = te::solve_min_max(inst.topo, inst.dest, inst.demands, {}, config);
  if (!opt.ok()) return;
  const auto req = core::requirement_from_splits(inst.prefix, opt.value().splits, 8);
  const auto aug = core::compile_lies(inst.topo, req);
  state.counters["compiled"] = aug.ok() ? 1.0 : 0.0;
  if (!aug.ok()) return;
  state.counters["verified"] =
      core::verify_augmentation(inst.topo, req, aug.value().lies).ok() ? 1.0 : 0.0;
  const auto tables = igp::compute_all_routes(
      igp::NetworkView::from_topology(inst.topo, core::to_externals(aug.value().lies)));
  const auto load = core::loads_from_routes(
      inst.topo, igp::column_of(tables, inst.prefix), inst.prefix, inst.demands);
  double fib_theta = 0.0;
  for (topo::LinkId l = 0; l < inst.topo.link_count(); ++l) {
    fib_theta = std::max(fib_theta, load[l] / inst.topo.link(l).capacity_bps);
  }
  const double spf =
      te::shortest_path_max_utilization(inst.topo, inst.dest, inst.demands);
  state.counters["fib_theta"] = fib_theta;
  state.counters["spf_over_fib"] = spf / std::max(fib_theta, 1e-12);
  state.counters["fib_over_opt"] =
      fib_theta / std::max(opt.value().theta_opt, 1e-12);
}
BENCHMARK(BM_C2_OptimizeCompileVerify)->Arg(12)->Arg(16)->Arg(20);

}  // namespace

BENCHMARK_MAIN();
