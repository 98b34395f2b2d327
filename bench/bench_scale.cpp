// Scalability benchmarks (google-benchmark): the building blocks the
// controller runs per reaction, as a function of network size:
//   - one SPF run (Dijkstra + ECMP first hops),
//   - full route computation for one router,
//   - the exact min-max solve,
//   - lie compilation incl. verification,
//   - an end-to-end controller reaction (optimize + compile + verify),
// sized at Waxman graphs of 25..200 routers (ISP scale) -- plus whole-domain
// protocol convergence across ShardPool worker counts, which is what the CI
// perf diff watches for the sharding speedup, and the reconvergence of a
// converged domain after one link flap.

#include <benchmark/benchmark.h>

#include "core/augment.hpp"
#include "core/requirements.hpp"
#include "igp/domain.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "te/minmax.hpp"
#include "topo/generators.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"

using namespace fibbing;

namespace {

struct Instance {
  topo::Topology topo;
  topo::NodeId dest;
  net::Prefix prefix;
  std::vector<te::Demand> demands;
  te::MinMaxConfig solve;
};

Instance make_instance(std::size_t n) {
  util::Rng rng(1000 + n);
  topo::Topology base = topo::make_waxman(n, rng, 0.35, 0.4, 6, 80.0, 250.0);
  Instance inst;
  inst.solve.max_stretch = 2.5;
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
  inst.prefix = net::Prefix(net::Ipv4(203, 0, 113, 0), 24);
  inst.topo.attach_prefix(inst.dest, inst.prefix, 16);
  for (int d = 0; d < 4; ++d) {
    topo::NodeId ingress = static_cast<topo::NodeId>(rng.pick_index(n));
    if (ingress == inst.dest) ingress = (ingress + 1) % static_cast<topo::NodeId>(n);
    inst.demands.push_back(te::Demand{ingress, rng.uniform(60.0, 220.0)});
  }
  return inst;
}

void BM_Spf(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const igp::NetworkView view = igp::NetworkView::from_topology(inst.topo);
  topo::NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(igp::run_spf(view, src));
    src = (src + 1) % static_cast<topo::NodeId>(inst.topo.node_count());
  }
}
BENCHMARK(BM_Spf)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_RouteComputation(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const igp::NetworkView view = igp::NetworkView::from_topology(inst.topo);
  topo::NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(igp::compute_routes(view, src));
    src = (src + 1) % static_cast<topo::NodeId>(inst.topo.node_count());
  }
}
BENCHMARK(BM_RouteComputation)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_MinMaxSolve(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        te::solve_min_max(inst.topo, inst.dest, inst.demands, {}, inst.solve));
  }
}
BENCHMARK(BM_MinMaxSolve)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_CompileLies(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const auto opt = te::solve_min_max(inst.topo, inst.dest, inst.demands, {}, inst.solve);
  if (!opt.ok()) {
    state.SkipWithError("optimizer failed");
    return;
  }
  const auto req = core::requirement_from_splits(inst.prefix, opt.value().splits, 8);
  core::AugmentConfig cfg;
  cfg.reduce = false;  // reduction is O(lies^2) verifications; measured separately
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compile_lies(inst.topo, req, cfg));
  }
}
BENCHMARK(BM_CompileLies)->Arg(25)->Arg(50)->Arg(100);

void BM_ControllerReaction(benchmark::State& state) {
  // One full decision: optimize, round, compile, verify.
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  core::AugmentConfig cfg;
  cfg.reduce = false;
  for (auto _ : state) {
    const auto opt =
        te::solve_min_max(inst.topo, inst.dest, inst.demands, {}, inst.solve);
    if (!opt.ok()) continue;
    const auto req = core::requirement_from_splits(inst.prefix, opt.value().splits, 8);
    benchmark::DoNotOptimize(core::compile_lies(inst.topo, req, cfg));
  }
}
BENCHMARK(BM_ControllerReaction)->Arg(25)->Arg(50)->Arg(100);

void BM_DomainConvergence(benchmark::State& state) {
  // Boot-to-convergence of the full wire-protocol domain: adjacency
  // bring-up, DD synchronization, flooding and SPF for every router. Args:
  // router count, shard (worker thread) count. The near-linear shard
  // speedup is the tentpole claim bench-diffed in CI.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  util::Rng rng(2000 + n);
  topo::Topology t = topo::make_waxman(n, rng, n >= 600 ? 0.05 : 0.2, 0.25, 10);
  t.attach_prefix(0, net::Prefix(net::Ipv4(203, 0, 113, 0), 24), 0);
  util::ShardPool::Stats last{};
  for (auto _ : state) {
    util::EventQueue events;
    igp::IgpDomain domain(t, events, igp::IgpTiming{}, nullptr, shards);
    domain.start();
    domain.run_to_convergence();
    benchmark::DoNotOptimize(domain.total_proto_counters().lsas_sent);
    last = domain.shard_stats();
  }
  state.counters["rounds"] = static_cast<double>(last.rounds);
  state.counters["events"] = static_cast<double>(last.events_run);
  state.counters["xshard"] = static_cast<double>(last.cross_shard_messages);
}
// 300 routers keeps one iteration in the tens of seconds so the perf job
// stays bounded; the 1000-router scale point is covered by shard_test.
BENCHMARK(BM_DomainConvergence)
    ->Args({300, 1})
    ->Args({300, 2})
    ->Args({300, 4})
    ->Args({300, 8})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_LinkFlapReconvergence(benchmark::State& state) {
  // Domain convergence at scale after a change, not from boot: one link
  // fails and the domain reconverges, then it is restored (the adjacency
  // re-forms through its database exchange) and the domain reconverges
  // again. Both endpoints re-originate each time and every router runs SPF
  // over them. One converged domain per size; every iteration flaps the
  // same link, the first whose endpoints each have at least 3 links.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3000 + n);
  topo::Topology t = topo::make_waxman(n, rng, 0.2, 0.25, 10);
  t.attach_prefix(0, net::Prefix(net::Ipv4(203, 0, 113, 0), 24), 0);
  util::EventQueue events;
  igp::IgpDomain domain(t, events);
  domain.start();
  domain.run_to_convergence();
  topo::LinkId flap = 0;
  while (t.out_links(t.link(flap).from).size() < 3 ||
         t.out_links(t.link(flap).to).size() < 3) {
    ++flap;
  }
  const std::uint64_t spf_runs = domain.total_spf_runs();
  const std::uint64_t origins_read = domain.total_spf_origins_read();
  for (auto _ : state) {
    domain.fail_link(flap);
    domain.run_to_convergence();
    domain.restore_link(flap);
    domain.run_to_convergence();
  }
  const auto per_iteration = [](std::uint64_t total) {
    return benchmark::Counter(static_cast<double>(total),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["spf_runs"] = per_iteration(domain.total_spf_runs() - spf_runs);
  state.counters["spf_origins_read"] =
      per_iteration(domain.total_spf_origins_read() - origins_read);
}
BENCHMARK(BM_LinkFlapReconvergence)->Arg(120)->Arg(300)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
