// Ablation A1 (reaction time vs detection path) plus a correlated
// multi-prefix batch, as google-benchmark JSON so the CI perf diff
// (scripts/compare_bench.py) tracks wall-clock and counters run over run.
//
//   - BM_ReactionTime/{proactive,poll_ds}: how fast the controller removes
//     congestion as a function of how it learns about the surge. The
//     `mitigated_at_s` counter is the absolute sim time of the first
//     mitigation after the t=15 surge (the paper's sub-second-reaction
//     claim); `stalled` counts sessions that ever stalled. Control-loop
//     tracing is on, and the trace-derived reaction breakdown
//     (trace.reaction.<stage>_s_{p50,p99}) is exported as counters, so the
//     perf diff flags latency-percentile regressions growth-only.
//   - BM_CorrelatedBatch: a correlated flash crowd dirties 8 prefixes at
//     once on a 40-router Waxman graph, so the controller places an
//     8-member batch, one member at a time in demand order; the counters
//     pin the work done per run.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <map>
#include <string>

#include "core/service.hpp"
#include "topo/generators.hpp"
#include "util/rng.hpp"
#include "video/flash_crowd.hpp"

using namespace fibbing;

namespace {

struct Outcome {
  double mitigation_time = -1.0;  // absolute sim time of the first mitigation
  int stalled = 0;
  std::map<std::string, double> telemetry;
};

Outcome run_reaction(bool proactive, double poll_interval_s, int hold_rounds) {
  const topo::PaperTopology p = topo::make_paper_topology();
  core::ServiceConfig config;
  config.controller.proactive = proactive;
  config.controller.high_watermark = 0.7;
  config.controller.low_watermark = 0.4;
  config.controller.hold_rounds = hold_rounds;
  config.controller.session_router = p.r3;
  config.poll_interval_s = poll_interval_s;
  config.tracing = true;
  core::FibbingService service(p.topo, config);
  service.boot();
  const auto s1 = service.video().add_server({"S1", p.b, net::Ipv4(198, 18, 1, 1)});
  const auto s2 = service.video().add_server({"S2", p.a, net::Ipv4(198, 18, 2, 1)});
  video::schedule_requests(
      service.video(), service.events(),
      video::fig2_schedule(s1, s2, p.p1, p.p2, video::VideoAsset{1e6, 300.0}));

  Outcome out;
  // Poll the mitigation counter frequently to timestamp the first reaction.
  for (double t = 15.0; t <= 40.0; t += 0.05) {
    service.events().schedule_at(t, [&service, &out, t] {
      if (out.mitigation_time < 0 && service.controller().mitigations() > 0) {
        out.mitigation_time = t;
      }
    });
  }
  service.run_until(60.0);
  for (const auto& q : service.video().all_qoe()) {
    if (q.stall_count > 0) ++out.stalled;
  }
  out.telemetry = service.telemetry_snapshot();
  return out;
}

/// range(0): 1 = proactive (server notices), 0 = SNMP-only.
/// range(1): polling interval in deciseconds.
void BM_ReactionTime(benchmark::State& state) {
  const bool proactive = state.range(0) == 1;
  const double poll = static_cast<double>(state.range(1)) / 10.0;
  Outcome last;
  for (auto _ : state) {
    last = run_reaction(proactive, poll, /*hold_rounds=*/2);
    benchmark::DoNotOptimize(last);
  }
  state.counters["mitigated_at_s"] = last.mitigation_time;
  state.counters["stalled"] = last.stalled;
  // Trace-derived reaction percentiles: virtual-clock offsets from each
  // mitigation's root cause to each stage (keys are latency-suffixed, so
  // compare_bench.py treats growth as a regression and shrink as a win).
  for (const auto& [key, value] : last.telemetry) {
    if (key.rfind("trace.reaction.", 0) == 0 &&
        (key.ends_with("_p50") || key.ends_with("_p99"))) {
      state.counters[key] = value;
    }
  }
}

BENCHMARK(BM_ReactionTime)
    ->Args({1, 10})  // proactive, poll irrelevant
    ->Args({0, 5})   // SNMP only, 0.5 s polls
    ->Args({0, 10})
    ->Args({0, 20})
    ->Args({0, 50})
    ->Unit(benchmark::kMillisecond);

struct FanoutOutcome {
  int mitigations = 0;
  int solves = 0;
  std::size_t lies = 0;
};

/// Correlated-join flash crowd: one server, 8 hot prefixes surging in the
/// same instant, so the first evaluation mitigates an 8-member batch.
FanoutOutcome run_fanout() {
  util::Rng rng(99);
  topo::Topology t = topo::make_waxman(40, rng, 0.5, 0.5, 8);
  constexpr int kPrefixes = 8;
  for (int i = 0; i < kPrefixes; ++i) {
    t.attach_prefix(static_cast<topo::NodeId>(rng.pick_index(t.node_count())),
                    net::Prefix(net::Ipv4(203, 0, static_cast<std::uint8_t>(i), 0),
                                24));
  }
  core::ServiceConfig config;
  config.controller.high_watermark = 0.05;
  config.controller.low_watermark = 0.02;
  config.controller.session_router = 0;
  core::FibbingService service(t, config);
  service.boot();
  const auto server =
      service.video().add_server({"S", 0, net::Ipv4(198, 18, 9, 1)});
  // 4 x 500 Mb/s per prefix: 2 Gb/s against 10-40 Gb/s links, hot at the
  // 0.05 watermark wherever a few prefixes share a link.
  const video::VideoAsset asset{500e6, 3600.0};
  for (int i = 0; i < kPrefixes; ++i) {
    const net::Prefix& prefix = t.prefixes()[static_cast<std::size_t>(i)].prefix;
    for (std::uint32_t c = 0; c < 4; ++c) {
      service.video().start_session(server, prefix, prefix.host(1 + c), asset);
    }
  }
  service.run_until(20.0);

  FanoutOutcome out;
  out.mitigations = service.controller().mitigations();
  out.solves = service.controller().placement_solves();
  out.lies = service.controller().active_lie_count();
  return out;
}

void BM_CorrelatedBatch(benchmark::State& state) {
  FanoutOutcome last;
  for (auto _ : state) {
    last = run_fanout();
    benchmark::DoNotOptimize(last);
  }
  state.counters["mitigations"] = last.mitigations;
  state.counters["placement_solves"] = last.solves;
  state.counters["active_lies"] = static_cast<double>(last.lies);
}

BENCHMARK(BM_CorrelatedBatch)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
