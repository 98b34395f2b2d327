// Claim C1 (paper Sec. 2): Fibbing programs per-destination multipath
// "with very limited control-plane overhead" and "no data-plane overhead",
// unlike MPLS RSVP-TE which needs tunnels, per-router LSP state and
// per-packet encapsulation.
//
// As google-benchmark JSON so the CI perf diff (scripts/compare_bench.py)
// pins the counters run over run:
//   - BM_OverheadC1/{scenario}: for the same min-max placement (paper demo
//     network and the Abilene-like WAN, sweeping surged ingresses), the
//     Fibbing footprint (external LSAs injected, LSA transmissions to flood
//     them, per-router extra FIB slots, 0 B encap) against the RSVP-TE
//     footprint (tunnels, per-router LSP state, Path/Resv setup messages,
//     label bytes per packet).
//   - BM_TelemetryOverhead/{tracing}: the full Fig. 2 control loop through
//     FibbingService with ServiceConfig::tracing off (0) vs on (1). The
//     pair's real_time difference is the whole-loop cost of the trace
//     recorder -- the observability layer's budget is < 2% -- and the
//     counters pin that both runs did identical mitigation work.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/augment.hpp"
#include "core/requirements.hpp"
#include "core/service.hpp"
#include "igp/domain.hpp"
#include "te/minmax.hpp"
#include "te/mpls.hpp"
#include "topo/generators.hpp"
#include "util/event_queue.hpp"
#include "video/flash_crowd.hpp"

using namespace fibbing;

namespace {

struct Scenario {
  std::string name;
  topo::Topology topo;
  topo::NodeId dest;
  net::Prefix prefix;
  std::vector<te::Demand> demands;
};

/// Scenario 0-1: the paper demo network (one and two surged ingresses);
/// scenario 2-6: the Abilene-like WAN with 1..5 surged ingresses toward a
/// viral prefix cached at KC.
Scenario make_scenario(int index) {
  if (index < 2) {
    const topo::PaperTopology p = topo::make_paper_topology(100.0);
    if (index == 0) {
      return Scenario{"demo_surge_B", p.topo, p.c, p.p1, {{p.b, 100.0}}};
    }
    return Scenario{"demo_surges_A_B", p.topo, p.c, p.p1,
                    {{p.a, 100.0}, {p.b, 100.0}}};
  }
  const int ingresses = index - 1;  // 1..5
  topo::Topology wan = topo::make_abilene(10e9);
  const topo::NodeId cache = wan.node_id("KC");
  const net::Prefix viral(net::Ipv4(203, 0, 113, 0), 24);
  wan.attach_prefix(cache, viral, 10);
  static const char* kSources[] = {"NY", "LAX", "ATL", "SEA", "CHI"};
  Scenario s;
  s.name = "abilene_" + std::to_string(ingresses) + "_ingress";
  s.dest = cache;
  s.prefix = viral;
  for (int i = 0; i < ingresses; ++i) {
    s.demands.push_back(te::Demand{wan.node_id(kSources[i]), 6e9});
  }
  s.topo = std::move(wan);
  return s;
}

struct C1Outcome {
  std::size_t lies = 0;
  std::uint64_t lsa_tx = 0;
  std::size_t fib_slots = 0;
  te::MplsOverhead mpls{};
};

C1Outcome run_c1(const Scenario& s) {
  C1Outcome out;
  te::MinMaxConfig config;
  config.max_stretch = 2.0;
  const auto solution = te::solve_min_max(s.topo, s.dest, s.demands, {}, config);
  if (!solution.ok()) return out;
  const core::DestRequirement req =
      core::requirement_from_splits(s.prefix, solution.value().splits, 8);

  // --- Fibbing side ---------------------------------------------------------
  const auto compiled = core::compile_lies(s.topo, req);
  if (!compiled.ok()) return out;
  // Count actual flooding cost by injecting into a live domain.
  util::EventQueue events;
  igp::IgpDomain domain(s.topo, events);
  domain.start();
  domain.run_to_convergence();
  const std::uint64_t before = domain.total_proto_counters().lsas_sent;
  for (const core::Lie& lie : compiled.value().lies) {
    domain.inject_external(0, core::to_lsa(lie));
  }
  domain.run_to_convergence();
  out.lsa_tx = domain.total_proto_counters().lsas_sent - before;
  out.lies = compiled.value().lies.size();
  out.fib_slots = out.lies;  // each replica occupies one FIB slot at its attach router

  // --- RSVP-TE side ---------------------------------------------------------
  const auto tunnels =
      te::tunnels_from_splits(s.topo, solution.value(), s.demands, s.dest);
  out.mpls = te::account_overhead(tunnels);
  return out;
}

void BM_OverheadC1(benchmark::State& state) {
  const Scenario s = make_scenario(static_cast<int>(state.range(0)));
  C1Outcome last;
  for (auto _ : state) {
    last = run_c1(s);
    benchmark::DoNotOptimize(last);
  }
  state.SetLabel(s.name);
  state.counters["lies"] = static_cast<double>(last.lies);
  state.counters["lsa_tx"] = static_cast<double>(last.lsa_tx);
  state.counters["fib_slots"] = static_cast<double>(last.fib_slots);
  state.counters["encap_bytes_per_pkt"] = 0.0;
  state.counters["rsvp_lsps"] = static_cast<double>(last.mpls.tunnels);
  state.counters["rsvp_state"] = static_cast<double>(last.mpls.state_entries);
  state.counters["rsvp_msgs"] = static_cast<double>(last.mpls.setup_messages);
  state.counters["rsvp_encap_bytes_per_pkt"] = last.mpls.encap_bytes_per_packet;
}

BENCHMARK(BM_OverheadC1)
    ->DenseRange(0, 6)
    ->Unit(benchmark::kMillisecond);

struct Fig2Outcome {
  int mitigations = 0;
  std::size_t trace_events = 0;
};

/// The whole Fig. 2 flash-crowd loop (60 simulated seconds: surge at t=15,
/// second surge at t=35, controller mitigates through the emulated IGP),
/// with the control-loop trace recorder off or on.
Fig2Outcome run_fig2(bool tracing) {
  const topo::PaperTopology p = topo::make_paper_topology();
  core::ServiceConfig config;
  config.controller.high_watermark = 0.7;
  config.controller.low_watermark = 0.4;
  config.controller.session_router = p.r3;
  config.tracing = tracing;
  core::FibbingService service(p.topo, config);
  service.boot();
  const auto s1 = service.video().add_server({"S1", p.b, net::Ipv4(198, 18, 1, 1)});
  const auto s2 = service.video().add_server({"S2", p.a, net::Ipv4(198, 18, 2, 1)});
  video::schedule_requests(
      service.video(), service.events(),
      video::fig2_schedule(s1, s2, p.p1, p.p2, video::VideoAsset{1e6, 300.0}));
  service.run_until(60.0);

  Fig2Outcome out;
  out.mitigations = service.controller().mitigations();
  out.trace_events = service.tracer().events().size();
  return out;
}

/// range(0): 0 = tracing off (single-branch no-op path), 1 = tracing on.
void BM_TelemetryOverhead(benchmark::State& state) {
  const bool tracing = state.range(0) == 1;
  Fig2Outcome last;
  for (auto _ : state) {
    last = run_fig2(tracing);
    benchmark::DoNotOptimize(last);
  }
  state.counters["mitigations"] = last.mitigations;
  state.counters["trace_events"] = static_cast<double>(last.trace_events);
}

BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
