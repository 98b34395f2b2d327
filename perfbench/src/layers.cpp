#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>

#include "core/augment.hpp"
#include "core/requirements.hpp"
#include "core/verify.hpp"
#include "dataplane/fib.hpp"
#include "dataplane/forwarding.hpp"
#include "dataplane/rate_solver.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "proto/codec.hpp"
#include "proto/translate.hpp"
#include "te/minmax.hpp"
#include "topo/link_state.hpp"

namespace perfbench {
namespace {

namespace fib = fibbing;

/// Results of the timed calls land here, so none of them can be optimized away.
volatile std::size_t g_sink = 0;

/// Median seconds per call of `fn` over at least 5 calls and 50 ms.
template <typename Fn>
double time_calls(Fn&& fn) {
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < 5 || (total < 0.05 && samples.size() < 1000)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    samples.push_back(dt);
    total += dt;
  }
  return median(samples);
}

using Demands = std::vector<fib::te::Demand>;

/// Per-prefix demand of the sessions streaming at the peak, by server router.
std::vector<Demands> peak_demands(const Plan& plan) {
  std::vector<std::map<fib::topo::NodeId, double>> by_ingress(plan.prefixes.size());
  for (const std::size_t i : active_sessions(plan, plan.peak_s)) {
    const SessionPlan& s = plan.sessions[i];
    by_ingress[s.prefix][plan.servers[s.server]] += plan.asset.bitrate_bps;
  }
  std::vector<Demands> out(plan.prefixes.size());
  for (std::size_t p = 0; p < by_ingress.size(); ++p) {
    for (const auto& [ingress, bps] : by_ingress[p]) out[p].push_back({ingress, bps});
  }
  return out;
}

double total(const Demands& demands) {
  double sum = 0.0;
  for (const fib::te::Demand& d : demands) sum += d.rate_bps;
  return sum;
}

}  // namespace

LayerTimes time_layers(const Plan& plan, const Capture& capture) {
  LayerTimes out;
  const fib::topo::Topology& topo = plan.topo;
  fib::topo::LinkStateMask mask(topo);
  for (fib::topo::LinkId l = 0; l < capture.down.size(); ++l) {
    if (capture.down[l]) mask.fail(l);
  }
  std::size_t sink = 0;

  // te and core: place the hottest prefix's demand around the others'
  // shortest-path load, then compile and verify that placement.
  const std::vector<Demands> demands = peak_demands(plan);
  std::size_t hot = 0;
  for (std::size_t p = 1; p < demands.size(); ++p) {
    if (total(demands[p]) > total(demands[hot])) hot = p;
  }
  const fib::net::Prefix& prefix = plan.prefixes[hot];
  std::vector<double> background(topo.link_count(), 0.0);
  for (std::size_t p = 0; p < demands.size(); ++p) {
    if (p == hot || demands[p].empty()) continue;
    const std::vector<double> loads =
        fib::te::shortest_path_loads(topo, announcer(plan, p), demands[p], &mask);
    for (std::size_t l = 0; l < loads.size(); ++l) background[l] += loads[l];
  }
  const fib::core::ControllerConfig& controller = plan.config.controller;
  fib::te::MinMaxConfig solve;
  solve.max_stretch = controller.max_stretch;
  solve.link_state = &mask;
  solve.granularity_floor = 1.0 / controller.max_replicas;
  fib::util::Result<fib::te::MinMaxResult> placement =
      fib::util::Result<fib::te::MinMaxResult>::failure("not solved");
  out.te_solve_ms = 1e3 * time_calls([&] {
    placement = fib::te::solve_min_max(topo, announcer(plan, hot), demands[hot],
                                       background, solve);
  });
  if (!placement.ok()) {
    out.failures.push_back("te::solve_min_max failed on " + prefix.to_string() + ": " +
                           placement.error());
    return out;
  }
  const fib::core::DestRequirement req = fib::core::requirement_from_splits(
      prefix, placement.value().splits, controller.max_replicas);
  std::uint64_t next_id = 1;
  std::vector<fib::core::Lie> others;
  std::vector<fib::core::Lie> own;
  for (const fib::core::Lie& lie : capture.lies) {
    next_id = std::max(next_id, lie.id + 2);
    (lie.prefix == prefix ? own : others).push_back(lie);
  }
  fib::core::AugmentConfig augment;
  augment.first_lie_id = next_id;
  augment.link_state = &mask;
  std::optional<fib::core::CompileResult> compiled;
  out.core_compile_ms =
      1e3 * time_calls([&] { compiled = fib::core::compile_lies(topo, req, augment); });
  std::vector<fib::core::Lie> lies = compiled->ok() ? compiled->value().lies : own;
  lies.insert(lies.end(), others.begin(), others.end());
  out.core_verify_ms = 1e3 * time_calls([&] {
    sink += fib::core::verify_augmentation(topo, req, lies, &mask).issues.size();
  });

  // igp: every router's routing table over the captured lie set.
  const fib::igp::NetworkView view = fib::igp::NetworkView::from_topology(
      topo, fib::core::to_externals(capture.lies), &mask);
  out.igp_routes_us = 1e6 / static_cast<double>(topo.node_count()) * time_calls([&] {
    for (fib::topo::NodeId n = 0; n < topo.node_count(); ++n) {
      sink += fib::igp::compute_routes(view, n).size();
    }
  });

  // proto: the session router's whole database as one LS Update.
  const fib::proto::AddressMap addrs(topo);
  fib::proto::LsUpdateBody update;
  for (const fib::igp::LsaPtr& lsa : capture.lsdb) {
    update.lsas.push_back(fib::proto::to_wire(*lsa, addrs));
  }
  fib::proto::Packet packet;
  packet.router_id = addrs.router_id(plan.config.controller.session_router);
  packet.body = std::move(update);
  if (!fib::proto::decode_packet(fib::proto::encode_packet(packet)).ok()) {
    out.failures.push_back("the captured LS Update does not survive encode + decode");
  }
  out.proto_codec_us = 1e6 * time_calls([&] {
    sink += fib::proto::decode_packet(fib::proto::encode_packet(packet)).ok() ? 1 : 0;
  });

  // dataplane: the peak's flows walked over the captured FIBs, then rated.
  std::vector<fib::dataplane::Fib> fibs;
  for (fib::topo::NodeId n = 0; n < topo.node_count(); ++n) {
    fibs.push_back(fib::dataplane::Fib::from_routing_table(topo, n, capture.tables[n]));
  }
  std::vector<fib::dataplane::Flow> flows;
  for (const std::size_t i : active_sessions(plan, plan.peak_s)) {
    const SessionPlan& s = plan.sessions[i];
    fib::dataplane::Flow flow;
    flow.id = i + 1;
    flow.src = server_address(s.server);
    flow.dst = client_address(plan, i);
    flow.src_port = static_cast<std::uint16_t>(20000 + i % 40000);
    flow.dst_port = 8554;
    flow.ingress = plan.servers[s.server];
    flow.demand_bps = plan.asset.bitrate_bps;
    flows.push_back(flow);
  }
  std::vector<fib::dataplane::FlowPath> paths(flows.size());
  const double walk_s = time_calls([&] {
    for (std::size_t f = 0; f < flows.size(); ++f) {
      paths[f] = fib::dataplane::walk_flow(topo, fibs, flows[f], capture.down);
    }
  });
  const auto walked = static_cast<double>(std::max<std::size_t>(flows.size(), 1));
  out.dataplane_walk_us = 1e6 * walk_s / walked;
  std::vector<fib::dataplane::RatedFlow> rated;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    rated.push_back({flows[f].id, flows[f].demand_bps, &paths[f]});
  }
  out.dataplane_rates_us = 1e6 * time_calls([&] {
    sink += fib::dataplane::max_min_rates(topo, rated).size();
  });

  g_sink = sink;
  return out;
}

}  // namespace perfbench
