#include "core/service.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>

#include "dataplane/fib.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace fibbing::core {

FibbingService::FibbingService(const topo::Topology& topo, ServiceConfig config)
    : topo_(topo),
      link_state_(std::make_shared<topo::LinkStateMask>(topo)),
      tracer_(config.tracing),
      domain_(topo, events_, config.igp_timing, link_state_, config.igp_shards),
      sim_(topo, events_, link_state_),
      poller_(topo, sim_, events_, config.poll_interval_s, config.poll_ewma_alpha),
      video_(topo, sim_, events_, bus_) {
  domain_.set_tracer(&tracer_);
  // Router control planes program the data plane. The table flip is a
  // trace's terminal stage: stamp it for every trace whose lies this
  // router's SPF just consumed (driving thread, at the round barrier,
  // after the domain flushed the lanes -- so install/SPF precede it).
  domain_.set_on_table_change([this](topo::NodeId node, const igp::RoutingTable& table) {
    if (tracer_.enabled()) {
      std::set<std::uint64_t> stamped;
      for (const std::uint64_t lie : domain_.router(node).last_spf_trace_lies()) {
        const std::uint64_t trace = tracer_.trace_for_lie(lie);
        if (trace == 0 || !stamped.insert(trace).second) continue;
        tracer_.emit(events_.now(), trace, obs::Stage::kTableFlip, 'i',
                     static_cast<std::uint32_t>(node), lie);
      }
    }
    sim_.set_fib(node, dataplane::Fib::from_routing_table(topo_, node, table));
  });
  // Protocol-detected liveness feeds the shared mask: when a router's
  // RouterDeadInterval expires (or a 1-way Hello tears an adjacency down),
  // the mask marks the link and every layer reacts exactly as it would to
  // an administrative fail_link -- data plane re-walk, controller
  // re-planning -- without anyone calling fail_link. Up-transitions are
  // NOT mapped back: an adjacency re-reaching Full only matters if the
  // operator (or the failure model) has restored the link already, and a
  // heal of a *one-way* loss must not restore a mask someone failed.
  domain_.set_on_liveness_change([this](topo::LinkId link, bool down) {
    if (down) link_state_->fail(link);
  });
  controller_ = std::make_unique<Controller>(topo, domain_, bus_, events_,
                                             config.controller);
  controller_->set_tracer(&tracer_);
  // SNMP snapshots drive the controller's congestion detector.
  poller_.subscribe([this](const std::vector<monitor::LinkLoad>& loads) {
    controller_->on_loads(loads);
  });
  register_metrics_();
}

void FibbingService::register_metrics_() {
  // Every layer's ad-hoc counters, adopted as thin callback reads under one
  // namespaced key space. The components keep their structs and accessors;
  // the registry evaluates these on the snapshotting thread only, between
  // rounds, which is exactly when the underlying state is stable.
  const auto register_callback = [this](const std::string& name,
                                        std::function<double()> fn) {
    registry_.register_callback(name, std::move(fn));
  };
  register_callback("controller.mitigations", [this] { return double(controller_->mitigations()); });
  register_callback("controller.retractions", [this] { return double(controller_->retractions()); });
  register_callback("controller.relaxed_placements",
      [this] { return double(controller_->relaxed_placements()); });
  register_callback("controller.topology_events",
      [this] { return double(controller_->topology_events()); });
  register_callback("controller.placement_solves",
      [this] { return double(controller_->placement_solves()); });
  register_callback("controller.active_lies",
      [this] { return double(controller_->active_lie_count()); });
  register_callback("igp.lsas_sent", [this] { return double(domain_.total_lsas_sent()); });
  register_callback("igp.spf_runs", [this] { return double(domain_.total_spf_runs()); });
  register_callback("igp.spf_incremental_runs",
      [this] { return double(domain_.total_spf_incremental_runs()); });
  register_callback("igp.spf_origins_read",
      [this] { return double(domain_.total_spf_origins_read()); });
  register_callback("proto.packets_sent",
      [this] { return double(domain_.total_proto_counters().packets_sent); });
  register_callback("proto.bytes_sent",
      [this] { return double(domain_.total_proto_counters().bytes_sent); });
  register_callback("proto.hellos_sent",
      [this] { return double(domain_.total_proto_counters().hellos_sent); });
  register_callback("proto.lsus_sent",
      [this] { return double(domain_.total_proto_counters().lsus_sent); });
  register_callback("proto.lsas_sent",
      [this] { return double(domain_.total_proto_counters().lsas_sent); });
  register_callback("proto.retransmissions",
      [this] { return double(domain_.total_proto_counters().retransmissions); });
  const auto southbound = [this]() -> const proto::ControllerSession::Counters& {
    return controller_->southbound_counters();
  };
  register_callback("southbound.packets_sent",
      [southbound] { return double(southbound().packets_sent); });
  register_callback("southbound.lsus_sent", [southbound] { return double(southbound().lsus_sent); });
  register_callback("southbound.lsas_sent", [southbound] { return double(southbound().lsas_sent); });
  register_callback("southbound.acks_received",
      [southbound] { return double(southbound().acks_received); });
  register_callback("southbound.alias_rejections",
      [southbound] { return double(southbound().alias_rejections); });
  register_callback("southbound.reflushes", [southbound] { return double(southbound().reflushes); });
  const auto cache = [this] { return controller_->route_cache().stats(); };
  register_callback("cache.table_hits", [cache] { return double(cache().table_hits); });
  register_callback("cache.table_builds", [cache] { return double(cache().table_builds); });
  register_callback("cache.spf_full", [cache] { return double(cache().spf_full); });
  register_callback("cache.spf_incremental", [cache] { return double(cache().spf_incremental); });
  register_callback("cache.spf_batched", [cache] { return double(cache().spf_batched); });
  register_callback("poller.polls", [this] { return double(poller_.polls_completed()); });
  register_callback("dataplane.flow_walks", [this] { return double(sim_.flow_walks()); });
  register_callback("dataplane.flows", [this] { return double(sim_.flow_count()); });
  register_callback("dataplane.looping_flows", [this] { return double(sim_.looping_flows()); });
  register_callback("dataplane.blackholed_flows",
      [this] { return double(sim_.blackholed_flows()); });
  register_callback("dataplane.rate_solves",
      [this] { return double(sim_.rate_solves()); });
  register_callback("shard.rounds", [this] { return double(domain_.shard_stats().rounds); });
  register_callback("shard.events_run",
      [this] { return double(domain_.shard_stats().events_run); });
  register_callback("shard.cross_shard_messages",
      [this] { return double(domain_.shard_stats().cross_shard_messages); });
}

std::map<std::string, double> FibbingService::telemetry_snapshot() {
  std::map<std::string, double> out = registry_.snapshot();
  // The tracer is the one sample store: each stage's offsets (never an
  // empty list) expand into _count/_p50/_p99/_max keys (type-7 percentiles).
  for (const auto& [key, samples] : tracer_.stage_offsets()) {
    const std::string name = "trace.reaction." + key;
    out[name + "_count"] = static_cast<double>(samples.size());
    out[name + "_p50"] = util::percentile(samples, 50.0);
    out[name + "_p99"] = util::percentile(samples, 99.0);
    out[name + "_max"] = *std::max_element(samples.begin(), samples.end());
  }
  return out;
}

std::string FibbingService::telemetry_json() {
  return obs::to_json(telemetry_snapshot());
}

util::Result<topo::LinkId> FibbingService::change_link_(topo::NodeId a,
                                                        topo::NodeId b,
                                                        LinkEvent event) {
  using R = util::Result<topo::LinkId>;
  const char* const verb = event == LinkEvent::kFail ? "fail_link" : "restore_link";
  if (a >= topo_.node_count() || b >= topo_.node_count()) {
    return R::failure(std::string(verb) + ": unknown node id");
  }
  const topo::LinkId link = topo_.link_between(a, b);
  if (link == topo::kInvalidLink) {
    return R::failure(std::string(verb) + ": " + topo_.node(a).name + " and " +
                      topo_.node(b).name + " are not adjacent");
  }
  // One mask mutation; every subscribed layer (IGP adjacency teardown or
  // re-formation, data-plane flow re-walk, controller re-planning) reacts
  // through its subscription. A repeated fail (or a restore of a healthy
  // link) changes nothing and is an idempotent success.
  if (event == LinkEvent::kFail) {
    link_state_->fail(link);
  } else {
    link_state_->restore(link);
  }
  return link;
}

util::Result<topo::LinkId> FibbingService::fail_link(topo::NodeId a, topo::NodeId b) {
  return change_link_(a, b, LinkEvent::kFail);
}

util::Result<topo::LinkId> FibbingService::restore_link(topo::NodeId a,
                                                        topo::NodeId b) {
  return change_link_(a, b, LinkEvent::kRestore);
}

void FibbingService::boot() {
  FIB_ASSERT(!booted_, "FibbingService::boot called twice");
  booted_ = true;
  domain_.start();
  domain_.run_to_convergence();
  poller_.start();
}

}  // namespace fibbing::core
