#include "core/service.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace fibbing::core {

namespace {

/// Smoothing weight of the newest SNMP sample in the poller's per-link rate
/// EWMA (monitor::LinkLoadPoller's ewma_alpha).
constexpr double kPollEwmaAlpha = 0.7;

/// Shortest round-trip decimal of `v`: integral values print without a
/// fraction, so counter snapshots read like counters. Deterministic for
/// identical bit patterns.
std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the shorter %g form when it round-trips (1.0 -> "1", 0.05 stays
  // exact); keeps the JSON stable and human-readable at once.
  char shorter[32];
  std::snprintf(shorter, sizeof(shorter), "%g", v);
  double back = 0.0;
  if (std::sscanf(shorter, "%lf", &back) == 1 && back == v) return shorter;
  return buf;
}

}  // namespace

FibbingService::FibbingService(const topo::Topology& topo, ServiceConfig config)
    : topo_(topo),
      link_state_(std::make_shared<topo::LinkStateMask>(topo)),
      tracer_(config.tracing),
      domain_(topo, events_, config.igp_timing, link_state_, config.igp_shards),
      sim_(topo, events_, link_state_),
      poller_(topo, sim_, events_, config.poll_interval_s, kPollEwmaAlpha),
      video_(topo, sim_, events_, bus_) {
  domain_.set_tracer(&tracer_);
  // Router control planes program the data plane.
  domain_.set_on_table_change([this](topo::NodeId node, const igp::RoutingTable& table,
                                     const std::vector<net::Prefix>& changed) {
    sim_.flip_table(node, table, changed);
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
}

std::map<std::string, double> FibbingService::telemetry_snapshot() {
  // The telemetry table: every layer's counters, read straight from the
  // component accessors on the driving thread between rounds, when the
  // counters are stable. Each aggregate is read once.
  const Controller& controller = *controller_;
  const proto::SessionCounters proto = domain_.total_proto_counters();
  const proto::ControllerSession::Counters& southbound =
      controller.southbound_counters();
  const igp::RouteCacheStats cache = controller_->route_cache().stats();
  const util::ShardPool::Stats shard = domain_.shard_stats();
  std::map<std::string, double> out = {
      {"controller.mitigations", controller.mitigations()},
      {"controller.retractions", controller.retractions()},
      {"controller.relaxed_placements", controller.relaxed_placements()},
      {"controller.topology_events", controller.topology_events()},
      {"controller.placement_solves", controller.placement_solves()},
      {"controller.active_lies", controller.active_lie_count()},
      {"igp.lsas_sent", proto.lsas_sent},
      {"igp.spf_runs", domain_.total_spf_runs()},
      {"igp.spf_incremental_runs", domain_.total_spf_incremental_runs()},
      {"igp.spf_origins_read", domain_.total_spf_origins_read()},
      {"proto.packets_sent", proto.packets_sent},
      {"proto.bytes_sent", proto.bytes_sent},
      {"proto.hellos_sent", proto.hellos_sent},
      {"proto.lsus_sent", proto.lsus_sent},
      {"proto.lsas_sent", proto.lsas_sent},
      {"proto.retransmissions", proto.retransmissions},
      {"southbound.packets_sent", southbound.packets_sent},
      {"southbound.lsus_sent", southbound.lsus_sent},
      {"southbound.lsas_sent", southbound.lsas_sent},
      {"southbound.acks_received", southbound.acks_received},
      {"southbound.alias_rejections", southbound.alias_rejections},
      {"southbound.reflushes", southbound.reflushes},
      {"cache.table_hits", cache.table_hits},
      {"cache.table_builds", cache.table_builds},
      {"cache.spf_full", cache.spf_full},
      {"cache.spf_incremental", cache.spf_incremental},
      {"cache.spf_batched", cache.spf_batched},
      {"poller.polls", poller_.polls_completed()},
      {"dataplane.flow_walks", sim_.flow_walks()},
      {"dataplane.flows", sim_.flow_count()},
      {"dataplane.looping_flows", sim_.looping_flows()},
      {"dataplane.blackholed_flows", sim_.blackholed_flows()},
      {"dataplane.rate_solves", sim_.rate_solves()},
      {"dataplane.max_min_solves", sim_.max_min_solves()},
      {"shard.rounds", shard.rounds},
      {"shard.events_run", shard.events_run},
      {"shard.cross_shard_messages", shard.cross_shard_messages},
  };
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
  // One JSON object in the map's sorted key order: bit-identical for
  // identical values.
  std::string out = "{";
  for (const auto& [key, value] : telemetry_snapshot()) {
    if (out.size() > 1) out += ",";
    out += "\"" + key + "\":" + format_value(value);
  }
  return out + "}";
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
