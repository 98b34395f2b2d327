#include "support/probes.hpp"

namespace fibbing::support {

void HealthProbe::install(core::FibbingService& service, double until, double step) {
  for (double t = service.events().now() + step; t <= until; t += step) {
    service.events().schedule_at(t, [this, &service] {
      ++samples;
      loop_observations += service.sim().looping_flows();
      blackhole_observations += service.sim().blackholed_flows();
    });
  }
}

::testing::AssertionResult HealthProbe::healthy(
    std::size_t tolerated_blackholes) const {
  if (samples == 0) {
    return ::testing::AssertionFailure() << "HealthProbe never sampled";
  }
  if (loop_observations > 0) {
    return ::testing::AssertionFailure()
           << loop_observations << " forwarding-loop observations across "
           << samples << " samples";
  }
  const std::size_t budget = tolerated_blackholes * samples;
  if (blackhole_observations > budget) {
    return ::testing::AssertionFailure()
           << blackhole_observations << " blackhole observations across " << samples
           << " samples (tolerated " << budget << ")";
  }
  return ::testing::AssertionSuccess();
}

RouteSnapshot::RouteSnapshot(core::FibbingService& service, const net::Prefix& prefix)
    : prefix_(prefix) {
  for (topo::NodeId n = 0; n < service.topology().node_count(); ++n) {
    const igp::RoutingTable& table = service.domain().table(n);
    const auto it = table.find(prefix);
    entries_.push_back(it != table.end() ? it->second : igp::RouteEntry{});
  }
}

::testing::AssertionResult RouteSnapshot::unchanged(
    core::FibbingService& service) const {
  const topo::Topology& topo = service.topology();
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    const igp::RoutingTable& table = service.domain().table(n);
    const auto it = table.find(prefix_);
    const igp::RouteEntry now = it != table.end() ? it->second : igp::RouteEntry{};
    if (now != entries_[n]) {
      return ::testing::AssertionFailure()
             << "route for " << prefix_.to_string() << " changed at router "
             << topo.node(n).name << ": was " << to_string(entries_[n], topo)
             << ", now " << to_string(now, topo);
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult traffic_conserved(core::FibbingService& service,
                                             topo::NodeId egress, double expected_bps,
                                             double tol_bps) {
  const topo::Topology& topo = service.topology();
  double into = 0.0;
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    if (topo.link(l).to == egress) into += service.sim().link_rate(l);
  }
  if (into < expected_bps - tol_bps || into > expected_bps + tol_bps) {
    return ::testing::AssertionFailure()
           << "traffic into " << topo.node(egress).name << " is " << into
           << " b/s, expected " << expected_bps << " +/- " << tol_bps;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult lies_respect_link_state(core::FibbingService& service) {
  const topo::Topology& topo = service.topology();
  const topo::LinkStateMask& mask = service.link_state();
  for (const auto& [prefix, lies] : service.controller().active_lies()) {
    for (const core::Lie& lie : lies) {
      const topo::LinkId link = topo.link_between(lie.attach, lie.via);
      if (link == topo::kInvalidLink) {
        return ::testing::AssertionFailure()
               << "lie " << lie.name << " for " << prefix.to_string()
               << " steers between non-adjacent routers";
      }
      if (mask.is_down(link)) {
        return ::testing::AssertionFailure()
               << "lie " << lie.name << " for " << prefix.to_string()
               << " steers over down link " << topo.link_name(link);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult transit_conserved(core::FibbingService& service,
                                             topo::NodeId node, double tol_bps) {
  const topo::Topology& topo = service.topology();
  double in = 0.0;
  double out = 0.0;
  for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
    if (topo.link(l).to == node) in += service.sim().link_rate(l);
    if (topo.link(l).from == node) out += service.sim().link_rate(l);
  }
  if (in < out - tol_bps || in > out + tol_bps) {
    return ::testing::AssertionFailure()
           << "transit node " << topo.node(node).name << " receives " << in
           << " b/s but forwards " << out << " b/s";
  }
  return ::testing::AssertionSuccess();
}

std::vector<igp::RoutingTable> routing_tables(const igp::RouteCache::Tables& tables,
                                              std::size_t node_count) {
  std::vector<igp::RoutingTable> out(node_count);
  for (const auto& [prefix, column] : tables) {
    for (std::size_t n = 0; n < node_count; ++n) {
      if ((*column)[n].reachable()) out[n].emplace(prefix, (*column)[n]);
    }
  }
  return out;
}

}  // namespace fibbing::support
