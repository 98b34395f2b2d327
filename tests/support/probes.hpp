#pragma once

// Invariant probes shared by the scenario suites: periodic data-plane
// health sampling, route-isolation snapshots and traffic-conservation
// checks. Probes return gtest AssertionResults so call sites keep precise
// failure locations.

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/service.hpp"
#include "igp/route_cache.hpp"
#include "igp/routes.hpp"
#include "net/prefix.hpp"
#include "topo/topology.hpp"

namespace fibbing::support {

/// Sample the data plane's health at several instants: under a correct
/// controller, no flow may ever loop or blackhole. `tolerated_blackholes`
/// admits flows that are *expected* to blackhole (e.g. traffic toward an
/// unannounced prefix) without masking new breakage.
struct HealthProbe {
  std::size_t loop_observations = 0;
  std::size_t blackhole_observations = 0;
  std::size_t samples = 0;

  /// Schedule sampling every `step` seconds until `until` (exclusive of 0).
  void install(core::FibbingService& service, double until, double step = 0.5);

  [[nodiscard]] ::testing::AssertionResult healthy(
      std::size_t tolerated_blackholes = 0) const;
};

/// Snapshot of one prefix's route on every router; `unchanged` proves the
/// prefix was untouched by everything that happened since (per-destination
/// isolation, the paper's core safety argument).
class RouteSnapshot {
 public:
  RouteSnapshot(core::FibbingService& service, const net::Prefix& prefix);

  [[nodiscard]] ::testing::AssertionResult unchanged(
      core::FibbingService& service) const;

 private:
  net::Prefix prefix_;
  std::vector<igp::RouteEntry> entries_;
};

/// Traffic conservation at the destination: the sum of rates on the links
/// into `egress` equals `expected_bps` within `tol_bps` -- nothing the
/// controller does may lose or duplicate delivered traffic.
[[nodiscard]] ::testing::AssertionResult traffic_conserved(
    core::FibbingService& service, topo::NodeId egress, double expected_bps,
    double tol_bps = 1e4);

/// Every active lie must steer over a link that is currently up: once the
/// controller has reacted to a topology change, no compiled lie may point
/// its forwarding address at a dead interface.
[[nodiscard]] ::testing::AssertionResult lies_respect_link_state(
    core::FibbingService& service);

/// Fluid-flow conservation at a pure transit node (no prefix attached, no
/// traffic source): rate in equals rate out, within `tol_bps` -- the data
/// plane may not lose or duplicate traffic crossing `node`.
[[nodiscard]] ::testing::AssertionResult transit_conserved(
    core::FibbingService& service, topo::NodeId node, double tol_bps = 1e3);

/// A route cache's prefix-major table set as router-major routing tables,
/// one per router with unreachable routes omitted: the form
/// igp::compute_all_routes returns, so the two compare with ==.
[[nodiscard]] std::vector<igp::RoutingTable> routing_tables(
    const igp::RouteCache::Tables& tables, std::size_t node_count);

}  // namespace fibbing::support
