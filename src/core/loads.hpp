#pragma once

#include <vector>

#include "igp/routes.hpp"
#include "net/prefix.hpp"
#include "te/minmax.hpp"
#include "topo/topology.hpp"

namespace fibbing::core {

/// Expected per-link load (bps) when `demands` toward `prefix` follow
/// `column`, the prefix's route at every router (igp::column_of converts
/// router-major tables), splitting at every hop proportionally to FIB
/// weights (the fluid expectation of hash-based splitting). Used by the
/// controller to account for traffic it is not currently re-optimizing.
/// Transient forwarding cycles (stale lies right after a topology change)
/// are logged, and the traffic flowing into one still counts against the
/// links it traverses: each inflow unit is walked hop by hop until it first
/// revisits a node (one full lap -- a deterministic lower bound on the
/// load that circulates until TTL expiry kills the packets or the
/// controller re-places the lie set). Until this re-placement lands, those
/// links really do carry the looping bytes, so predictions that ignored
/// them undercounted exactly when the network was most stressed.
[[nodiscard]] std::vector<double> loads_from_routes(
    const topo::Topology& topo, const igp::RouteColumn& column,
    const net::Prefix& prefix, const std::vector<te::Demand>& demands);

/// True when the forwarding graph `column` realizes for its prefix contains
/// a directed cycle. The controller uses this to detect lie sets that a
/// topology change has turned into loops (they must be re-placed or
/// retracted, never left standing).
[[nodiscard]] bool forwarding_loops(const topo::Topology& topo,
                                    const igp::RouteColumn& column);

}  // namespace fibbing::core
