#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "igp/routes.hpp"
#include "net/prefix.hpp"
#include "te/minmax.hpp"
#include "topo/topology.hpp"
#include "util/result.hpp"

namespace fibbing::core {

/// The complete per-destination forwarding requirement: for each router
/// that the operator (or optimizer) wants to control, the weighted next hops
/// its FIB must hold for `prefix`, in the form of a route entry's: a hop of
/// weight w asks for w equal-cost entries toward the adjacent router `via`
/// (w > 1 realizes uneven splitting), and only the weights' ratio counts
/// (igp::lowest_terms). Routers absent from `nodes` must keep their current
/// behaviour -- the augmentation algorithm treats any change there as
/// pollution and repairs it.
struct DestRequirement {
  net::Prefix prefix;
  std::map<topo::NodeId, std::vector<igp::WeightedNextHop>> nodes;
};

/// Convert the optimizer's fractional splits into a requirement, rounding
/// each node's fractions to small integer copies (bounded-denominator
/// approximation with at most `max_replicas` FIB slots per node). Each
/// node's hops come out sorted by `via`.
[[nodiscard]] DestRequirement requirement_from_splits(const net::Prefix& prefix,
                                                      const te::SplitMap& splits,
                                                      std::uint32_t max_replicas = 8);

/// Structural validation: every required next hop is an adjacent router,
/// weights are positive, and the union of requirement edges is acyclic and
/// leads every required node to an announcer of `prefix`.
[[nodiscard]] util::Status validate_requirement(const topo::Topology& topo,
                                                const DestRequirement& req);

}  // namespace fibbing::core
