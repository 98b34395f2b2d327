#pragma once

#include <vector>

#include "dataplane/fib.hpp"
#include "dataplane/flow.hpp"
#include "topo/topology.hpp"

namespace fibbing::dataplane {

/// The hop-by-hop fate of a flow under the current FIBs.
struct FlowPath {
  enum class Outcome { kDelivered, kBlackhole, kLoop };
  Outcome outcome = Outcome::kBlackhole;
  std::vector<topo::LinkId> links;  // traversed in order
  topo::NodeId egress = topo::kInvalidNode;

  [[nodiscard]] bool delivered() const { return outcome == Outcome::kDelivered; }
  friend bool operator==(const FlowPath&, const FlowPath&) = default;
};

/// Walk a flow from its ingress through per-router FIB lookups and ECMP
/// hashing until local delivery, a missing route (blackhole) or a repeated
/// router (forwarding loop). `fibs` is indexed by NodeId. When `down_links`
/// is non-empty, a hop whose hash bucket selects a marked link drops the
/// packet (blackhole) -- the data-plane behaviour between an interface
/// failure and IGP reconvergence.
[[nodiscard]] FlowPath walk_flow(const topo::Topology& topo,
                                 const std::vector<Fib>& fibs, const Flow& flow,
                                 const std::vector<bool>& down_links = {});

}  // namespace fibbing::dataplane
