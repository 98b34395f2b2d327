#pragma once
// Workload plans: every input of a run, generated from the seed and the
// drawn topology before the service exists. Inputs form an open loop in
// virtual time -- a fixed schedule, whatever the system does.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/service.hpp"

namespace perfbench {

inline constexpr double kNever = std::numeric_limits<double>::infinity();

/// One viewer: streams from `server` to a host of `prefix` over
/// [start_s, stop_s). kNever keeps the session past the horizon.
struct SessionPlan {
  std::size_t server = 0;
  std::size_t prefix = 0;
  double start_s = 0.0;
  double stop_s = kNever;
};

/// One administrative fail or restore of the a<->b link.
struct LinkPlan {
  double at_s = 0.0;
  fibbing::topo::NodeId a = 0;
  fibbing::topo::NodeId b = 0;
  bool fail = true;
};

/// One flash crowd: `size` viewers of `server` watching hosts of `prefix`.
struct Crowd {
  std::size_t server = 0;
  std::size_t prefix = 0;
  int size = 0;
};

/// The operation whose latency a workload reports as op_ms.
enum class Op {
  kPlacement,      ///< a decision step that moved mitigations or placement solves
  kSession,        ///< a session step
  kReconvergence,  ///< a link event, its steps summed until the domain reconverges
};

struct Plan {
  fibbing::topo::Topology topo;
  fibbing::core::ServiceConfig config;
  std::vector<fibbing::topo::NodeId> servers;
  /// Client prefixes; prefixes[i] is announced by `topo`.
  std::vector<fibbing::net::Prefix> prefixes;
  fibbing::video::VideoAsset asset;
  std::vector<SessionPlan> sessions;
  std::vector<LinkPlan> link_events;
  std::vector<Crowd> crowds;  ///< surge only, in the order they start
  double warm_s = 0.0;     ///< virtual end of set-up: the timed loop starts here
  double peak_s = 0.0;     ///< instant the traced run captures its state
  double horizon_s = 0.0;  ///< virtual end of the timed loop
  Op op = Op::kPlacement;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build the plan of `workload` (one of workload_names()) for `seed`.
[[nodiscard]] Plan make_plan(const std::string& workload, std::uint64_t seed);

/// One line that identifies the work of `plan`: a digest of its graph, its
/// crowd pairs with their sizes, its session and link-event counts, and a
/// digest of every input. Two builds that print the same line run the same
/// inputs.
[[nodiscard]] std::string describe(const Plan& plan);

/// Address of server `i` and of the host that session `i` streams to.
[[nodiscard]] fibbing::net::Ipv4 server_address(std::size_t server);
[[nodiscard]] fibbing::net::Ipv4 client_address(const Plan& plan, std::size_t session);

/// The router that announces plan.prefixes[prefix].
[[nodiscard]] fibbing::topo::NodeId announcer(const Plan& plan, std::size_t prefix);

/// Indices of the sessions streaming at virtual time `t`.
[[nodiscard]] std::vector<std::size_t> active_sessions(const Plan& plan, double t);

}  // namespace perfbench
