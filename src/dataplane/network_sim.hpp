#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include <memory>

#include "dataplane/fib.hpp"
#include "dataplane/flow.hpp"
#include "dataplane/forwarding.hpp"
#include "igp/routes.hpp"
#include "topo/link_state.hpp"
#include "topo/topology.hpp"
#include "util/event_queue.hpp"

namespace fibbing::dataplane {

/// Fluid-level data-plane simulator: forwards flows over per-router FIBs
/// (with per-flow ECMP hashing), allocates max-min fair rates under link
/// capacities, and integrates per-link byte counters over simulated time --
/// the counters SNMP-style monitoring polls.
///
/// Rates are piecewise constant: they change only when the flow set or a
/// FIB changes, at which point counters are settled and every affected
/// listener is notified.
///
/// Invariant: every stored FlowPath equals walk_flow over the current FIBs
/// and link mask, and every rate equals max_min_rates over all flows in id
/// order. Each mutation does only the work that can break it:
///  - add_flow walks the new flow and solves rates; remove_flow only solves;
///  - set_fib re-walks the flows whose path visits the router and whose
///    FIB entry there changed, and solves only if one of those paths moved;
///  - install_tables and link fail/restore re-walk every flow and solve.
class NetworkSim {
 public:
  /// `link_state` is the live up/down mask consulted on every flow walk;
  /// pass a shared instance to keep the data plane, IGP and controller in
  /// agreement (FibbingService does). When null the sim makes its own.
  NetworkSim(const topo::Topology& topo, util::EventQueue& events,
             std::shared_ptr<topo::LinkStateMask> link_state = nullptr);

  // -- forwarding state ------------------------------------------------------
  /// Replace one router's FIB (e.g. after an IGP SPF run).
  void set_fib(topo::NodeId node, Fib fib);
  /// Bulk-install FIBs compiled from routing tables (static analyses).
  void install_tables(const std::vector<igp::RoutingTable>& tables);
  [[nodiscard]] const Fib& fib(topo::NodeId node) const;

  /// Take a bidirectional link down (`id` may be either direction): flows
  /// whose hash bucket crosses it drop until fresh FIBs route around it.
  /// Failing an already-down link is a no-op. (Equivalent to mutating the
  /// mask directly: the sim re-walks flows through its mask subscription
  /// either way, as do all other layers sharing the mask.)
  void fail_link(topo::LinkId id);
  /// Bring a failed link back: flows rehash onto it as FIBs allow.
  /// Restoring a link that is not down is a no-op.
  void restore_link(topo::LinkId id);
  [[nodiscard]] bool link_is_down(topo::LinkId id) const;
  [[nodiscard]] const topo::LinkStateMask& link_state() const { return *link_state_; }

  // -- flows -----------------------------------------------------------------
  /// Register a flow; if flow.id is 0 a fresh id is assigned (one above
  /// every id accepted so far). Returns the id.
  FlowId add_flow(Flow flow);
  void remove_flow(FlowId id);
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }

  // -- queries ---------------------------------------------------------------
  [[nodiscard]] double flow_rate(FlowId id) const;
  [[nodiscard]] const FlowPath& flow_path(FlowId id) const;
  /// Aggregate current rate on a directed link (bits/s).
  [[nodiscard]] double link_rate(topo::LinkId link) const;
  [[nodiscard]] double link_utilization(topo::LinkId link) const;
  /// Cumulative octet counter (settled to the current simulation time).
  [[nodiscard]] std::uint64_t link_bytes(topo::LinkId link);
  /// Flows currently not delivered, by cause (diagnostics; loops should
  /// never survive a correct augmentation).
  [[nodiscard]] std::size_t looping_flows() const;
  [[nodiscard]] std::size_t blackholed_flows() const;
  /// Work done so far: walk_flow calls and max_min_rates solves.
  [[nodiscard]] std::uint64_t flow_walks() const { return flow_walks_; }
  [[nodiscard]] std::uint64_t rate_solves() const { return rate_solves_; }

  /// Rate-change notification: fired with (flow id, new rate) whenever the
  /// allocation changes a flow's rate (video clients track their buffers
  /// with this). A listener may add or remove flows; a notice that such a
  /// nested change made stale is dropped, since the nested solve already
  /// delivered the current rate.
  using RateListener = std::function<void(FlowId, double)>;
  void subscribe_rates(RateListener listener) {
    listeners_.push_back(std::move(listener));
  }

 private:
  void settle_();
  [[nodiscard]] FlowPath walk_(const Flow& flow);
  /// Re-walk every flow, then solve rates.
  void rewalk_all_();
  /// Max-min rates over all flows in id order; refreshes the link rates and
  /// notifies listeners of every rate that changed.
  void solve_rates_();

  const topo::Topology& topo_;
  util::EventQueue& events_;
  std::vector<Fib> fibs_;
  std::shared_ptr<topo::LinkStateMask> link_state_;

  struct FlowState {
    Flow flow;
    FlowPath path;
    double rate_bps = 0.0;
  };
  std::map<FlowId, FlowState> flows_;  // ordered: deterministic iteration
  FlowId next_flow_id_ = 1;
  std::uint64_t flow_walks_ = 0;   // obs:registered(dataplane.flow_walks)
  std::uint64_t rate_solves_ = 0;  // obs:registered(dataplane.rate_solves)

  std::vector<double> link_rates_;
  std::vector<double> link_bytes_;  // double to avoid quantization drift
  util::SimTime settled_at_ = 0.0;
  std::vector<RateListener> listeners_;
};

}  // namespace fibbing::dataplane
