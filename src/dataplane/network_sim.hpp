#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

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
///  - add_flow walks the new flow and updates rates; remove_flow only
///    updates rates;
///  - a table flip (flip_table with the router's changed prefixes, or
///    set_fib as the diff of two FIBs) patches the entries that differ in
///    place, re-walks the flows whose path visits the router and whose FIB
///    entry there changed, and updates rates only if one of those paths
///    moved. It finds them without scanning every flow: a flow visiting the
///    router enters there, crosses one of its in-links delivered, or is
///    undelivered (looping or blackholed). A flip that changed no prefix
///    only settles the byte counters;
///  - a walk reads the down bit of only the links it picks. A link failure
///    re-walks the delivered flows crossing the link in either direction
///    and the undelivered ones (a loop or a blackhole may have traversed
///    it); a restoration re-walks only the undelivered ones, since a
///    delivered walk picked no down link and a link coming up changes no
///    pick. Either updates rates once;
///  - install_tables re-walks every flow and updates rates.
/// The sim indexes, per link, the delivered flows that cross it. While every
/// link's offered load fits its capacity (see link_fits in the .cpp),
/// max-min gives every delivered flow its demand, so a rate update that
/// starts and ends with every link fitting sets only the changed flows'
/// rates and re-sums only the links their paths cross. The full
/// max_min_rates solve runs only when some link does not fit before or
/// after the mutation.
class NetworkSim {
 public:
  /// `link_state` is the live up/down mask consulted on every flow walk;
  /// pass a shared instance to keep the data plane, IGP and controller in
  /// agreement (FibbingService does). When null the sim makes its own.
  NetworkSim(const topo::Topology& topo, util::EventQueue& events,
             std::shared_ptr<topo::LinkStateMask> link_state = nullptr);

  // -- forwarding state ------------------------------------------------------
  /// A router's routing table changed at exactly the prefixes `changed`
  /// (igp::changed_prefixes of its previous and new table, as an IGP SPF run
  /// hands them over): settle the byte counters, then patch those
  /// prefixes' FIB entries in place, each compiled by Fib::compile_entry
  /// (erased when `table` has no reachable route), and re-walk the flows
  /// whose entry at the router changed. An empty list only settles.
  void flip_table(topo::NodeId node, const igp::RoutingTable& table,
                  std::span<const net::Prefix> changed);
  /// Replace one router's FIB: the entries that differ from the installed
  /// FIB's take flip_table's patch path.
  void set_fib(topo::NodeId node, Fib fib);
  /// Bulk-install FIBs compiled from routing tables (static analyses).
  void install_tables(const std::vector<igp::RoutingTable>& tables);
  [[nodiscard]] const Fib& fib(topo::NodeId node) const;

  /// Take a bidirectional link down (`id` may be either direction): flows
  /// whose hash bucket crosses it drop until fresh FIBs route around it.
  /// Failing an already-down link is a no-op. (Equivalent to mutating the
  /// mask directly: the sim re-walks the flows the event can move through
  /// its mask subscription either way, as do all other layers sharing the
  /// mask.)
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
  /// Work done so far: walk_flow calls; rate updates, counting every rate
  /// update, shortcut or full; and the full max_min_rates solves among them.
  [[nodiscard]] std::uint64_t flow_walks() const { return flow_walks_; }
  [[nodiscard]] std::uint64_t rate_solves() const { return rate_solves_; }
  [[nodiscard]] std::uint64_t max_min_solves() const { return max_min_solves_; }

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
  /// Enter (`add`) or withdraw a flow in the crossing lists of the links on
  /// its path, and mark those links touched, if it is delivered; else in
  /// the undelivered list.
  void index_(const Flow& flow, const FlowPath& path, bool add);
  /// One prefix's new FIB entry; nullopt erases the prefix's entry.
  struct FibPatch {
    net::Prefix prefix;
    std::optional<FibEntry> entry;
  };
  /// Apply `patch` (distinct prefixes) to `node`'s FIB, re-walk the flows
  /// whose entry there changed and update rates if a path moved.
  void patch_fib_(topo::NodeId node, std::vector<FibPatch> patch);
  /// The mask subscription: re-walk the flows a link event can move, then
  /// update rates once.
  void on_link_event_(topo::LinkId id, bool down);
  /// Re-walk the flows `ids` (ascending) and re-index each whose path
  /// moved; returns those, ascending.
  std::vector<FlowId> rewalk_(const std::vector<FlowId>& ids);
  /// Re-walk every flow, then update rates.
  void rewalk_all_();
  /// Bring rates up to date after the flows in `moved` (ascending id) joined
  /// or changed path, and the touched links' crossing lists changed: the
  /// shortcut if every link fits before and after, else solve_rates_().
  void update_rates_(const std::vector<FlowId>& moved);
  /// Max-min rates over all flows in id order; refreshes the link rates and
  /// notifies listeners of every rate that changed.
  void solve_rates_();
  /// Announce (flow, rate) pairs in order, dropping a notice a listener's
  /// nested change made stale.
  void notify_(const std::vector<std::pair<FlowId, double>>& changed);

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
  std::vector<std::vector<FlowId>> entering_;  // per ingress router, ascending id
  std::vector<FlowId> undelivered_;  // flows that loop or blackhole, ascending id
  FlowId next_flow_id_ = 1;
  std::uint64_t flow_walks_ = 0;      // obs:registered(dataplane.flow_walks)
  std::uint64_t rate_solves_ = 0;     // obs:registered(dataplane.rate_solves)
  std::uint64_t max_min_solves_ = 0;  // obs:registered(dataplane.max_min_solves)

  /// A delivered flow crossing a link, with its demand.
  struct Crossing {
    FlowId id = 0;
    double demand_bps = 0.0;
  };
  std::vector<std::vector<Crossing>> crossing_;  // per link, ascending id
  std::vector<bool> fits_;              // per link: its offered load fits
  std::size_t oversubscribed_ = 0;      // links whose fits_ is false
  std::vector<topo::LinkId> touched_;   // links indexed since the last update

  std::vector<double> link_rates_;
  std::vector<double> link_bytes_;  // double to avoid quantization drift
  util::SimTime settled_at_ = 0.0;
  std::vector<RateListener> listeners_;
};

}  // namespace fibbing::dataplane
