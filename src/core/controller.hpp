#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/augment.hpp"
#include "core/lie.hpp"
#include "igp/domain.hpp"
#include "igp/route_cache.hpp"
#include "monitor/bus.hpp"
#include "monitor/detector.hpp"
#include "monitor/poller.hpp"
#include "net/prefix.hpp"
#include "obs/trace.hpp"
#include "topo/topology.hpp"
#include "util/event_queue.hpp"

namespace fibbing::core {

struct ControllerConfig {
  bool enabled = true;
  /// React to server demand notices immediately (predictive path); when
  /// false the controller only reacts to SNMP-detected congestion -- the
  /// reaction-time ablation (bench_reaction) flips this.
  bool proactive = true;
  /// Utilization above which mitigation starts / below which lies retract.
  double high_watermark = 0.85;
  double low_watermark = 0.5;
  /// Consecutive polls a threshold must hold (congestion detector).
  int hold_rounds = 2;
  /// FIB-slot budget per (router, prefix) for uneven splits.
  std::uint32_t max_replicas = 8;
  /// Detour bound handed to the min-max optimizer (see solve_min_max).
  double max_stretch = 1.5;
  /// Router hosting the controller's IGP session (paper: R3).
  topo::NodeId session_router = 0;
};

/// One prefix's placement attempt, as returned by place_prefix().
struct PlacementOutcome {
  /// Engaged once the optimizer succeeded; holds the compile verdict.
  std::optional<CompileResult> compiled;
  std::string solver_error;  ///< set when the min-max solve itself failed
  int solves = 0;            ///< optimizer invocations (initial + rungs)
  int relaxed = 0;           ///< 1 when the fallback ladder placed it
  [[nodiscard]] bool ok() const { return compiled.has_value() && compiled->ok(); }
};

/// One prefix's full solve -> fallback-ladder -> compile attempt against a
/// given background (per-link load the placement must leave room for), on
/// the links `mask` leaves up, planning on `cache`. Pure apart from the
/// cache's memo; the controller folds the outcome's counters in when it
/// commits or fails the prefix.
///
/// Fallback ladder: when the compile fails on granularity, the placement is
/// re-solved with theta relaxed to theta* * (1 + eps), restricted to the
/// compilable support (the optimum's flow links plus the shortest-path
/// DAG), for eps = 2, 5, 10 and 25 % in turn; only when the last rung fails
/// is the prefix unmitigable. Each rung is a full te::solve_min_max call:
/// the ladder keeps no solver state between rungs.
[[nodiscard]] PlacementOutcome place_prefix(
    const topo::Topology& topo, const ControllerConfig& config,
    const topo::LinkStateMask& mask, igp::RouteCache& cache,
    const net::Prefix& prefix, topo::NodeId dest,
    const std::vector<te::Demand>& demands, const std::vector<double>& background,
    std::uint64_t first_lie_id);

/// The Fibbing controller of the demo: learns demand from server notices,
/// watches SNMP link loads, and when a link is (about to be) congested,
/// computes the min-max placement for each hot destination prefix, compiles
/// it into lies and injects them through its IGP session. When the surge
/// subsides, lies are withdrawn and the network falls back to plain IGP.
///
/// Placement is *incremental and churn-minimizing*: only prefixes whose own
/// demand changed since their last placement are (re)optimized; every other
/// prefix's current placement is background the optimizer must respect.
/// This mirrors the demo (the t=35 surge on D2 is placed around D1's
/// standing lies, which yields exactly Fig. 1d) and avoids gratuitous
/// route churn. Demand notices arriving at the same instant (a request
/// batch) coalesce into a single placement decision.
///
/// The controller is *topology-state-aware*: every view it plans on, every
/// optimizer run and every compiled/verified lie set uses the domain's live
/// LinkStateMask, so placements are solved on the topology that actually
/// exists. It subscribes to the mask, so on any topology-change event
/// (failure or restoration, through whichever layer's API) it re-evaluates
/// all standing placements: stranded lies (a lie whose forwarding link
/// died, or a lie set whose realized forwarding graph now loops) are
/// re-placed on the changed topology, or retracted when their demand is
/// gone or no placement exists.
class Controller {
 public:
  Controller(const topo::Topology& topo, igp::IgpDomain& domain,
             monitor::NotificationBus& bus, util::EventQueue& events,
             ControllerConfig config = {});

  /// Feed one SNMP polling snapshot (wire this to LinkLoadPoller).
  void on_loads(const std::vector<monitor::LinkLoad>& loads);

  // -- introspection -----------------------------------------------------
  [[nodiscard]] const std::map<net::Prefix, std::vector<Lie>>& active_lies() const {
    return active_;
  }
  [[nodiscard]] std::size_t active_lie_count() const;
  [[nodiscard]] int mitigations() const { return mitigations_; }
  [[nodiscard]] int retractions() const { return retractions_; }
  /// Placements that needed the granularity fallback ladder (theta relaxed
  /// above the optimum to reach a compilable split set).
  [[nodiscard]] int relaxed_placements() const { return relaxed_placements_; }
  /// Topology-change events (failures + restorations) the controller has
  /// re-planned for.
  [[nodiscard]] int topology_events() const { return topology_events_; }
  /// Min-max optimizer invocations (initial solves + fallback-ladder rungs)
  /// -- the unit of work the scoped topology-change re-planning saves.
  [[nodiscard]] int placement_solves() const { return placement_solves_; }
  /// Wire traffic of the controller's southbound OSPF session (lie
  /// injections/retractions as LS Updates, and the acks received back).
  [[nodiscard]] const proto::ControllerSession::Counters& southbound_counters() const {
    return session_.counters();
  }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }

  /// The shared route-computation cache the whole control loop plans on
  /// (solve -> compile -> verify -> ledger all hit the same instance).
  [[nodiscard]] igp::RouteCache& route_cache() { return cache_; }

  /// Registered demand toward a prefix (bps), for tests and benches.
  [[nodiscard]] double demand_for(const net::Prefix& prefix) const;

  /// Attach the control-loop trace recorder (owned by FibbingService).
  /// Every mitigation then gets a trace id rooted at the sample that
  /// triggered it, with solve/compile/verify/inject stages emitted in the
  /// batch's commit order.
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

 private:
  void on_notice_(const monitor::DemandNotice& notice);
  /// Mask-subscription reaction: a link failed or was restored. Re-planning
  /// is *scoped*: on a failure only the prefixes whose forwarding actually
  /// shifted (their routes differ from the pre-event snapshot) plus any
  /// stranded placements are re-planned; a restoration triggers one global
  /// re-optimize pass (every active/ledger prefix may now have a better
  /// placement). Stranded lies are re-placed or retracted deliberately.
  void on_topology_change_(topo::LinkId link, bool down);
  void schedule_evaluate_();
  void evaluate_();
  void mitigate_();
  void maybe_retract_();
  /// Did `prefix`'s realized forwarding change between two of its columns?
  [[nodiscard]] bool forwarding_changed_(const net::Prefix& prefix,
                                         const igp::RouteColumn& before,
                                         const igp::RouteColumn& after) const;
  /// Re-snapshot the realized forwarding of the current lie set (consulted
  /// by the next topology event to scope re-planning).
  void refresh_forwarding_snapshot_();
  [[nodiscard]] std::vector<te::Demand> demands_of_(const net::Prefix& prefix) const;
  [[nodiscard]] std::vector<Lie> all_lies_() const;
  void apply_lies_(const net::Prefix& prefix, std::vector<Lie> lies);
  /// Root a new trace at the current instant if tracing is on and no root
  /// is pending: the triggering sample (SNMP edge, congested poll, or
  /// predicted overload) becomes the trace's t=0; mitigate_() adopts it.
  void trace_root_(obs::Stage stage, std::uint64_t detail);

  /// Per-link load of `prefix`'s ledger demand on its column in `tables`,
  /// memoized on the column's identity until a demand notice for the prefix
  /// drops the memo entry. A prefix's routes depend only on its *own*
  /// externals, so the loads computed on any table set containing its
  /// current lies are identical -- every background / evaluation sum can
  /// therefore share one full-lie-set table build instead of a per-prefix
  /// O(prefixes) rebuild, and a prefix without lies keeps one baseline
  /// column across every lie set.
  [[nodiscard]] const std::vector<double>& prefix_loads_(
      const net::Prefix& prefix, const igp::RouteCache::TablesPtr& tables);
  /// Per-link load `prefix`'s placement must leave room for: the sum of
  /// prefix_loads_ over every other ledger prefix on `tables`, skipping the
  /// `moving` prefixes (batch members still to be placed) unless their last
  /// placement failed, since failed traffic stays put.
  [[nodiscard]] std::vector<double> background_(
      const net::Prefix& prefix, const igp::RouteCache::TablesPtr& tables,
      const std::set<net::Prefix>& moving);

  const topo::Topology& topo_;
  igp::IgpDomain& domain_;
  util::EventQueue& events_;
  ControllerConfig config_;
  /// The southbound OSPF session at config_.session_router, bound once at
  /// construction: every lie injection and retraction leaves through it.
  proto::ControllerSession& session_;
  monitor::CongestionDetector detector_;
  /// Versioned route-computation cache over the domain's live mask: every
  /// table set the controller (and the compile/verify pipeline it invokes)
  /// plans on comes from here instead of a fresh all-pairs SPF.
  igp::RouteCache cache_;
  /// Realized forwarding of the current lie set as of the last evaluation /
  /// placement change; the shared_ptr keeps the snapshot alive across cache
  /// generations so a topology event can diff against it.
  igp::RouteCache::TablesPtr last_tables_;

  struct IngressDemand {
    double rate_bps = 0.0;
    int sessions = 0;
  };
  std::map<net::Prefix, std::map<topo::NodeId, IngressDemand>> ledger_;
  /// Prefixes whose demand changed since their last successful placement.
  std::set<net::Prefix> dirty_;
  /// Prefixes whose last placement attempt failed (unannounced prefix,
  /// optimizer or compiler error): their traffic is immovable background
  /// for batch placement until an attempt succeeds or demand drains.
  std::set<net::Prefix> placement_failed_;
  /// Prefixes whose standing lie set traverses a link that has since gone
  /// down: they must be re-placed or retracted even if nothing is hot.
  std::set<net::Prefix> stranded_;
  bool eval_pending_ = false;
  std::map<net::Prefix, std::vector<Lie>> active_;
  /// prefix_loads_'s memo, one entry per prefix whose ledger demand has not
  /// moved since the loads were computed (on_notice_ erases the entry).
  /// Holding the ColumnPtr pins the column so the identity check can never
  /// alias a recycled allocation.
  struct PrefixLoadMemo {
    igp::RouteCache::ColumnPtr column;
    std::vector<double> loads;
  };
  std::map<net::Prefix, PrefixLoadMemo> load_memo_;
  std::uint64_t next_lie_id_ = 1;
  /// Control-loop trace recorder; null or disabled means every emission
  /// path is a single-branch no-op. pending_trace_ is the id rooted by the
  /// triggering sample, adopted (and cleared) by the next mitigate_();
  /// current_trace_ is nonzero only while mitigate_ runs, and gates the
  /// inject-time lie binding in apply_lies_ so retractions never emit.
  obs::TraceRecorder* tracer_ = nullptr;
  std::uint64_t pending_trace_ = 0;
  std::uint64_t current_trace_ = 0;
  int mitigations_ = 0;
  int retractions_ = 0;
  int relaxed_placements_ = 0;
  int topology_events_ = 0;
  int placement_solves_ = 0;
};

}  // namespace fibbing::core
