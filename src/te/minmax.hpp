#pragma once

#include <map>
#include <utility>
#include <vector>

#include "topo/link_state.hpp"
#include "topo/topology.hpp"
#include "util/result.hpp"

namespace fibbing::te {

/// A traffic demand entering at `ingress`, all heading to the destination
/// the solver is invoked for.
struct Demand {
  topo::NodeId ingress = topo::kInvalidNode;
  double rate_bps = 0.0;
};

/// Fractional next-hop split at one node (fractions sum to 1 over the
/// node's entries).
using SplitMap = std::map<topo::NodeId, std::vector<std::pair<topo::NodeId, double>>>;

/// Solver knobs beyond the plain optimization inputs. The defaults
/// reproduce the classic solve plus the degeneracy-breaking refinement at
/// the exact optimum (theta_relax = 0 never trades optimality away). The
/// solver keeps no state between calls, so any knob may differ from one
/// call to the next (the fallback ladder varies support and theta_relax).
struct MinMaxConfig {
  /// Detour bound, 0 = unlimited (see solve_min_max()).
  double max_stretch = 0.0;
  /// Live topology state (optional, not owned): down links carry nothing.
  const topo::LinkStateMask* link_state = nullptr;

  /// Run the degeneracy-breaking refinement over the theta*-residual graph:
  /// among all theta*-optimal flows, prefer ones whose per-node split sets
  /// (a) keep every baseline shortest-path next hop that the IGP would use
  /// (so the lie compiler can realize them in cheap tie mode instead of
  /// strict undercutting) and (b) carry no sliver below granularity_floor
  /// (a fraction too small for a FIB slot is a lie the compiler cannot
  /// express). Both moves are circulations in the residual network, so the
  /// refined flow stays feasible at the same theta.
  bool refine = true;
  /// Minimum per-node split fraction worth emitting: one FIB slot at the
  /// default replica budget (see ControllerConfig::max_replicas). Splits
  /// pushed onto shortest-path links are sized to exactly this fraction so
  /// the bounded-denominator rounding represents them exactly.
  double granularity_floor = 1.0 / 8.0;

  /// Fallback-ladder knob: when > 0, the refinement reroutes inside
  /// capacities relaxed to theta* * (1 + theta_relax), trading that much
  /// optimality for tie-compatible, granularity-respecting splits. The
  /// binary search itself still finds the exact theta*; only the refined
  /// flow may use the extra headroom. No effect unless refine is set.
  double theta_relax = 0.0;
  /// Optional support restriction (size link_count when non-empty): only
  /// links marked true may carry flow, on top of the stretch / link-state
  /// pruning. The controller's fallback ladder re-solves restricted to the
  /// compilable support (previous flow links + the shortest-path DAG).
  std::vector<bool> support;
};

/// Output of the exact min-max link-utilization solver.
struct MinMaxResult {
  /// Realized maximum link utilization of the returned flow (may exceed 1
  /// when the demand simply does not fit; the DAG is still the best
  /// possible placement). At theta_relax = 0 this equals theta_opt up to
  /// solver precision; with relaxation it stays <= theta_opt * (1 + relax).
  double theta = 0.0;
  /// Binary-search optimum before any refinement/relaxation.
  double theta_opt = 0.0;
  /// Forwarding DAG with fractional splits, covering every node that
  /// carries positive flow.
  SplitMap splits;
  /// Flow placed on each directed link (bps).
  std::vector<double> link_flow;

  // -- refinement diagnostics (see MinMaxConfig::refine) ------------------
  /// The refinement ran (config.refine and the flow was non-trivial).
  bool refined = false;
  /// Sub-floor slivers rerouted away.
  int slivers_removed = 0;
  /// Baseline shortest-path next hops re-included into split sets.
  int spf_ties_added = 0;
  /// Every flow-carrying node's split set covers all its baseline
  /// shortest-path next hops (every node is tie-compilable).
  bool tie_complete = false;
};

/// Exactly minimize the maximum link utilization for routing all `demands`
/// to `dest`: binary search on the utilization bound, with a Dinic max-flow
/// feasibility oracle at each step (capacities scaled to theta * c_e),
/// then a cycle-free decomposition of the feasible flow into per-node
/// fractional splits. This is the optimum the paper says Fibbing can
/// implement ("the optimal solution to the min-max link utilization
/// problem [5]").
///
/// `background_bps` (optional, per directed link) is load the optimizer
/// must leave room for (other traffic it may not touch).
///
/// `max_stretch` (0 = unlimited) restricts placement to links on paths of
/// bounded detour: a link u->v is usable only if
///   metric(u,v) + dist(v, dest) <= max_stretch * dist(u, dest).
/// Unbounded min-max happily routes traffic backwards through the whole
/// network for a marginally lower maximum; operators bound the detour.
/// On the demo topology, stretch 1.35 yields exactly the paper's DAG
/// (B: R2/R3 evenly, A: 1/3 via B, 2/3 via R1).
///
/// `link_state` (optional) restricts placement to links that are currently
/// up: down links carry zero capacity and are excluded from the detour
/// distances, so the optimum is solved on the degraded topology that
/// actually exists -- no returned split ever crosses a down link.
///
/// Every call is a full solve: one reverse Dijkstra (when stretch pruning or
/// the refinement needs distances), the doubling and binary search, and a
/// final re-solve at the feasible bound that the refinement and the splits
/// read. The controller's fallback ladder calls it once per rung.
[[nodiscard]] util::Result<MinMaxResult> solve_min_max(
    const topo::Topology& topo, topo::NodeId dest,
    const std::vector<Demand>& demands,
    const std::vector<double>& background_bps = {}, const MinMaxConfig& config = {});

/// Per-directed-link membership in the shortest-path DAG toward `dest`
/// (ECMP siblings included), over the links `link_state` leaves up. The
/// refinement treats these as the tie-compilable links; the controller adds
/// them to the fallback ladder's support restriction. Runs its own reverse
/// Dijkstra.
[[nodiscard]] std::vector<bool> shortest_path_dag(
    const topo::Topology& topo, topo::NodeId dest,
    const topo::LinkStateMask* link_state = nullptr);

/// Maximum link utilization if the same demands follow plain IGP shortest
/// paths with even ECMP splitting (the no-Fibbing baseline of Fig. 1b).
/// Background load is added per link when provided. `link_state` (optional)
/// computes the baseline on the degraded topology.
double shortest_path_max_utilization(const topo::Topology& topo, topo::NodeId dest,
                                     const std::vector<Demand>& demands,
                                     const std::vector<double>& background_bps = {},
                                     const topo::LinkStateMask* link_state = nullptr);

/// Per-link loads for demands routed on the plain IGP shortest-path DAG
/// with even splits (helper shared by baselines and benches). Down links
/// (per `link_state`) carry nothing; demand from an ingress the degraded
/// topology disconnects from `dest` is dropped (it blackholes in reality).
std::vector<double> shortest_path_loads(const topo::Topology& topo, topo::NodeId dest,
                                        const std::vector<Demand>& demands,
                                        const topo::LinkStateMask* link_state = nullptr);

}  // namespace fibbing::te
