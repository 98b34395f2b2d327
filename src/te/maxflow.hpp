#pragma once

#include <cstddef>
#include <vector>

namespace fibbing::te {

/// Dinic's maximum-flow over a directed graph with real-valued capacities.
/// The feasibility oracle inside the min-max link-utilization solver
/// (Ahuja et al. [5] in the paper): capacities are scaled link capacities,
/// sources are the surge ingresses, the sink is the destination router.
class MaxFlow {
 public:
  explicit MaxFlow(std::size_t node_count);

  /// Add a directed edge; returns an edge id usable with flow_on().
  std::size_t add_edge(std::size_t from, std::size_t to, double capacity);

  /// Compute the max flow from s to t. Call it once per capacitation: after
  /// set_capacities() the network solves afresh.
  double solve(std::size_t s, std::size_t t);

  /// Set every added edge's capacity (`capacity` in edge-id order) and clear
  /// all flow. The network is then exactly the one a fresh instance given
  /// the same add_edge() calls at these capacities would be, so solve()
  /// pushes bit-identical flows; the min-max search re-capacitates one
  /// network per probe instead of rebuilding it.
  void set_capacities(const std::vector<double>& capacity);

  /// Flow routed on a previously added edge (valid after solve()).
  [[nodiscard]] double flow_on(std::size_t edge_id) const;

  /// Remaining forward capacity of a previously added edge.
  [[nodiscard]] double residual_on(std::size_t edge_id) const;

  /// Flow on every added edge, in edge-id order (bulk flow_on()).
  [[nodiscard]] std::vector<double> flows() const;

  /// Grow an edge's capacity by `extra` without disturbing its flow. The
  /// min-max refinement uses this to relax the theta*-scaled capacities to
  /// theta* * (1 + eps) before rerouting (the controller's fallback ladder).
  void widen(std::size_t edge_id, double extra);

  /// Degeneracy-breaking primitive: find a residual path from s to t whose
  /// every arc (forward residual or flow cancellation alike) has at least
  /// `amount` slack, avoiding both directions of the edges in `banned`, and
  /// push `amount` along it. Among candidate paths, ones that cancel
  /// existing flow are preferred over ones that grow gross flow (0-1 BFS on
  /// the forward-arc count), so a successful push reroutes traffic instead
  /// of inflating circulations. Returns false -- leaving the flow exactly as
  /// it was -- when no such path exists.
  bool push_residual(std::size_t s, std::size_t t, double amount,
                     const std::vector<std::size_t>& banned = {});

  /// Move flow on one specific edge: positive `amount` pushes forward
  /// (consumes forward residual), negative cancels existing flow. Composes
  /// with push_residual() into a targeted residual cycle -- push the return
  /// path first, then the edge, and conservation holds again.
  void push_on_edge(std::size_t edge_id, double amount);

  [[nodiscard]] std::size_t node_count() const { return graph_.size(); }

 private:
  struct Edge {
    std::size_t to;
    double capacity;  // residual
    std::size_t rev;  // index of reverse edge in graph_[to]
    bool forward;     // true for the added direction, false for its companion
  };

  bool bfs_(std::size_t s, std::size_t t);
  double dfs_(std::size_t v, std::size_t t, double pushed);

  std::vector<std::vector<Edge>> graph_;
  std::vector<std::pair<std::size_t, std::size_t>> edge_refs_;  // (node, index)
  std::vector<double> original_capacity_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
};

}  // namespace fibbing::te
