#include "te/maxflow.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>
#include <utility>

#include "util/assert.hpp"

namespace fibbing::te {

namespace {
constexpr double kFlowEps = 1e-9;
}

MaxFlow::MaxFlow(std::size_t node_count) : graph_(node_count) {}

std::size_t MaxFlow::add_edge(std::size_t from, std::size_t to, double capacity) {
  FIB_ASSERT(from < graph_.size() && to < graph_.size(), "add_edge: bad endpoint");
  FIB_ASSERT(capacity >= 0.0, "add_edge: negative capacity");
  graph_[from].push_back(Edge{to, capacity, graph_[to].size(), true});
  graph_[to].push_back(Edge{from, 0.0, graph_[from].size() - 1, false});
  edge_refs_.emplace_back(from, graph_[from].size() - 1);
  original_capacity_.push_back(capacity);
  return edge_refs_.size() - 1;
}

void MaxFlow::set_capacities(const std::vector<double>& capacity) {
  FIB_ASSERT(capacity.size() == edge_refs_.size(), "set_capacities: one per edge");
  for (std::size_t e = 0; e < edge_refs_.size(); ++e) {
    FIB_ASSERT(capacity[e] >= 0.0, "set_capacities: negative capacity");
    const auto [node, index] = edge_refs_[e];
    Edge& edge = graph_[node][index];
    edge.capacity = capacity[e];
    graph_[edge.to][edge.rev].capacity = 0.0;
    original_capacity_[e] = capacity[e];
  }
}

bool MaxFlow::bfs_(std::size_t s, std::size_t t) {
  level_.assign(graph_.size(), -1);
  std::queue<std::size_t> queue;
  level_[s] = 0;
  queue.push(s);
  while (!queue.empty()) {
    const std::size_t v = queue.front();
    queue.pop();
    for (const Edge& e : graph_[v]) {
      if (e.capacity > kFlowEps && level_[e.to] < 0) {
        level_[e.to] = level_[v] + 1;
        queue.push(e.to);
      }
    }
  }
  return level_[t] >= 0;
}

double MaxFlow::dfs_(std::size_t v, std::size_t t, double pushed) {
  if (v == t) return pushed;
  for (std::size_t& i = iter_[v]; i < graph_[v].size(); ++i) {
    Edge& e = graph_[v][i];
    if (e.capacity <= kFlowEps || level_[e.to] != level_[v] + 1) continue;
    const double got = dfs_(e.to, t, std::min(pushed, e.capacity));
    if (got > kFlowEps) {
      e.capacity -= got;
      graph_[e.to][e.rev].capacity += got;
      return got;
    }
  }
  return 0.0;
}

double MaxFlow::solve(std::size_t s, std::size_t t) {
  FIB_ASSERT(s < graph_.size() && t < graph_.size(), "solve: bad endpoint");
  FIB_ASSERT(s != t, "solve: source equals sink");
  double total = 0.0;
  while (bfs_(s, t)) {
    iter_.assign(graph_.size(), 0);
    while (true) {
      const double pushed = dfs_(s, t, std::numeric_limits<double>::infinity());
      if (pushed <= kFlowEps) break;
      total += pushed;
    }
  }
  return total;
}

double MaxFlow::flow_on(std::size_t edge_id) const {
  FIB_ASSERT(edge_id < edge_refs_.size(), "flow_on: bad edge id");
  const auto [node, index] = edge_refs_[edge_id];
  // Flow = original capacity minus residual.
  return std::max(original_capacity_[edge_id] - graph_[node][index].capacity, 0.0);
}

double MaxFlow::residual_on(std::size_t edge_id) const {
  FIB_ASSERT(edge_id < edge_refs_.size(), "residual_on: bad edge id");
  const auto [node, index] = edge_refs_[edge_id];
  return graph_[node][index].capacity;
}

std::vector<double> MaxFlow::flows() const {
  std::vector<double> out(edge_refs_.size());
  for (std::size_t e = 0; e < edge_refs_.size(); ++e) out[e] = flow_on(e);
  return out;
}

void MaxFlow::widen(std::size_t edge_id, double extra) {
  FIB_ASSERT(edge_id < edge_refs_.size(), "widen: bad edge id");
  FIB_ASSERT(extra >= 0.0, "widen: negative capacity delta");
  const auto [node, index] = edge_refs_[edge_id];
  graph_[node][index].capacity += extra;
  original_capacity_[edge_id] += extra;
}

bool MaxFlow::push_residual(std::size_t s, std::size_t t, double amount,
                            const std::vector<std::size_t>& banned) {
  FIB_ASSERT(s < graph_.size() && t < graph_.size(), "push_residual: bad endpoint");
  if (s == t || amount <= kFlowEps) return false;

  // Both directions of a banned edge are off limits (the caller is moving
  // flow onto / off that very edge; a path through either arc would just
  // undo the move).
  std::vector<std::pair<std::size_t, std::size_t>> banned_arcs;
  for (const std::size_t e : banned) {
    FIB_ASSERT(e < edge_refs_.size(), "push_residual: bad banned edge id");
    const auto [node, index] = edge_refs_[e];
    banned_arcs.emplace_back(node, index);
    banned_arcs.emplace_back(graph_[node][index].to, graph_[node][index].rev);
  }
  const auto is_banned = [&](std::size_t node, std::size_t index) {
    return std::find(banned_arcs.begin(), banned_arcs.end(),
                     std::make_pair(node, index)) != banned_arcs.end();
  };

  // 0-1 BFS minimizing the number of forward arcs used: cancellation arcs
  // (cost 0) reroute flow that already exists, forward arcs (cost 1) add
  // fresh flow that could form a throwaway circulation.
  constexpr std::size_t kUnset = static_cast<std::size_t>(-1);
  std::vector<std::size_t> cost(graph_.size(), kUnset);
  std::vector<std::pair<std::size_t, std::size_t>> parent_arc(
      graph_.size(), {kUnset, kUnset});  // (node, index) of arriving arc
  std::deque<std::size_t> queue;
  cost[s] = 0;
  queue.push_back(s);
  // Slack scales with the magnitude pushed, like push_on_edge's.
  const double arc_slack = kFlowEps * std::max(1.0, amount);
  while (!queue.empty()) {
    const std::size_t v = queue.front();
    queue.pop_front();
    for (std::size_t i = 0; i < graph_[v].size(); ++i) {
      const Edge& e = graph_[v][i];
      if (e.capacity < amount - arc_slack || is_banned(v, i)) continue;
      const std::size_t nd = cost[v] + (e.forward ? 1 : 0);
      if (cost[e.to] != kUnset && cost[e.to] <= nd) continue;
      cost[e.to] = nd;
      parent_arc[e.to] = {v, i};
      if (e.forward) {
        queue.push_back(e.to);
      } else {
        queue.push_front(e.to);
      }
    }
  }
  if (cost[t] == kUnset) return false;

  for (std::size_t v = t; v != s;) {
    const auto [u, i] = parent_arc[v];
    Edge& e = graph_[u][i];
    e.capacity -= amount;
    if (e.capacity < 0.0) e.capacity = 0.0;  // slack-admitted arc, rounding
    graph_[e.to][e.rev].capacity += amount;
    v = u;
  }
  return true;
}

void MaxFlow::push_on_edge(std::size_t edge_id, double amount) {
  FIB_ASSERT(edge_id < edge_refs_.size(), "push_on_edge: bad edge id");
  const auto [node, index] = edge_refs_[edge_id];
  Edge& e = graph_[node][index];
  Edge& rev = graph_[e.to][e.rev];
  // Slack scales with the magnitude pushed (an absolute epsilon is
  // invisible against multi-Gbps flows); the applied amount is clamped to
  // what is actually available so rounding never drives a residual
  // negative.
  const double slack = kFlowEps * std::max(1.0, std::abs(amount));
  if (amount >= 0.0) {
    FIB_ASSERT(e.capacity >= amount - slack, "push_on_edge: beyond residual");
    amount = std::min(amount, e.capacity);
  } else {
    FIB_ASSERT(rev.capacity >= -amount - slack, "push_on_edge: beyond flow");
    amount = -std::min(-amount, rev.capacity);
  }
  e.capacity -= amount;
  rev.capacity += amount;
}

}  // namespace fibbing::te
