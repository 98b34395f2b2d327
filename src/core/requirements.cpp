#include "core/requirements.hpp"

#include <algorithm>

#include "te/ratio.hpp"
#include "util/assert.hpp"

namespace fibbing::core {

DestRequirement requirement_from_splits(const net::Prefix& prefix,
                                        const te::SplitMap& splits,
                                        std::uint32_t max_replicas) {
  DestRequirement req;
  req.prefix = prefix;
  for (const auto& [node, split] : splits) {
    // Fractions smaller than half a FIB slot cannot be represented; drop
    // them and renormalize (the optimizer's placement degrades negligibly,
    // and one lie fewer is injected).
    const double cutoff = 0.5 / static_cast<double>(max_replicas);
    std::vector<std::pair<topo::NodeId, double>> kept;
    double total = 0.0;
    for (const auto& [via, frac] : split) {
      if (frac >= cutoff) {
        kept.emplace_back(via, frac);
        total += frac;
      }
    }
    FIB_ASSERT(!kept.empty(), "requirement_from_splits: node with empty split");
    if (kept.size() > max_replicas) {
      // Every kept share needs a FIB slot: keep the largest max_replicas
      // (ties to the lower node id) and renormalize over them.
      std::sort(kept.begin(), kept.end(), [](const auto& a, const auto& b) {
        return a.second != b.second ? a.second > b.second : a.first < b.first;
      });
      kept.resize(max_replicas);
      total = 0.0;
      for (const auto& [via, frac] : kept) total += frac;
    }
    std::vector<double> fractions;
    fractions.reserve(kept.size());
    for (auto& [via, frac] : kept) fractions.push_back(frac / total);
    const std::vector<std::uint32_t> weights =
        te::approximate_ratios(fractions, max_replicas);
    std::vector<igp::WeightedNextHop> hops;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (weights[i] == 0) continue;
      hops.push_back(igp::WeightedNextHop{kept[i].first, weights[i]});
    }
    std::sort(hops.begin(), hops.end());
    req.nodes.emplace(node, std::move(hops));
  }
  return req;
}

util::Status validate_requirement(const topo::Topology& topo,
                                  const DestRequirement& req) {
  const auto announcers = topo.attachments_for(req.prefix);
  if (announcers.empty()) {
    return util::Status::failure("requirement: prefix " + req.prefix.to_string() +
                                 " is not announced by any router");
  }
  std::vector<bool> is_announcer(topo.node_count(), false);
  for (const auto& att : announcers) is_announcer[att.node] = true;

  for (const auto& [node, hops] : req.nodes) {
    if (node >= topo.node_count()) {
      return util::Status::failure("requirement: unknown node id");
    }
    if (hops.empty()) {
      return util::Status::failure("requirement: node " + topo.node(node).name +
                                   " has an empty next-hop set");
    }
    for (const igp::WeightedNextHop& nh : hops) {
      if (nh.weight == 0) {
        return util::Status::failure("requirement: zero copies at " +
                                     topo.node(node).name);
      }
      if (topo.link_between(node, nh.via) == topo::kInvalidLink) {
        return util::Status::failure("requirement: " + topo.node(node).name +
                                     " is not adjacent to " + topo.node(nh.via).name);
      }
    }
  }

  // Acyclicity + reachability: walk requirement edges; nodes without an
  // explicit requirement are terminals only if they announce the prefix or
  // will keep IGP routes (checked against loops separately by the verifier,
  // which sees the full picture). Here: no cycle among required nodes.
  enum class Mark { kWhite, kGrey, kBlack };
  std::vector<Mark> mark(topo.node_count(), Mark::kWhite);
  std::string cycle_error;
  auto dfs = [&](auto&& self, topo::NodeId u) -> bool {  // false on cycle
    mark[u] = Mark::kGrey;
    const auto it = req.nodes.find(u);
    if (it != req.nodes.end()) {
      for (const igp::WeightedNextHop& nh : it->second) {
        if (mark[nh.via] == Mark::kGrey) {
          cycle_error = "requirement: cycle through " + topo.node(nh.via).name;
          return false;
        }
        if (mark[nh.via] == Mark::kWhite && !self(self, nh.via)) return false;
      }
    }
    mark[u] = Mark::kBlack;
    return true;
  };
  for (const auto& [node, hops] : req.nodes) {
    if (mark[node] == Mark::kWhite && !dfs(dfs, node)) {
      return util::Status::failure(cycle_error);
    }
  }
  return {};
}

}  // namespace fibbing::core
