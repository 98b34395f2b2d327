#include "core/verify.hpp"

#include <numeric>
#include <sstream>

#include "core/loads.hpp"
#include "util/assert.hpp"

namespace fibbing::core {

namespace {

Distribution reduce(Distribution dist) {
  std::uint32_t g = 0;
  for (const auto& [via, w] : dist) g = std::gcd(g, w);
  if (g > 1) {
    for (auto& [via, w] : dist) w /= g;
  }
  return dist;
}

std::string format_distribution(const Distribution& dist, const topo::Topology& topo) {
  std::string out = "{";
  bool first = true;
  for (const auto& [via, w] : dist) {
    if (!first) out += ", ";
    first = false;
    out += topo.node(via).name + ":" + std::to_string(w);
  }
  return out + "}";
}

}  // namespace

Distribution normalize(const igp::RouteEntry& entry) {
  Distribution dist;
  for (const auto& nh : entry.next_hops) dist[nh.via] += nh.weight;
  return reduce(std::move(dist));
}

Distribution normalize(const std::vector<NextHopReq>& hops) {
  Distribution dist;
  for (const auto& nh : hops) dist[nh.via] += nh.copies;
  return reduce(std::move(dist));
}

std::string VerifyReport::to_string(const topo::Topology& topo) const {
  if (ok()) return "augmentation verified";
  std::ostringstream out;
  out << issues.size() << " issue(s):";
  for (const VerifyIssue& issue : issues) {
    out << "\n  [" << (issue.node < topo.node_count() ? topo.node(issue.node).name
                                                      : std::string("-"))
        << "] " << issue.what;
  }
  return out.str();
}

PlanningCache::PlanningCache(const topo::Topology& topo,
                             const topo::LinkStateMask* link_state,
                             igp::RouteCache* shared)
    : cache_(shared) {
  if (cache_ != nullptr && &cache_->topology() == &topo &&
      link_state == &cache_->link_state()) {
    return;
  }
  if (link_state == nullptr) link_state = &pristine_.emplace(topo);
  cache_ = &local_.emplace(topo, *link_state);
}

VerifyReport verify_augmentation(const topo::Topology& topo,
                                 const DestRequirement& req,
                                 const std::vector<Lie>& lies,
                                 const topo::LinkStateMask* link_state,
                                 igp::RouteCache* cache) {
  VerifyReport report;

  // Split lies: those for req.prefix shape the target; all others belong to
  // the environment and are present in both baseline and augmented views.
  std::vector<Lie> own;
  std::vector<Lie> other;
  for (const Lie& lie : lies) {
    (lie.prefix == req.prefix ? own : other).push_back(lie);
  }

  PlanningCache planning(topo, link_state, cache);
  const auto baseline_ptr = planning.get().tables(to_externals(other));
  const auto augmented_ptr = planning.get().tables(to_externals(lies));
  const auto& baseline = *baseline_ptr;
  const auto& augmented = *augmented_ptr;

  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    // --- requirement / pollution for req.prefix --------------------------
    const auto base_it = baseline[n].find(req.prefix);
    const auto aug_it = augmented[n].find(req.prefix);
    const auto req_it = req.nodes.find(n);
    if (req_it != req.nodes.end()) {
      if (aug_it == augmented[n].end()) {
        report.issues.push_back(
            {VerifyIssueKind::kNoRoute, n, "required prefix has no route"});
      } else {
        const Distribution want = normalize(req_it->second);
        const Distribution got = normalize(aug_it->second);
        if (want != got) {
          report.issues.push_back(
              {VerifyIssueKind::kRequirementNotMet, n,
               "requirement not met: want " + format_distribution(want, topo) +
                   ", got " + format_distribution(got, topo)});
        }
      }
    } else {
      const Distribution before =
          base_it == baseline[n].end() ? Distribution{} : normalize(base_it->second);
      const Distribution after =
          aug_it == augmented[n].end() ? Distribution{} : normalize(aug_it->second);
      const bool was_local = base_it != baseline[n].end() && base_it->second.local;
      const bool is_local = aug_it != augmented[n].end() && aug_it->second.local;
      if (before != after || was_local != is_local) {
        report.issues.push_back(
            {VerifyIssueKind::kPolluted, n,
             "polluted: forwarding changed from " + format_distribution(before, topo) +
                 " to " + format_distribution(after, topo)});
      }
    }

    // --- per-destination isolation ----------------------------------------
    for (const auto& [prefix, entry] : baseline[n]) {
      if (prefix == req.prefix) continue;
      const auto other_it = augmented[n].find(prefix);
      if (other_it == augmented[n].end() || !(other_it->second == entry)) {
        report.issues.push_back(
            {VerifyIssueKind::kIsolationViolated, n,
             "isolation violated: route for " + prefix.to_string() + " changed"});
      }
    }
  }

  // --- loop freedom ---------------------------------------------------------
  // Follow every achieved next hop; the union must be a DAG.
  if (forwarding_loops(topo, augmented, req.prefix)) {
    report.issues.push_back(
        {VerifyIssueKind::kLoop, topo::kInvalidNode,
         "forwarding loop detected for " + req.prefix.to_string()});
  }
  return report;
}

}  // namespace fibbing::core
