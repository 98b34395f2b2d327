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

RequiredDistributions normalize(const DestRequirement& req) {
  RequiredDistributions want;
  for (const auto& [node, hops] : req.nodes) want.emplace(node, normalize(hops));
  return want;
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
  return verify_normalized(topo, req, normalize(req), lies, link_state, cache);
}

VerifyReport verify_normalized(const topo::Topology& topo, const DestRequirement& req,
                               const RequiredDistributions& want,
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
  igp::RouteCache& routes = planning.get();
  const igp::RouteCache::TablesPtr baseline = routes.tables(to_externals(other));
  const igp::RouteCache::TablesPtr augmented = routes.tables(to_externals(lies));
  const igp::RouteColumn& base_col = *routes.column(*baseline, req.prefix);
  const igp::RouteColumn& aug_col = *routes.column(*augmented, req.prefix);

  // Isolation compares only the other prefixes' columns the two table sets
  // do not share: a shared column is the same routes at every router.
  struct Unshared {
    const net::Prefix* prefix;
    const igp::RouteColumn* before;
    const igp::RouteColumn* after;
  };
  std::vector<Unshared> unshared;
  for (const auto& [prefix, column] : *baseline) {
    if (prefix == req.prefix) continue;
    const igp::RouteCache::ColumnPtr& after = routes.column(*augmented, prefix);
    if (after != column) unshared.push_back({&prefix, column.get(), after.get()});
  }

  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    // --- requirement / pollution for req.prefix --------------------------
    const igp::RouteEntry& base = base_col[n];
    const igp::RouteEntry& aug = aug_col[n];
    const auto want_it = want.find(n);
    if (want_it != want.end()) {
      if (!aug.reachable()) {
        report.issues.push_back(
            {VerifyIssueKind::kNoRoute, n, "required prefix has no route"});
      } else {
        const Distribution got = normalize(aug);
        if (want_it->second != got) {
          report.issues.push_back(
              {VerifyIssueKind::kRequirementNotMet, n,
               "requirement not met: want " + format_distribution(want_it->second, topo) +
                   ", got " + format_distribution(got, topo)});
        }
      }
    } else if (!(aug == base)) {
      // An unreachable entry has no next hops and is not local, so it
      // normalizes to the empty distribution.
      const Distribution before = normalize(base);
      const Distribution after = normalize(aug);
      if (before != after || base.local != aug.local) {
        report.issues.push_back(
            {VerifyIssueKind::kPolluted, n,
             "polluted: forwarding changed from " + format_distribution(before, topo) +
                 " to " + format_distribution(after, topo)});
      }
    }

    // --- per-destination isolation ----------------------------------------
    // Only a router with a baseline route for the other prefix is checked.
    for (const Unshared& other_prefix : unshared) {
      const igp::RouteEntry& entry = (*other_prefix.before)[n];
      if (entry.reachable() && !((*other_prefix.after)[n] == entry)) {
        report.issues.push_back({VerifyIssueKind::kIsolationViolated, n,
                                 "isolation violated: route for " +
                                     other_prefix.prefix->to_string() + " changed"});
      }
    }
  }

  // --- loop freedom ---------------------------------------------------------
  // Follow every achieved next hop; the union must be a DAG.
  if (forwarding_loops(topo, aug_col)) {
    report.issues.push_back(
        {VerifyIssueKind::kLoop, topo::kInvalidNode,
         "forwarding loop detected for " + req.prefix.to_string()});
  }
  return report;
}

}  // namespace fibbing::core
