#include "core/verify.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <sstream>

#include "core/loads.hpp"
#include "util/assert.hpp"

namespace fibbing::core {

namespace {

/// `hops` in lowest terms, e.g. "{R2:1, R3:2}".
std::string format_split(std::span<const igp::WeightedNextHop> hops,
                         const topo::Topology& topo) {
  std::string out = "{";
  bool first = true;
  for (const auto& [via, w] : igp::lowest_terms(hops)) {
    if (!first) out += ", ";
    first = false;
    out += topo.node(via).name + ":" + std::to_string(w);
  }
  return out + "}";
}

}  // namespace

bool same_split(std::span<const igp::WeightedNextHop> a,
                std::span<const igp::WeightedNextHop> b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  // The first pair fixes the ratio (a zero one fixes none); every pair must
  // cross-multiply to it.
  const std::uint64_t a0 = a[0].weight;
  const std::uint64_t b0 = b[0].weight;
  if (a0 == 0 || b0 == 0) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].via != b[i].via || a[i].weight * b0 != b[i].weight * a0) return false;
  }
  return true;
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

  // Lies for req.prefix shape the target; all others belong to the
  // environment and are present in both baseline and augmented views.
  const std::vector<igp::NetworkView::External> externals = to_externals(lies);
  std::vector<igp::NetworkView::External> environment;
  std::ranges::copy_if(externals, std::back_inserter(environment),
                       [&](const auto& ext) { return ext.prefix != req.prefix; });

  PlanningCache planning(topo, link_state, cache);
  igp::RouteCache& routes = planning.get();
  const igp::RouteCache::TablesPtr baseline = routes.tables(environment);
  const igp::RouteCache::TablesPtr augmented = routes.tables(externals);
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
    const auto req_it = req.nodes.find(n);
    if (req_it != req.nodes.end()) {
      if (!aug.reachable()) {
        report.issues.push_back(
            {VerifyIssueKind::kNoRoute, n, "required prefix has no route"});
      } else {
        // Route entries list each via once, in order, and so does
        // requirement_from_splits; other requirements compare in lowest terms.
        std::span<const igp::WeightedNextHop> want = req_it->second;
        std::vector<igp::WeightedNextHop> merged;
        if (std::ranges::adjacent_find(want, std::ranges::greater_equal{},
                                       &igp::WeightedNextHop::via) != want.end()) {
          want = merged = igp::lowest_terms(req_it->second);
        }
        if (!same_split(want, aug.next_hops)) {
          report.issues.push_back(
              {VerifyIssueKind::kRequirementNotMet, n,
               "requirement not met: want " + format_split(want, topo) + ", got " +
                   format_split(aug.next_hops, topo)});
        }
      }
    } else if (!(aug == base) &&
               (base.local != aug.local || !same_split(base.next_hops, aug.next_hops))) {
      // An unreachable entry has no next hops and is not local: its split is
      // the empty one.
      report.issues.push_back({VerifyIssueKind::kPolluted, n,
                               "polluted: forwarding changed from " +
                                   format_split(base.next_hops, topo) + " to " +
                                   format_split(aug.next_hops, topo)});
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
