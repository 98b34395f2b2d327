#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/lie.hpp"
#include "core/requirements.hpp"
#include "igp/route_cache.hpp"
#include "igp/routes.hpp"
#include "topo/link_state.hpp"
#include "topo/topology.hpp"

namespace fibbing::core {

/// Whether two next-hop sets, each sorted by `via` with one entry per via,
/// split traffic alike: the same vias with proportional weights, so their
/// igp::lowest_terms are equal. Weights are positive, as a route entry's
/// are and validate_requirement demands; a zero first weight compares unequal.
[[nodiscard]] bool same_split(std::span<const igp::WeightedNextHop> a,
                              std::span<const igp::WeightedNextHop> b);

/// What went wrong at one verification site. The repair loop branches on
/// this (loops are fixed by the pins the other kinds request; they carry no
/// node to pin), and compile_lies maps terminal reports into its own
/// structured failure kinds.
enum class VerifyIssueKind {
  kNoRoute,            ///< required router has no route to the prefix at all
  kRequirementNotMet,  ///< realized distribution differs from the requirement
  kPolluted,           ///< non-required router's forwarding changed
  kIsolationViolated,  ///< a route for a *different* prefix changed
  kLoop,               ///< achieved forwarding graph has a directed cycle
};

/// One discrepancy found by the verifier.
struct VerifyIssue {
  VerifyIssueKind kind = VerifyIssueKind::kRequirementNotMet;
  topo::NodeId node = topo::kInvalidNode;
  std::string what;
};

struct VerifyReport {
  std::vector<VerifyIssue> issues;
  [[nodiscard]] bool ok() const { return issues.empty(); }
  [[nodiscard]] std::string to_string(const topo::Topology& topo) const;
};

/// Check that installing `lies` on `topo` realizes `req` exactly:
///   1. every required router's split for req.prefix matches (same_split;
///      hops listed unsorted or with a via twice compare in lowest terms);
///   2. every other router's split for req.prefix is unchanged from the
///      lie-free baseline (no pollution);
///   3. routes for every other prefix are bit-identical (per-destination
///      isolation -- the structural Fibbing guarantee);
///   4. the achieved forwarding graph for req.prefix is loop-free.
/// `lies` may contain lies for other prefixes (they are installed too, and
/// property 3 is then asserted against a baseline that includes them).
/// `link_state` (optional) verifies on the degraded topology: baseline and
/// augmented routes are both computed without the down links, exactly what
/// converged routers would hold.
/// `cache` (optional, not owned) serves both route-table sets when it
/// describes `topo` under `link_state`; otherwise a local PlanningCache does.
[[nodiscard]] VerifyReport verify_augmentation(
    const topo::Topology& topo, const DestRequirement& req,
    const std::vector<Lie>& lies,
    const topo::LinkStateMask* link_state = nullptr,
    igp::RouteCache* cache = nullptr);

/// The route cache one compile_lies or verify_augmentation call plans on:
/// `shared` when it describes `topo` under `link_state`, otherwise a local
/// cache over `topo` and `link_state` (a pristine mask when that is null).
/// Cache-served tables are bit-identical to fresh all-pairs SPF runs, so the
/// choice changes the cost of a call, never its result.
class PlanningCache {
 public:
  PlanningCache(const topo::Topology& topo, const topo::LinkStateMask* link_state,
                igp::RouteCache* shared);
  PlanningCache(const PlanningCache&) = delete;
  PlanningCache& operator=(const PlanningCache&) = delete;

  [[nodiscard]] igp::RouteCache& get() { return *cache_; }

 private:
  std::optional<topo::LinkStateMask> pristine_;
  std::optional<igp::RouteCache> local_;
  igp::RouteCache* cache_;
};

}  // namespace fibbing::core
