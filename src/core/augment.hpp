#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/lie.hpp"
#include "core/requirements.hpp"
#include "igp/route_cache.hpp"
#include "topo/link_state.hpp"
#include "topo/topology.hpp"
#include "util/result.hpp"

namespace fibbing::core {

struct AugmentConfig {
  /// First External-LSA id to allocate (the caller keeps ids unique across
  /// prefixes and recompilations).
  std::uint64_t first_lie_id = 1;
  /// Bound on verify-repair iterations (each pins polluted routers or
  /// lowers a target cost; realistic inputs converge in 1-2 rounds).
  int max_repair_rounds = 8;
  /// Run the greedy verification-driven reduction pass (drop every lie
  /// whose removal keeps the augmentation correct). The Simple/reduced
  /// difference is measured by bench_lies.
  bool reduce = true;
  /// Live topology state (optional, not owned): compile and verify on the
  /// degraded topology instead of the pristine static one. A lie that would
  /// steer over a down link cannot compile -- its transfer /30 is absent
  /// from the degraded view.
  const topo::LinkStateMask* link_state = nullptr;
  /// Shared route-computation cache (optional, not owned): the baseline
  /// tables, the per-router SPFs and every verification round's table sets
  /// are served from it instead of fresh all-pairs runs. Used only when it
  /// describes the same topology and the same mask as `link_state`, else a
  /// local cache plans (PlanningCache); the compiled output is bit-identical
  /// either way. The controller passes its
  /// own instance so a mitigation's solve -> compile -> verify pipeline
  /// computes each baseline exactly once.
  igp::RouteCache* route_cache = nullptr;
};

/// A compiled augmentation for one destination prefix.
struct Augmentation {
  net::Prefix prefix;
  std::vector<Lie> lies;
  /// Lie count before the reduction pass (the Simple algorithm's output).
  std::size_t naive_lie_count = 0;
  /// Routers pinned by the repair loop (pollution victims that now carry
  /// explicit keep-your-paths lies).
  std::size_t pinned_nodes = 0;
  int repair_rounds = 0;
};

/// Why a requirement could not be compiled into lies. Callers branch on
/// this (the controller's fallback ladder re-solves on kGranularity and
/// gives up on the rest), so the kinds are part of the API -- the message
/// is diagnostics only.
enum class CompileErrorKind {
  /// Structurally invalid requirement (unknown/non-adjacent hops, cycles,
  /// zero copies, or a requirement at a router that announces the prefix).
  kBadRequirement,
  /// The IGP's integer metrics leave no room for the needed target cost
  /// (strict-mode undercutting at coarse metrics). The remedies are the
  /// optimizer-side tie-preserving refinement, the controller's theta
  /// fallback ladder, or scaling the real metrics.
  kGranularity,
  /// The prefix -- or the lie's transfer subnet -- is absent from the
  /// (possibly degraded) view: no lie can steer traffic there.
  kUnreachable,
  /// The lie's forwarding address would not steer out of the intended
  /// interface (a shorter detour to the transfer subnet exists).
  kWrongInterface,
  /// Verification kept failing after the repair-round budget.
  kUnrepairable,
  /// The compiled lie set cannot be expressed on the wire: two coexisting
  /// lies for the prefix have ids that collide modulo 2^(32-len) (appendix-E
  /// host bits), so their External-LSAs would share one wire identity and
  /// silently supersede each other. Remedy: a longer prefix, or lie ids
  /// chosen apart modulo the host-bit space.
  kWireAliasing,
};

[[nodiscard]] const char* to_string(CompileErrorKind kind);

/// util::Result<Augmentation> with a typed error channel: ok() / value() /
/// error() keep the Result idiom (callers that only propagate or log need
/// no changes), while error_kind() / error_node() expose the structured
/// cause to callers that branch, like the controller's fallback ladder.
class [[nodiscard]] CompileResult {
 public:
  CompileResult(Augmentation value)  // NOLINT: implicit by design
      : value_(std::move(value)) {}
  static CompileResult failure(CompileErrorKind kind, std::string why,
                               topo::NodeId node = topo::kInvalidNode) {
    CompileResult out;
    out.kind_ = kind;
    out.node_ = node;
    out.why_ = std::move(why);
    return out;
  }

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const Augmentation& value() const& {
    FIB_ASSERT(ok(), why_.c_str());
    return *value_;
  }
  [[nodiscard]] Augmentation&& value() && {
    FIB_ASSERT(ok(), why_.c_str());
    return std::move(*value_);
  }
  [[nodiscard]] const std::string& error() const {
    FIB_ASSERT(!ok(), "CompileResult::error() called on success");
    return why_;
  }
  [[nodiscard]] CompileErrorKind error_kind() const {
    FIB_ASSERT(!ok(), "CompileResult::error_kind() called on success");
    return kind_;
  }
  /// Offending router when the failure is attributable to one.
  [[nodiscard]] topo::NodeId error_node() const {
    FIB_ASSERT(!ok(), "CompileResult::error_node() called on success");
    return node_;
  }

 private:
  CompileResult() = default;

  std::optional<Augmentation> value_;
  CompileErrorKind kind_ = CompileErrorKind::kUnrepairable;
  topo::NodeId node_ = topo::kInvalidNode;
  std::string why_;
};

/// Compile a per-destination forwarding requirement into a set of lies.
///
/// The algorithm (the paper's "Simple" augmentation with a verification
/// loop):
///   1. For every required router u, pick a target cost T(u): equal to u's
///      current best (tie mode, keeps real ECMP paths in the set) when the
///      required next hops include all current ones, otherwise one metric
///      unit below (strict mode, lies replace the real route).
///   2. Emit one External-LSA per required (u, via, copy): forwarding
///      address = via's interface on the u<->via link, external metric =
///      T(u) - dist_u(forwarding subnet).
///   3. Re-run SPF with the lies and verify every router: required routers
///      must match exactly; all others must be bit-compatible with the
///      lie-free baseline. Pollution victims get pinned (explicit lies
///      strictly preferring their original next hops) and the loop repeats.
///
/// Fails (CompileResult with a structured kind) when the requirement cannot
/// be realized -- most commonly kGranularity: the IGP's integer metrics
/// leave no room between two path costs. The fixes are the optimizer-side
/// refinement / fallback ladder, or scaling the real metrics, see
/// make_paper_topology().
CompileResult compile_lies(const topo::Topology& topo,
                           const DestRequirement& req,
                           const AugmentConfig& config = {});

}  // namespace fibbing::core
