#include "core/augment.hpp"

#include <algorithm>
#include <map>

#include "core/verify.hpp"
#include "igp/spf.hpp"
#include "proto/translate.hpp"
#include "util/logging.hpp"

namespace fibbing::core {

const char* to_string(CompileErrorKind kind) {
  switch (kind) {
    case CompileErrorKind::kBadRequirement: return "bad-requirement";
    case CompileErrorKind::kGranularity: return "granularity";
    case CompileErrorKind::kUnreachable: return "unreachable";
    case CompileErrorKind::kWrongInterface: return "wrong-interface";
    case CompileErrorKind::kUnrepairable: return "unrepairable";
    case CompileErrorKind::kWireAliasing: return "wire-aliasing";
  }
  return "unknown";
}

namespace {

using util::Result;

/// Per-router compilation plan: desired weighted next hops plus the mode
/// the repair loop has escalated it to.
struct NodePlan {
  std::vector<igp::WeightedNextHop> hops;  // in igp::lowest_terms
  bool strict = false;  // lies strictly beat the real route
  topo::Metric extra = 0;  // additional target decrements from repair rounds
};

std::string node_name(const topo::Topology& topo, topo::NodeId n) {
  return topo.node(n).name;
}

/// Weight of `via` in `hops` (sorted by via), 0 when absent.
std::uint32_t weight_of(const std::vector<igp::WeightedNextHop>& hops,
                        topo::NodeId via) {
  const auto it = std::ranges::lower_bound(hops, via, {}, &igp::WeightedNextHop::via);
  return it != hops.end() && it->via == via ? it->weight : 0;
}

}  // namespace

CompileResult compile_lies(const topo::Topology& topo,
                           const DestRequirement& req,
                           const AugmentConfig& config) {
  using R = CompileResult;
  using K = CompileErrorKind;
  if (const auto valid = validate_requirement(topo, req); !valid.ok()) {
    return R::failure(K::kBadRequirement, valid.error());
  }

  // One planning path: the view, the baseline tables, the per-router SPFs
  // and every verification round come from one route cache -- the caller's
  // when it describes this exact topology state, a local one otherwise.
  PlanningCache planning(topo, config.link_state, config.route_cache);
  igp::RouteCache& cache = planning.get();
  const igp::NetworkView& view = cache.view();
  const igp::RouteCache::TablesPtr baseline_tables = cache.tables({});
  const igp::RouteColumn& baseline = *cache.column(*baseline_tables, req.prefix);

  // Distance from u to the transfer subnet of link u<->via, and the check
  // that the subnet route actually steers out of that interface.
  struct SubnetCost {
    explicit SubnetCost(topo::Metric c) : cost(c) {}
    SubnetCost(CompileErrorKind k, std::string w)
        : kind(k), why(std::move(w)) {}
    [[nodiscard]] bool ok() const { return why.empty(); }
    topo::Metric cost = 0;
    CompileErrorKind kind = CompileErrorKind::kUnreachable;
    std::string why;
  };
  const auto subnet_route = [&](topo::NodeId u, topo::NodeId via) -> SubnetCost {
    const topo::LinkId l = topo.link_between(u, via);
    FIB_ASSERT(l != topo::kInvalidLink, "compile: non-adjacent (validated before)");
    const net::Prefix& subnet = topo.link(l).subnet;
    for (const auto& s : view.subnets()) {
      if (s.prefix != subnet) continue;
      const igp::SubnetRoute route = igp::route_to_subnet(cache.spf(u), s);
      std::size_t hops = 0;
      bool only_via = true;
      route.for_each_hop([&](topo::NodeId hop) {
        ++hops;
        only_via = only_via && hop == via;
      });
      if (hops != 1 || !only_via) {
        return SubnetCost{CompileErrorKind::kWrongInterface,
                          "lie at " + node_name(topo, u) + " toward " +
                              node_name(topo, via) +
                              " would not steer out of the intended interface "
                              "(shorter detour to the transfer subnet exists)"};
      }
      return SubnetCost{route.cost};
    }
    return SubnetCost{CompileErrorKind::kUnreachable,
                      "transfer subnet of " + node_name(topo, u) + "<->" +
                          node_name(topo, via) +
                          " not in the (degraded) view; lie cannot steer there"};
  };

  // The plan starts from the requirement in lowest terms; repair rounds add
  // pins and escalate modes.
  std::map<topo::NodeId, NodePlan> plan;
  for (const auto& [node, hops] : req.nodes) {
    plan.emplace(node, NodePlan{igp::lowest_terms(hops)});
  }

  Augmentation out;
  out.prefix = req.prefix;

  for (int round = 0; round <= config.max_repair_rounds; ++round) {
    out.repair_rounds = round;
    out.lies.clear();
    std::uint64_t next_id = config.first_lie_id;

    for (auto& [u, node_plan] : plan) {
      const igp::RouteEntry& base = baseline[u];
      if (!base.reachable()) {
        return R::failure(K::kUnreachable,
                          "prefix " + req.prefix.to_string() + " unreachable at " +
                              node_name(topo, u),
                          u);
      }
      if (base.local) {
        return R::failure(K::kBadRequirement,
                          "cannot place next-hop requirements at " +
                              node_name(topo, u) + ": it announces the prefix",
                          u);
      }

      // Decide mode: tie keeps the real route in the ECMP set, so it only
      // works when the plan's next hops cover all current ones (a route
      // entry's hops are sorted by via, like the plan's).
      const bool tie = !node_plan.strict &&
                       std::ranges::includes(node_plan.hops, base.next_hops, {},
                                             &igp::WeightedNextHop::via,
                                             &igp::WeightedNextHop::via);

      topo::Metric target = 0;
      std::uint32_t k = 1;  // tie mode: plan copies that dominate the real route
      if (tie) {
        target = base.cost;
        for (const auto& [via, w] : base.next_hops) {
          const std::uint32_t want = weight_of(node_plan.hops, via);
          k = std::max(k, (w + want - 1) / want);  // ceil(w / want)
        }
      } else {
        if (base.cost <= 1 + node_plan.extra) {
          return R::failure(K::kGranularity,
                            "insufficient metric granularity at " +
                                node_name(topo, u) +
                                " (target cost would be non-positive); scale the "
                                "IGP metrics",
                            u);
        }
        target = base.cost - 1 - node_plan.extra;
      }

      // Tie mode scales the plan by k and emits the difference to the real
      // route as lies; strict mode emits the plan itself.
      for (const auto& [via, want] : node_plan.hops) {
        const std::uint32_t copies =
            tie ? k * want - weight_of(base.next_hops, via) : want;
        if (copies == 0) continue;
        const auto sub = subnet_route(u, via);
        if (!sub.ok()) return R::failure(sub.kind, sub.why, u);
        if (target < sub.cost) {
          return R::failure(
              K::kGranularity,
              "insufficient metric granularity at " + node_name(topo, u) +
                  " toward " + node_name(topo, via) + ": target " +
                  std::to_string(target) + " below interface distance " +
                  std::to_string(sub.cost) + "; scale the IGP metrics",
              u);
        }
        const topo::Metric ext = target - sub.cost;
        for (std::uint32_t c = 0; c < copies; ++c) {
          Lie lie;
          lie.id = next_id++;
          lie.name = "f_" + node_name(topo, u) + "_" + node_name(topo, via) + "_" +
                     std::to_string(c + 1);
          lie.prefix = req.prefix;
          lie.attach = u;
          lie.via = via;
          lie.ext_metric = ext;
          lie.target_cost = target;
          lie.forwarding_address = lie_forwarding_address(topo, u, via);
          out.lies.push_back(std::move(lie));
        }
      }
    }

    const VerifyReport report =
        verify_augmentation(topo, req, out.lies, &cache.link_state(), &cache);
    if (report.ok()) {
      out.naive_lie_count = out.lies.size();
      break;
    }
    if (round == config.max_repair_rounds) {
      return R::failure(K::kUnrepairable,
                        "augmentation did not verify after " +
                            std::to_string(round) + " repair rounds: " +
                            report.to_string(topo));
    }

    // Repair: pin polluted routers to their baseline behaviour (strict
    // mode), escalate required routers whose realization was undercut.
    bool adjusted = false;
    for (const VerifyIssue& issue : report.issues) {
      if (issue.kind == VerifyIssueKind::kLoop) continue;  // fixed by pins
      const auto plan_it = plan.find(issue.node);
      if (plan_it == plan.end()) {
        if (!baseline[issue.node].reachable()) continue;
        plan.emplace(issue.node,
                     NodePlan{igp::lowest_terms(baseline[issue.node].next_hops), true});
        ++out.pinned_nodes;
        adjusted = true;
        FIB_LOG(kDebug, "augment") << "pinning polluted router "
                                   << node_name(topo, issue.node);
      } else if (!plan_it->second.strict) {
        plan_it->second.strict = true;
        adjusted = true;
      } else {
        ++plan_it->second.extra;
        adjusted = true;
      }
    }
    if (!adjusted) {
      return R::failure(K::kUnrepairable, "augmentation cannot be repaired: " +
                                              report.to_string(topo));
    }
  }

  if (config.reduce) {
    // Greedy verification-driven reduction (Merger-flavoured): drop any lie
    // whose removal keeps the augmentation correct.
    for (std::size_t i = out.lies.size(); i-- > 0;) {
      std::vector<Lie> candidate = out.lies;
      candidate.erase(candidate.begin() + static_cast<long>(i));
      if (verify_augmentation(topo, req, candidate, &cache.link_state(), &cache).ok()) {
        out.lies = std::move(candidate);
      }
    }
  }

  // Wire realizability: every lie becomes an External-LSA whose identity is
  // the prefix network with the lie id folded into the host bits (appendix
  // E). Ids colliding modulo 2^(32-len) share one identity and would
  // silently supersede each other in every LSDB -- refuse to emit such a
  // set (possible once more than 2^(32-len) lies coexist for one prefix,
  // e.g. dozens of copies against a /28).
  {
    std::map<std::uint32_t, std::uint64_t> wire_ids;
    for (const Lie& lie : out.lies) {
      const std::uint32_t wire_id = proto::external_ls_id(lie.prefix, lie.id);
      const auto [it, inserted] = wire_ids.emplace(wire_id, lie.id);
      if (!inserted) {
        return R::failure(
            K::kWireAliasing,
            "lies " + std::to_string(it->second) + " and " +
                std::to_string(lie.id) + " for " + req.prefix.to_string() +
                " collide modulo 2^(32-len) in the appendix-E host bits (at "
                "most " + std::to_string(proto::max_coexisting_lies(req.prefix)) +
                " coexisting lies are wire-distinguishable)");
      }
    }
  }
  return out;
}

}  // namespace fibbing::core
