#include "core/controller.hpp"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include "core/loads.hpp"
#include "util/logging.hpp"

namespace fibbing::core {

namespace {
/// The fallback ladder's theta relaxations, tried in order (see place_prefix).
constexpr double kThetaRelaxSchedule[] = {0.02, 0.05, 0.10, 0.25};
}  // namespace

Controller::Controller(const topo::Topology& topo, igp::IgpDomain& domain,
                       monitor::NotificationBus& bus, util::EventQueue& events,
                       ControllerConfig config)
    : topo_(topo),
      domain_(domain),
      events_(events),
      config_(config),
      session_(domain.controller_session(config.session_router)),
      detector_(topo, config.high_watermark, config.low_watermark,
                config.hold_rounds),
      cache_(topo, domain.link_state()) {
  bus.subscribe([this](const monitor::DemandNotice& notice) { on_notice_(notice); });
  domain_.link_state().subscribe(
      [this](topo::LinkId link, bool down) { on_topology_change_(link, down); });
  detector_.subscribe([this](const monitor::CongestionDetector::Event& event) {
    if (!config_.enabled) return;
    if (event.state == monitor::CongestionDetector::LinkState::kCongested) {
      FIB_LOG(kInfo, "controller")
          << "SNMP congestion on " << topo_.link_name(event.link) << " (util "
          << event.utilization << "): mitigating";
      trace_root_(obs::Stage::kMonitor, event.link);
      mitigate_();
    } else {
      maybe_retract_();
    }
  });
}

void Controller::on_loads(const std::vector<monitor::LinkLoad>& loads) {
  detector_.observe(loads);
  // The detector signals *transitions*; a link that stays congested while
  // new demand arrives produces no edge. React to level + pending work:
  // anything congested while un-placed demand changes exist means the
  // current lie set is stale.
  if (config_.enabled && !dirty_.empty() && detector_.any_congested()) {
    trace_root_(obs::Stage::kMonitor, 0);
    mitigate_();
  }
}

void Controller::trace_root_(obs::Stage stage, std::uint64_t detail) {
  if (tracer_ == nullptr || !tracer_->enabled() || pending_trace_ != 0) return;
  pending_trace_ = tracer_->next_trace_id();
  tracer_->emit(events_.now(), pending_trace_, stage, 'i', obs::kControllerNode,
                detail);
}

std::size_t Controller::active_lie_count() const {
  std::size_t n = 0;
  for (const auto& [prefix, lies] : active_) n += lies.size();
  return n;
}

double Controller::demand_for(const net::Prefix& prefix) const {
  const auto it = ledger_.find(prefix);
  if (it == ledger_.end()) return 0.0;
  double total = 0.0;
  for (const auto& [ingress, demand] : it->second) total += demand.rate_bps;
  return total;
}

void Controller::on_notice_(const monitor::DemandNotice& notice) {
  IngressDemand& entry = ledger_[notice.prefix][notice.ingress];
  entry.sessions += notice.delta_sessions;
  entry.rate_bps += notice.bitrate_bps * notice.delta_sessions;
  if (entry.sessions <= 0) ledger_[notice.prefix].erase(notice.ingress);
  load_memo_.erase(notice.prefix);  // the prefix's demand moved
  dirty_.insert(notice.prefix);
  if (!config_.enabled) return;
  if (config_.proactive) {
    schedule_evaluate_();
  } else if (notice.delta_sessions < 0) {
    // Even in reactive mode, departures may allow retraction.
    maybe_retract_();
  }
}

void Controller::schedule_evaluate_() {
  // Coalesce same-instant triggers (a request batch, a flapping link) into
  // one decision.
  if (eval_pending_) return;
  eval_pending_ = true;
  events_.schedule_in(0.0, [this] {
    eval_pending_ = false;
    evaluate_();
  });
}

void Controller::on_topology_change_(topo::LinkId link, bool down) {
  ++topology_events_;
  if (!config_.enabled) return;
  const topo::LinkStateMask& mask = domain_.link_state();
  (void)link;  // the forwarding diff below localizes the event more
               // precisely than the link id alone could

  // Placements whose lies steer over a link that just died, or whose
  // realized forwarding graph now loops (lie costs shift with the
  // topology), are stranded -- they must be re-placed or retracted even if
  // nothing is predicted hot, instead of limping on the dangling-FA
  // fallback.
  const igp::RouteCache::TablesPtr new_tables =
      cache_.tables(to_externals(all_lies_()));
  for (const auto& [prefix, lies] : active_) {
    if (forwarding_loops(topo_, *cache_.column(*new_tables, prefix))) {
      stranded_.insert(prefix);
      dirty_.insert(prefix);
      continue;
    }
    for (const Lie& lie : lies) {
      const topo::LinkId l = topo_.link_between(lie.attach, lie.via);
      if (l != topo::kInvalidLink && mask.is_down(l)) {
        stranded_.insert(prefix);
        dirty_.insert(prefix);
        break;
      }
    }
  }

  if (down && last_tables_ != nullptr) {
    // Failure: re-planning is scoped to the prefixes whose realized
    // forwarding actually shifted (routes differ from the pre-event
    // snapshot). A prefix whose traffic never crossed the dead link keeps
    // its placement and costs no optimizer work; if displaced traffic later
    // overloads one of its links, the ordinary congestion path re-plans the
    // displaced (dirty) prefixes around it.
    std::set<net::Prefix> candidates;
    for (const auto& [prefix, lies] : active_) candidates.insert(prefix);
    for (const auto& [prefix, ingresses] : ledger_) candidates.insert(prefix);
    for (const net::Prefix& prefix : candidates) {
      if (dirty_.contains(prefix)) continue;  // already slated for re-plan
      if (forwarding_changed_(prefix, *cache_.column(*last_tables_, prefix),
                              *cache_.column(*new_tables, prefix))) {
        dirty_.insert(prefix);
      }
    }
  } else {
    // Restoration (or no snapshot yet): every standing placement was solved
    // without the recovered link and every ledger prefix may now have a
    // better placement -- one global re-optimize pass.
    for (const auto& [prefix, lies] : active_) dirty_.insert(prefix);
    for (const auto& [prefix, ingresses] : ledger_) dirty_.insert(prefix);
    // A placement that failed on the old topology may succeed on the new
    // one (a failure only removes options, so scoped events keep the set).
    placement_failed_.clear();
  }
  schedule_evaluate_();
}

bool Controller::forwarding_changed_(const net::Prefix& prefix,
                                     const igp::RouteColumn& before,
                                     const igp::RouteColumn& after) const {
  // Only the nodes the prefix's traffic traverses matter for its placement:
  // walk the old forwarding graph from the demand ingresses, diffing each
  // visited node's entry. If every traffic-carrying node forwards exactly
  // as before, the realized loads are unchanged (propagation from the same
  // ingresses over identical entries) and the placement needs no re-solve;
  // route shifts at nodes that carry none of this prefix's traffic are the
  // other prefixes' problem. Loops in transient state are handled by the
  // stranded check, and the visited-set here makes the walk cycle-safe.
  std::vector<char> seen(topo_.node_count(), 0);
  std::vector<topo::NodeId> queue;
  const auto ledger_it = ledger_.find(prefix);
  if (ledger_it != ledger_.end()) {
    for (const auto& [ingress, demand] : ledger_it->second) {
      if (demand.rate_bps > 0.0 && !seen[ingress]) {
        seen[ingress] = 1;
        queue.push_back(ingress);
      }
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const topo::NodeId n = queue[head];
    const igp::RouteEntry& was = before[n];
    const igp::RouteEntry& now = after[n];
    if (!(was == now)) return true;
    if (was.local) continue;  // delivered here (a blackhole has no next hops)
    for (const auto& nh : was.next_hops) {
      if (!seen[nh.via]) {
        seen[nh.via] = 1;
        queue.push_back(nh.via);
      }
    }
  }
  return false;
}

void Controller::refresh_forwarding_snapshot_() {
  last_tables_ = cache_.tables(to_externals(all_lies_()));
}

const std::vector<double>& Controller::prefix_loads_(
    const net::Prefix& prefix, const igp::RouteCache::TablesPtr& tables) {
  PrefixLoadMemo& memo = load_memo_[prefix];
  const igp::RouteCache::ColumnPtr& column = cache_.column(*tables, prefix);
  if (memo.column == column) return memo.loads;
  memo.column = column;
  memo.loads = loads_from_routes(topo_, *column, prefix, demands_of_(prefix));
  return memo.loads;
}

std::vector<double> Controller::background_(const net::Prefix& prefix,
                                            const igp::RouteCache::TablesPtr& tables,
                                            const std::set<net::Prefix>& moving) {
  std::vector<double> background(topo_.link_count(), 0.0);
  for (const auto& [q, ingresses] : ledger_) {
    if (q == prefix || (moving.contains(q) && !placement_failed_.contains(q))) {
      continue;
    }
    const std::vector<double>& q_load = prefix_loads_(q, tables);
    for (topo::LinkId l = 0; l < topo_.link_count(); ++l) background[l] += q_load[l];
  }
  return background;
}

std::vector<te::Demand> Controller::demands_of_(const net::Prefix& prefix) const {
  std::vector<te::Demand> out;
  const auto it = ledger_.find(prefix);
  if (it == ledger_.end()) return out;
  for (const auto& [ingress, demand] : it->second) {
    if (demand.rate_bps > 0.0) out.push_back(te::Demand{ingress, demand.rate_bps});
  }
  return out;
}

std::vector<Lie> Controller::all_lies_() const {
  std::vector<Lie> out;
  for (const auto& [prefix, lies] : active_) {
    out.insert(out.end(), lies.begin(), lies.end());
  }
  return out;
}

void Controller::evaluate_() {
  // Predict per-link utilization with the ledger demand on the *current*
  // forwarding state (lies included) over the *live* topology; mitigate if
  // anything would run hot. Stranded placements are re-planned regardless.
  const igp::RouteCache::TablesPtr tables =
      cache_.tables(to_externals(all_lies_()));
  last_tables_ = tables;  // the snapshot topology events diff against
  std::vector<double> load(topo_.link_count(), 0.0);
  for (const auto& [prefix, ingresses] : ledger_) {
    const std::vector<double>& prefix_load = prefix_loads_(prefix, tables);
    for (topo::LinkId l = 0; l < topo_.link_count(); ++l) load[l] += prefix_load[l];
  }
  bool hot = false;
  for (topo::LinkId l = 0; l < topo_.link_count(); ++l) {
    if (load[l] / topo_.link(l).capacity_bps > config_.high_watermark) {
      hot = true;
      trace_root_(obs::Stage::kTrigger, l);
      FIB_LOG(kInfo, "controller")
          << "predicted overload on " << topo_.link_name(l) << " ("
          << load[l] / topo_.link(l).capacity_bps << "): mitigating";
      break;
    }
  }
  if (hot || !stranded_.empty()) {
    mitigate_();
  } else {
    maybe_retract_();
  }
}

void Controller::mitigate_() {
  // Adopt the trace rooted by the triggering sample (or start one when the
  // trigger predates tracing, e.g. a stranded re-plan); the whole batch --
  // every member's solve through inject -- shares this id.
  current_trace_ = pending_trace_;
  pending_trace_ = 0;
  if (current_trace_ == 0 && tracer_ != nullptr && tracer_->enabled()) {
    current_trace_ = tracer_->next_trace_id();
  }
  FIB_SPAN(tracer_, events_.now(), current_trace_, obs::Stage::kTrigger,
           obs::kControllerNode, dirty_.size());

  // Stranded placements with no remaining demand have nothing to re-place:
  // retract them outright instead of leaving lies that steer at dead links.
  std::vector<net::Prefix> stranded_idle;
  for (const net::Prefix& prefix : stranded_) {
    if (demands_of_(prefix).empty()) stranded_idle.push_back(prefix);
  }
  for (const net::Prefix& prefix : stranded_idle) {
    stranded_.erase(prefix);
    if (!active_.contains(prefix)) continue;
    FIB_LOG(kInfo, "controller")
        << "retracting stranded lies for " << prefix.to_string();
    apply_lies_(prefix, {});
    ++retractions_;
  }

  // Incremental, churn-minimizing placement: only prefixes whose demand
  // changed since their last placement are re-optimized (heaviest first);
  // all standing placements are background the optimizer must respect.
  std::vector<net::Prefix> prefixes;
  for (const net::Prefix& prefix : dirty_) {
    if (!demands_of_(prefix).empty()) prefixes.push_back(prefix);
  }
  std::sort(prefixes.begin(), prefixes.end(),
            [&](const net::Prefix& a, const net::Prefix& b) {
              return demand_for(a) > demand_for(b);
            });

  // Prefixes later in this batch are about to be (re)placed themselves:
  // their demand must not count as immovable background, or a coalesced
  // multi-prefix surge forces each placement around traffic that is in
  // fact about to move -- producing uncompilable all-or-nothing exclusions
  // instead of the joint optimum. Each successful placement immediately
  // joins the background of the prefixes that follow it. Exception: a
  // prefix whose last placement attempt failed is NOT about to move; its
  // traffic stays put and must be planned around like any other load.
  std::set<net::Prefix> unattempted(prefixes.begin(), prefixes.end());
  std::erase_if(placement_failed_,
                [&](const net::Prefix& q) { return demands_of_(q).empty(); });
  bool batch_failed = false;
  std::vector<net::Prefix> attempted_ok;

  // A stranded prefix whose re-placement fails must not keep its old lies
  // (they steer at a dead link): retract, then record the failure.
  const auto fail_placement = [&](const net::Prefix& prefix) {
    batch_failed |= placement_failed_.insert(prefix).second;
    if (stranded_.erase(prefix) > 0 && active_.contains(prefix)) {
      FIB_LOG(kWarn, "controller") << "retracting stranded lies for "
                                   << prefix.to_string() << " (re-placement failed)";
      apply_lies_(prefix, {});
      ++retractions_;
    }
  };

  // One placement per member, in demand order. A committed set moves
  // next_lie_id_ past every id its compile handed out.
  for (const net::Prefix& prefix : prefixes) {
    unattempted.erase(prefix);
    const auto announcers = topo_.attachments_for(prefix);
    if (announcers.empty()) {
      FIB_LOG(kWarn, "controller") << "no announcer for " << prefix.to_string();
      fail_placement(prefix);
      continue;
    }
    const std::vector<double> background = background_(
        prefix, cache_.tables(to_externals(all_lies_())), unattempted);
    PlacementOutcome outcome = place_prefix(
        topo_, config_, domain_.link_state(), cache_, prefix,
        announcers.front().node, demands_of_(prefix), background, next_lie_id_);
    placement_solves_ += outcome.solves;

    // Virtual time does not advance inside one event callback, so every
    // stage of the attempt is stamped at the same instant.
    if (current_trace_ != 0) {
      const double now = events_.now();
      FIB_EVENT(tracer_, now, current_trace_, obs::Stage::kSolve,
                obs::kControllerNode, static_cast<std::uint64_t>(outcome.solves));
      if (outcome.compiled.has_value()) {
        const std::uint64_t lie_count =
            outcome.ok() ? outcome.compiled->value().lies.size() : 0;
        FIB_EVENT(tracer_, now, current_trace_, obs::Stage::kCompile,
                  obs::kControllerNode, lie_count);
        FIB_EVENT(tracer_, now, current_trace_, obs::Stage::kVerify,
                  obs::kControllerNode, outcome.ok() ? 1 : 0);
      }
    }

    if (!outcome.ok()) {
      if (!outcome.compiled.has_value()) {
        FIB_LOG(kWarn, "controller") << "optimizer failed: " << outcome.solver_error;
      } else {
        FIB_LOG(kWarn, "controller")
            << "augmentation failed (" << to_string(outcome.compiled->error_kind())
            << "): " << outcome.compiled->error();
      }
      fail_placement(prefix);
      continue;
    }
    relaxed_placements_ += outcome.relaxed;
    CompileResult& compiled = *outcome.compiled;

    // Idempotence: skip if the new lie set steers identically to the
    // currently injected one.
    const auto current = active_.find(prefix);
    if (current != active_.end()) {
      const auto& old_lies = current->second;
      const auto& new_lies = compiled.value().lies;
      const auto signature = [](const std::vector<Lie>& lies) {
        std::multiset<std::tuple<topo::NodeId, topo::NodeId, topo::Metric>> sig;
        for (const Lie& lie : lies) {
          sig.emplace(lie.attach, lie.via, lie.ext_metric);
        }
        return sig;
      };
      if (signature(old_lies) == signature(new_lies)) {
        dirty_.erase(prefix);
        placement_failed_.erase(prefix);
        stranded_.erase(prefix);
        attempted_ok.push_back(prefix);
        continue;
      }
    }
    next_lie_id_ += compiled.value().naive_lie_count + 1;
    apply_lies_(prefix, std::move(compiled).value().lies);
    dirty_.erase(prefix);
    placement_failed_.erase(prefix);
    attempted_ok.push_back(prefix);
    ++mitigations_;
  }

  // A member *newly* failed: the ones placed before it in this batch were
  // optimized against a background missing its (immovable) traffic. Mark
  // them dirty so the next evaluation re-places them around it. Prefixes
  // that were already failing do not re-trigger this -- their traffic was
  // counted as background above, so the batch settles instead of
  // re-running the full pipeline on every congested poll.
  if (batch_failed) {
    for (const net::Prefix& prefix : attempted_ok) dirty_.insert(prefix);
  }
  refresh_forwarding_snapshot_();
  current_trace_ = 0;
}

PlacementOutcome place_prefix(const topo::Topology& topo, const ControllerConfig& config,
                              const topo::LinkStateMask& mask, igp::RouteCache& cache,
                              const net::Prefix& prefix, topo::NodeId dest,
                              const std::vector<te::Demand>& demands,
                              const std::vector<double>& background,
                              std::uint64_t first_lie_id) {
  PlacementOutcome out;

  te::MinMaxConfig mm;
  mm.max_stretch = config.max_stretch;
  mm.link_state = &mask;
  mm.granularity_floor = 1.0 / std::max<std::uint32_t>(config.max_replicas, 2);
  ++out.solves;
  const auto solution = te::solve_min_max(topo, dest, demands, background, mm);
  if (!solution.ok()) {
    out.solver_error = solution.error();
    return out;
  }

  const auto attempt = [&](const te::MinMaxResult& sol) {
    const DestRequirement req =
        requirement_from_splits(prefix, sol.splits, config.max_replicas);
    AugmentConfig aug_config;
    aug_config.first_lie_id = first_lie_id;
    aug_config.link_state = &mask;
    aug_config.route_cache = &cache;
    return compile_lies(topo, req, aug_config);
  };
  out.compiled = attempt(solution.value());

  // Fallback ladder: a granularity failure means this theta*-optimal DAG
  // is not expressible at the IGP's metric scale. Re-solve with theta
  // relaxed to theta* * (1 + eps) -- restricted to the compilable support
  // (the links the optimum already used, plus the shortest-path DAG the
  // lie compiler can always tie onto) -- escalating eps before declaring
  // the prefix unmitigable. Any other failure kind ends the ladder: more
  // headroom cannot fix an unreachable subnet or a broken requirement.
  if (!out.compiled->ok() &&
      out.compiled->error_kind() == CompileErrorKind::kGranularity) {
    mm.support = te::shortest_path_dag(topo, dest, &mask);
    double total_demand = 0.0;
    for (const te::Demand& d : demands) total_demand += d.rate_bps;
    const double flow_eps = std::max(total_demand, 1.0) * 1e-7;
    for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
      if (solution.value().link_flow[l] > flow_eps) mm.support[l] = true;
    }
    for (const double relax : kThetaRelaxSchedule) {
      mm.theta_relax = relax;
      ++out.solves;
      const auto relaxed = te::solve_min_max(topo, dest, demands, background, mm);
      if (!relaxed.ok()) break;
      CompileResult retry = attempt(relaxed.value());
      const bool granular =
          !retry.ok() && retry.error_kind() == CompileErrorKind::kGranularity;
      out.compiled = std::move(retry);
      if (out.compiled->ok()) {
        out.relaxed = 1;
        FIB_LOG(kInfo, "controller")
            << "granularity fallback for " << prefix.to_string()
            << ": placed at theta " << relaxed.value().theta << " (optimum "
            << relaxed.value().theta_opt << ", relax " << relax << ")";
      }
      if (!granular) break;
    }
  }
  return out;
}

void Controller::maybe_retract_() {
  // A prefix's lies retract when its demand would fit on plain shortest
  // paths -- over the topology that actually exists -- with comfortable
  // margin (below the low watermark), given the other prefixes' current
  // placements as background.
  const topo::LinkStateMask& mask = domain_.link_state();
  // One full-lie-set table build serves every per-prefix background below:
  // a prefix's loads are identical on any table set containing its own lies
  // (per-prefix route independence, see prefix_loads_), so the per-prefix
  // all-lies-except rebuild the background used to pay for is unnecessary.
  const igp::RouteCache::TablesPtr full_tables =
      cache_.tables(to_externals(all_lies_()));
  std::vector<net::Prefix> to_retract;
  for (const auto& [prefix, lies] : active_) {
    if (lies.empty()) continue;
    const auto announcers = topo_.attachments_for(prefix);
    if (announcers.empty()) continue;
    const double spf_util = te::shortest_path_max_utilization(
        topo_, announcers.front().node, demands_of_(prefix),
        background_(prefix, full_tables, {}), &mask);
    if (spf_util < config_.low_watermark) to_retract.push_back(prefix);
  }
  for (const net::Prefix& prefix : to_retract) {
    FIB_LOG(kInfo, "controller") << "retracting lies for " << prefix.to_string();
    apply_lies_(prefix, {});
    dirty_.insert(prefix);  // any future demand re-places from scratch
    ++retractions_;
  }
  if (!to_retract.empty()) refresh_forwarding_snapshot_();
}

void Controller::apply_lies_(const net::Prefix& prefix, std::vector<Lie> lies) {
  // Any deliberate rewrite of the prefix's lie set resolves strandedness.
  stranded_.erase(prefix);
  // All announcements leave through the controller's southbound OSPF
  // session: wire-format External-LSA LS Updates over the adjacency with
  // the session router, retractions as MaxAge tombstones (premature aging).
  const auto it = active_.find(prefix);
  if (it != active_.end()) {
    for (const Lie& old_lie : it->second) {
      // active_ only holds lies whose injection succeeded, so a refusal here
      // means the bookkeeping diverged from the session -- log it, and keep
      // going: the remaining retractions must still go out.
      if (const util::Status status = session_.retract(old_lie.id); !status.ok()) {
        FIB_LOG(kWarn, "controller")
            << "retract of lie " << old_lie.id << " for " << prefix.to_string()
            << " refused: " << status.error();
      }
    }
    active_.erase(it);
  }
  if (lies.empty()) return;
  // compile_lies rejects alias-colliding sets (kWireAliasing), so a refusal
  // here means a cross-prefix identity collision with another standing lie;
  // the un-injectable lie is dropped rather than silently aliased.
  std::vector<Lie> injected;
  injected.reserve(lies.size());
  for (Lie& lie : lies) {
    FIB_LOG(kInfo, "controller") << "inject " << to_string(lie, topo_);
    if (const util::Status status = session_.inject(to_lsa(lie)); !status.ok()) {
      FIB_LOG(kWarn, "controller")
          << "inject refused, dropping lie: " << status.error();
      continue;
    }
    if (current_trace_ != 0) {
      // Bind strictly before any router can see the LSA (injections ride
      // the adjacency with a positive delay): routers stamp LSA-install and
      // SPF against this trace by looking the lie id up from the wire tag.
      tracer_->bind_lie(lie.id, current_trace_);
      FIB_EVENT(tracer_, events_.now(), current_trace_, obs::Stage::kInject,
                static_cast<std::uint32_t>(config_.session_router), lie.id);
    }
    injected.push_back(std::move(lie));
  }
  if (injected.empty()) return;
  active_.emplace(prefix, std::move(injected));
}

}  // namespace fibbing::core
