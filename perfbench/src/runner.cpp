#include "runner.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/service.hpp"

namespace perfbench {
namespace {

namespace fib = fibbing;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Runner {
 public:
  Runner(const Plan& plan, bool trace)
      : plan_(plan), trace_(trace), service_(plan.topo, plan.config) {}
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  RunRecord run(Clock::time_point setup_started) {
    RunRecord rec;
    service_.boot();
    for (std::size_t s = 0; s < plan_.servers.size(); ++s) {
      servers_.push_back(service_.video().add_server(
          {"S" + std::to_string(s), plan_.servers[s], server_address(s)}));
    }
    schedule_inputs_();
    while (!warm_) step_or_fail_();
    rec.setup_s = seconds_between(setup_started, Clock::now());
    rec.before = service_.telemetry_snapshot();
    timed_loop_(rec);
    rec.after = service_.telemetry_snapshot();
    check_end_(rec);
    const auto count = [&](const char* key) {
      return static_cast<std::uint64_t>(delta(rec, key));
    };
    rec.work.placement_solves = count("controller.placement_solves");
    rec.work.spf_runs = count("igp.spf_runs");
    rec.work.lsas_sent = count("igp.lsas_sent");
    rec.work.bytes_sent = count("proto.bytes_sent");
    rec.failures.insert(rec.failures.end(), failures_.begin(), failures_.end());
    rec.capture = std::move(capture_);
    return rec;
  }

 private:
  void schedule_inputs_() {
    fib::util::EventQueue& events = service_.events();
    ids_.assign(plan_.sessions.size(), 0);
    stopped_.assign(plan_.sessions.size(), false);
    for (std::size_t i = 0; i < plan_.sessions.size(); ++i) {
      const SessionPlan& s = plan_.sessions[i];
      events.schedule_at(std::max(s.start_s, events.now()), [this, i] {
        acts_.session = true;
        const SessionPlan& session = plan_.sessions[i];
        ids_[i] = service_.video().start_session(servers_[session.server],
                                                 plan_.prefixes[session.prefix],
                                                 client_address(plan_, i), plan_.asset);
      });
      if (s.stop_s == kNever) continue;
      events.schedule_at(s.stop_s, [this, i] {
        acts_.session = true;
        // QoE is read as the viewer leaves: a stopped client keeps
        // integrating its last rate, so a later read can report a stall
        // that happened after the viewer left (NOTES.md).
        if (service_.video().client(ids_[i]).qoe().stall_count > 0) ++stalled_;
        stopped_[i] = true;
        service_.video().stop_session(ids_[i]);
      });
    }
    for (std::size_t k = 0; k < plan_.link_events.size(); ++k) {
      events.schedule_at(plan_.link_events[k].at_s, [this, k] {
        acts_.link = true;
        const LinkPlan& e = plan_.link_events[k];
        const auto result =
            e.fail ? service_.fail_link(e.a, e.b) : service_.restore_link(e.a, e.b);
        if (!result.ok()) {
          failures_.push_back("link event " + std::to_string(k) + ": " + result.error());
        }
      });
    }
    events.schedule_at(plan_.warm_s, [this] { warm_ = true; });
    // Scheduled in untraced runs too, so both do the same steps. The copy
    // itself is made between steps, off the loop's clock.
    events.schedule_at(plan_.peak_s, [this] { capture_due_ = trace_; });
    events.schedule_at(plan_.horizon_s, [this] { done_ = true; });
  }

  void step_or_fail_() {
    if (!service_.events().step()) {
      failures_.push_back("the event queue drained before the horizon");
      warm_ = done_ = true;
    }
  }

  Probe probe_() {
    fib::core::Controller& c = service_.controller();
    return {c.mitigations(), c.retractions(), c.placement_solves(),
            service_.domain().shard_stats().rounds, service_.poller().polls_completed()};
  }

  void timed_loop_(RunRecord& rec) {
    fib::util::EventQueue& events = service_.events();
    Probe prev = probe_();
    bool reconverging = false;
    double window_s = 0.0;
    Clock::duration paused{};
    const Clock::time_point loop_start = Clock::now();
    while (!done_) {
      acts_ = {};
      const Clock::time_point t0 = Clock::now();
      const bool fired = events.step();
      const Clock::time_point t1 = Clock::now();
      if (!fired) {
        failures_.push_back("the event queue drained before the horizon");
        break;
      }
      const Probe now = probe_();
      const StepClass cls = classify(prev, now, acts_);
      const double dt = seconds_between(t0, t1);
      ++rec.work.steps[static_cast<std::size_t>(cls)];
      if (trace_) rec.spans.push_back({cls, dt});
      if (cls == StepClass::kDecision) {
        rec.decide_ms.push_back(dt * 1e3);
        if (now.mitigations != prev.mitigations ||
            now.placement_solves != prev.placement_solves) {
          rec.place_ms.push_back(dt * 1e3);
        }
      }
      if (cls == StepClass::kSession) rec.session_ms.push_back(dt * 1e3);
      prev = now;
      if (capture_due_) {
        capture_due_ = false;
        const Clock::time_point c0 = Clock::now();
        capture_ = capture_state_();
        paused += Clock::now() - c0;
      }
      rec.work.flows_peak = std::max(rec.work.flows_peak, service_.sim().flow_count());
      if (acts_.link) {
        if (reconverging) {
          failures_.push_back("a link event fired before the previous one reconverged");
        }
        reconverging = true;
        window_s = 0.0;
      }
      if (reconverging) {
        window_s += dt;
        if (service_.domain().converged()) {
          rec.reconverge_ms.push_back(window_s * 1e3);
          reconverging = false;
        }
      }
    }
    rec.run_s = seconds_between(loop_start, Clock::now() - paused);
    if (reconverging) {
      failures_.push_back("the last link event did not reconverge before the horizon");
    }
  }

  void check_end_(RunRecord& rec) {
    const fib::dataplane::NetworkSim& sim = service_.sim();
    if (sim.looping_flows() != 0) {
      failures_.push_back(std::to_string(sim.looping_flows()) +
                          " flows loop at the horizon");
    }
    if (sim.blackholed_flows() != 0) {
      failures_.push_back(std::to_string(sim.blackholed_flows()) +
                          " flows are blackholed at the horizon");
    }
    for (const auto& [prefix, lies] : service_.controller().active_lies()) {
      for (const fib::core::Lie& lie : lies) {
        const fib::topo::LinkId l = plan_.topo.link_between(lie.attach, lie.via);
        if (l == fib::topo::kInvalidLink || service_.link_state().is_down(l)) {
          failures_.push_back("lie " + lie.name + " for " + prefix.to_string() +
                              " steers over a down link");
        }
      }
    }
    rec.stalled = stalled_;
    for (std::size_t i = 0; i < plan_.sessions.size(); ++i) {
      if (ids_[i] == 0) continue;  // starts after the horizon
      ++rec.sessions;
      if (stopped_[i]) continue;
      if (service_.video().client(ids_[i]).qoe().stall_count > 0) ++rec.stalled;
    }
  }

  Capture capture_state_() {
    Capture c;
    for (const auto& [prefix, lies] : service_.controller().active_lies()) {
      c.lies.insert(c.lies.end(), lies.begin(), lies.end());
    }
    for (fib::topo::NodeId n = 0; n < plan_.topo.node_count(); ++n) {
      c.tables.push_back(service_.domain().table(n));
    }
    c.down = service_.link_state().bits();
    const fib::topo::NodeId session_router = plan_.config.controller.session_router;
    c.lsdb = service_.domain().router(session_router).lsdb().all();
    return c;
  }

  const Plan& plan_;
  const bool trace_;
  fib::core::FibbingService service_;
  std::vector<fib::video::ServerId> servers_;
  std::vector<fib::video::SessionId> ids_;  ///< 0 until the session starts
  std::vector<bool> stopped_;
  std::size_t stalled_ = 0;  ///< stopped sessions that had stalled while watching
  InputActs acts_;
  bool warm_ = false;
  bool done_ = false;
  bool capture_due_ = false;  ///< the peak instant fired in a traced run
  std::optional<Capture> capture_;
  std::vector<std::string> failures_;
};

}  // namespace

std::string to_string(const Work& work) {
  std::ostringstream out;
  out << "steps{";
  for (std::size_t c = 0; c < kStepClasses; ++c) {
    out << (c == 0 ? "" : ",") << to_string(static_cast<StepClass>(c)) << "="
        << work.steps[c];
  }
  out << "} placement_solves=" << work.placement_solves << " spf_runs=" << work.spf_runs
      << " lsas_sent=" << work.lsas_sent << " bytes_sent=" << work.bytes_sent
      << " flows_peak=" << work.flows_peak;
  return out.str();
}

RunRecord run_plan(const Plan& plan, bool trace, Clock::time_point setup_started) {
  Runner runner(plan, trace);
  return runner.run(setup_started);
}

const std::vector<double>& op_samples(const RunRecord& run, Op op) {
  switch (op) {
    case Op::kPlacement: return run.place_ms;
    case Op::kSession: return run.session_ms;
    case Op::kReconvergence: return run.reconverge_ms;
  }
  return run.place_ms;
}

double delta(const RunRecord& run, const std::string& key) {
  const auto a = run.after.find(key);
  const auto b = run.before.find(key);
  const double after = a == run.after.end() ? 0.0 : a->second;
  const double before = b == run.before.end() ? 0.0 : b->second;
  return after - before;
}

}  // namespace perfbench
