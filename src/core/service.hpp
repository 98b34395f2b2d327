#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/controller.hpp"
#include "dataplane/network_sim.hpp"
#include "igp/domain.hpp"
#include "monitor/bus.hpp"
#include "monitor/poller.hpp"
#include "obs/trace.hpp"
#include "topo/link_state.hpp"
#include "topo/topology.hpp"
#include "util/event_queue.hpp"
#include "util/result.hpp"
#include "video/system.hpp"

namespace fibbing::core {

struct ServiceConfig {
  igp::IgpTiming igp_timing{};
  ControllerConfig controller{};
  double poll_interval_s = 1.0;
  /// IGP worker-thread shards (clamped to the router count). 1 keeps the
  /// domain fully single-threaded; any value produces bit-identical routing
  /// state (see IgpDomain's determinism contract).
  std::size_t igp_shards = 1;
  /// Record causal control-loop traces (obs::TraceRecorder): every
  /// mitigation's monitor->solve->compile->verify->inject->flood->SPF->
  /// table-flip chain, stamped from the virtual clock. Off by default --
  /// the recorder still exists but every emission is a single-branch no-op
  /// (bench_overhead pins the cost).
  bool tracing = false;
};

/// Everything wired together: the emulated IGP domain, the fluid data
/// plane, SNMP-style monitoring, the video delivery layer and the Fibbing
/// controller -- the whole demo in one object. This is the entry point a
/// downstream user starts from (see examples/quickstart.cpp).
///
/// Wiring (mirrors the paper's Fig. "Setup"):
///   routers' SPF results  -> data-plane FIBs
///   data-plane counters   -> SNMP poller -> controller (congestion)
///   video servers         -> notification bus -> controller (demand)
///   controller            -> External-LSAs through its session router.
class FibbingService {
 public:
  explicit FibbingService(const topo::Topology& topo, ServiceConfig config = {});

  /// Originate all LSAs, converge the IGP, install FIBs and start the
  /// poller. Call once before running the simulation.
  void boot();

  /// Advance simulated time (events fire along the way).
  void run_until(util::SimTime t) { events_.run_until(t); }

  /// Fail the bidirectional link between `a` and `b`: the shared link-state
  /// mask is marked once and every subscribed layer reacts -- the data
  /// plane drops traffic hashed onto the link immediately, both endpoint
  /// routers re-originate their Router-LSAs, and the controller re-plans
  /// every standing placement on the degraded topology as events run.
  /// Returns the failed (a->b) link id; failing an already-down link is an
  /// idempotent success. Non-adjacent or unknown nodes report an error
  /// instead of asserting.
  [[nodiscard]] util::Result<topo::LinkId> fail_link(topo::NodeId a, topo::NodeId b);

  /// Restore the bidirectional link between `a` and `b`: the adjacency
  /// re-forms (with an LSDB exchange between the endpoints), FIBs converge
  /// back, and the controller re-optimizes onto the recovered link.
  /// Restoring a link that is not down is an idempotent success.
  [[nodiscard]] util::Result<topo::LinkId> restore_link(topo::NodeId a, topo::NodeId b);

  /// Crash router `n` fail-stop: nothing is torn down administratively and
  /// no layer is told. Each neighbor's RouterDeadInterval expires in turn,
  /// the detections feed the shared mask through the domain's liveness
  /// hook, and the controller re-plans -- the protocol-driven path the
  /// paper assumes, with zero fail_link calls.
  void crash_router(topo::NodeId n) { domain_.crash_router(n); }

  [[nodiscard]] const topo::LinkStateMask& link_state() const { return *link_state_; }

  [[nodiscard]] util::EventQueue& events() { return events_; }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }
  [[nodiscard]] igp::IgpDomain& domain() { return domain_; }
  [[nodiscard]] dataplane::NetworkSim& sim() { return sim_; }
  [[nodiscard]] monitor::NotificationBus& bus() { return bus_; }
  [[nodiscard]] monitor::LinkLoadPoller& poller() { return poller_; }
  [[nodiscard]] video::VideoSystem& video() { return video_; }
  [[nodiscard]] Controller& controller() { return *controller_; }

  // -- observability -------------------------------------------------------
  /// The control-loop trace recorder (enabled by ServiceConfig::tracing).
  [[nodiscard]] obs::TraceRecorder& tracer() { return tracer_; }
  /// One deterministic snapshot of every layer's counters, read straight
  /// from the component accessors under one namespaced key space
  /// (controller.*, igp.*, proto.*, southbound.*, cache.*, poller.*,
  /// dataplane.*, shard.*), plus the trace-derived reaction-latency
  /// histograms (trace.reaction.<stage>_s_{count,p50,p99,max}), keys
  /// sorted. The benches (bench_reaction, bench_fig2, perfbench) consume
  /// this.
  [[nodiscard]] std::map<std::string, double> telemetry_snapshot();
  /// telemetry_snapshot() as one JSON object.
  [[nodiscard]] std::string telemetry_json();

 private:
  enum class LinkEvent { kFail, kRestore };
  [[nodiscard]] util::Result<topo::LinkId> change_link_(topo::NodeId a,
                                                        topo::NodeId b,
                                                        LinkEvent event);

  const topo::Topology& topo_;
  /// The one live up/down mask every layer consumes (declared before the
  /// layers so it outlives their construction).
  std::shared_ptr<topo::LinkStateMask> link_state_;
  /// The tracer precedes every layer holding a pointer into it (domain,
  /// routers, controller), so it outlives them all.
  obs::TraceRecorder tracer_;
  util::EventQueue events_;
  igp::IgpDomain domain_;
  dataplane::NetworkSim sim_;
  monitor::NotificationBus bus_;
  monitor::LinkLoadPoller poller_;
  video::VideoSystem video_;
  std::unique_ptr<Controller> controller_;
  bool booted_ = false;
};

}  // namespace fibbing::core
