#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "igp/lsa.hpp"
#include "igp/router_process.hpp"
#include "proto/controller_session.hpp"
#include "topo/link_state.hpp"
#include "topo/topology.hpp"
#include "util/event_queue.hpp"
#include "util/shard_pool.hpp"

namespace fibbing::igp {

/// Per-hop packet delay (propagation plus processing) on every adjacency and
/// on the controller's session. It is the shard pool's lookahead: every
/// cross-router effect arrives this much later, so same-instant events on
/// different routers commute. Well under kSpfDelayS, so a flood reaches its
/// neighbours inside one SPF hold-down.
inline constexpr double kFloodDelayS = 0.001;
static_assert(kFloodDelayS > 0.0, "the shard pool's lookahead must be positive");

/// A running link-state routing domain: one RouterProcess per topology node,
/// exchanging encoded RFC 2328 packets over the topology's adjacencies.
/// Adjacency bring-up, database synchronization (DD summaries + LS
/// requests), flooding and partition healing all run through the wire
/// protocol -- no router ever touches another's Lsdb. The Fibbing controller
/// talks to the domain exactly like the real one talks to OSPF: it
/// injects/withdraws External-LSAs as LS Updates over a controller adjacency
/// with one router, and the protocol floods them domain-wide.
///
/// Execution is sharded: routers are partitioned across `shards` worker
/// threads (util::ShardPool), each with its own virtual clock and
/// lock-guarded inbox; encoded packets crossing a shard boundary ride the
/// inbox channel. The external `events` queue stays the master clock -- the
/// domain keeps exactly one "pump" event armed on it at the pool's earliest
/// pending instant, and the pump runs one barrier-synchronized round (all
/// shards in parallel) per firing, so the domain composes with the
/// single-threaded data-plane/monitoring/video layers unchanged. Whatever a
/// router hands to the driving thread -- a fresh table, a packet for the
/// controller session, a liveness transition, a trace stamp -- goes through
/// ShardPool::defer and runs when the round ends. Scheduling is
/// deterministic under a seed: events are ordered by
/// (time, origin router, per-origin sequence) and deferred callbacks by
/// router, so a sharded run produces bit-identical LSDBs, tables and
/// counters to the single-threaded run (shards = 1, which spawns no worker
/// thread at all).
class IgpDomain {
 public:
  /// `link_state` is the live up/down mask the domain consults and mutates;
  /// pass a shared instance to keep the IGP, data plane and controller in
  /// agreement (FibbingService does). When null the domain makes its own.
  /// `shards` is the worker-thread count (clamped to the router count).
  IgpDomain(const topo::Topology& topo, util::EventQueue& events, IgpTiming timing = {},
            std::shared_ptr<topo::LinkStateMask> link_state = nullptr,
            std::size_t shards = 1);

  /// Originate every router's Router-LSA and start the neighbor sessions
  /// (network boot). Call once, then run the event queue (or
  /// run_to_convergence) to form adjacencies, synchronize databases and
  /// compute routes.
  void start();

  /// The controller's southbound session with router `at` (created on first
  /// use). Lies injected through it travel as wire-format External-LSA LS
  /// Updates over the message channel; the session router acknowledges and
  /// floods them domain-wide.
  [[nodiscard]] proto::ControllerSession& controller_session(topo::NodeId at);

  /// Inject a lie through the session with router `at`. Sequence numbers are
  /// managed per lie_id so re-injection (updates) supersede older instances.
  void inject_external(topo::NodeId at, const ExternalLsa& ext);

  /// Withdraw a previously injected lie: the controller session floods its
  /// MaxAge tombstone (premature aging). Fails when the lie was never
  /// announced through this session, or is already withdrawn.
  [[nodiscard]] util::Status withdraw_external(topo::NodeId at,
                                               std::uint64_t lie_id);

  /// Take a bidirectional link down: both endpoints drop the neighbor
  /// session and re-originate their Router-LSAs without the adjacency, and
  /// the flooding graph stops using it. Run the event queue (or
  /// run_to_convergence) to settle. `id` may be either direction of the
  /// adjacency. Failing a link that is already down is a no-op. (Equivalent
  /// to mutating the mask directly: the domain reacts through its mask
  /// subscription either way, as do all other layers sharing the mask.)
  void fail_link(topo::LinkId id);

  /// Bring a failed link back: the neighbor sessions re-form the adjacency
  /// through the full RFC 2328 bring-up -- Hello, Database Description
  /// *summaries*, then LS Requests for exactly the instances that are newer
  /// on the other side (a partition may have left either side with LSAs,
  /// including withdrawal tombstones, the other never saw) -- and both
  /// sides re-originate Router-LSAs advertising the interface again. The
  /// exchange moves O(changed) full LSAs, not O(database). After
  /// convergence, routes are bit-identical to a domain in which the link
  /// never failed. Restoring a link that is not down is a no-op.
  void restore_link(topo::LinkId id);

  [[nodiscard]] bool link_is_down(topo::LinkId id) const;
  [[nodiscard]] topo::LinkStateMask& link_state() { return *link_state_; }
  [[nodiscard]] const topo::LinkStateMask& link_state() const { return *link_state_; }

  // -- Fault injection (protocol-driven liveness) --------------------------
  //
  // None of these touch the shared link-state mask or any router's
  // configuration: the *protocol* has to notice. Hellos stop arriving, the
  // RouterDeadInterval expires, the adjacency falls to Down, the endpoint
  // re-originates its Router-LSA without the link, and the domain reports
  // the transition through set_on_liveness_change.

  /// Kill router `n` outright: every packet to or from it (including
  /// controller-session traffic) is silently dropped from now on. Nothing
  /// is torn down administratively -- each neighbor discovers the death by
  /// Hello silence alone. The dead router's own dead timers keep expiring,
  /// but they neither re-originate its Router-LSA nor report a liveness
  /// transition. Call between rounds (any time the event queue is not
  /// mid-step).
  void crash_router(topo::NodeId n);
  [[nodiscard]] bool is_alive(topo::NodeId n) const;

  /// Drop packets on the *directed* link `id` with probability `rate`
  /// (0 disables, 1 drops everything -- a one-way failure the reverse
  /// direction only notices through RFC 2328's 1-way Hello check).
  /// Deterministic: the drop decision hashes a per-link send counter that
  /// only the sender's shard touches, so sharded runs drop the exact same
  /// packets as single-threaded ones.
  void set_link_loss(topo::LinkId id, double rate);

  /// Add `extra_s` of one-way latency on the directed link `id` on top of
  /// kFloodDelayS (a slow link, for convergence-under-churn tests).
  void set_link_delay(topo::LinkId id, double extra_s);

  /// Fired (on the driving thread, at a round barrier) when the protocol
  /// detects a liveness transition on a directed link: `down` when the
  /// RouterDeadInterval expired or a 1-way Hello tore the adjacency down,
  /// up when it re-reached Full afterwards. FibbingService maps these onto
  /// the shared mask so the controller re-plans -- with no fail_link call
  /// anywhere.
  using LivenessFn = std::function<void(topo::LinkId, bool down)>;
  void set_on_liveness_change(LivenessFn fn) {
    on_liveness_change_ = std::move(fn);
  }

  /// True when no packet is in flight, no SPF is pending anywhere, every
  /// live adjacency is Full with nothing awaiting acknowledgment, and every
  /// controller session has all its updates acked.
  [[nodiscard]] bool converged() const;

  /// Pump the event queue until converged (bounded; asserts on livelock).
  void run_to_convergence();

  [[nodiscard]] const RouterProcess& router(topo::NodeId id) const;
  [[nodiscard]] const RoutingTable& table(topo::NodeId id) const;
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }
  [[nodiscard]] const proto::AddressMap& addresses() const { return addrs_; }
  [[nodiscard]] std::size_t size() const { return routers_.size(); }

  /// Fired whenever any router installs a fresh routing table (dataplane
  /// resynchronization hook), with the prefixes whose entry differs from the
  /// router's previous table (RouterProcess::TableFn).
  using TableChangeFn = std::function<void(topo::NodeId, const RoutingTable&,
                                           const std::vector<net::Prefix>& changed)>;
  void set_on_table_change(TableChangeFn fn) { on_table_change_ = std::move(fn); }

  /// Control-plane overhead across all routers (the overhead benches and
  /// the DD-economy tests read these).
  [[nodiscard]] std::uint64_t total_spf_runs() const;
  /// How many of those SPF runs avoided the full Dijkstra (incremental
  /// repair or certified-unchanged); deterministic across shard counts.
  [[nodiscard]] std::uint64_t total_spf_incremental_runs() const;
  /// Router-LSA origins re-read by those SPF runs (RouterProcess::
  /// spf_origins_read): what the in-place view patches cost.
  [[nodiscard]] std::uint64_t total_spf_origins_read() const;
  /// Every router's RouterProcess::counters() summed; its lsas_sent is the
  /// domain's LSA flooding volume.
  [[nodiscard]] proto::SessionCounters total_proto_counters() const;

  /// The sharded engine's execution telemetry (rounds, events, cross-shard
  /// messages) -- bench_scale reports these.
  [[nodiscard]] util::ShardPool::Stats shard_stats() { return pool_.stats(); }
  [[nodiscard]] std::size_t shard_count() const { return pool_.shard_count(); }

  /// Attach the control-loop trace recorder to every router (which defer
  /// their stamps to the round barrier; see RouterProcess::set_tracer).
  void set_tracer(obs::TraceRecorder* tracer);

 private:
  void deliver_packet_(topo::NodeId from, topo::NodeId to,
                       const proto::BufferPtr& buffer);
  // Mask-subscription reactions (fired on every effective fail/restore).
  void on_link_failed_(topo::LinkId id);
  void on_link_restored_(topo::LinkId id);
  /// A session at `self` reported an adjacency transition (shard worker,
  /// mid-round): maintain the protocol-detected overlay, re-originate the
  /// Router-LSA, and defer the liveness event to the round barrier.
  void on_adjacency_(topo::NodeId self, topo::NodeId peer, bool up);
  /// `self`'s advertised down-bits: the shared mask OR'd with the links the
  /// protocol detected dead at `self`.
  [[nodiscard]] std::vector<bool> advertised_bits_(topo::NodeId self) const;
  /// Deterministic drop decision for the next packet on directed link `id`.
  [[nodiscard]] bool lose_packet_(topo::LinkId id);
  // Driving-thread plumbing between the master clock and the shard pool.
  void sync_clock_();  ///< raise the pool clock to the master clock
  void arm_pump_();    ///< keep one pump event armed at pool_.next_time()
  void run_pump_();    ///< one round: sync the clock, run an instant, rearm

  const topo::Topology& topo_;
  util::EventQueue& events_;
  proto::AddressMap addrs_;
  /// Declared before routers_/sessions so it outlives everything holding an
  /// actor scheduler reference into it.
  util::ShardPool pool_;
  std::vector<std::unique_ptr<RouterProcess>> routers_;
  std::vector<SeqNum> router_seq_;
  std::shared_ptr<topo::LinkStateMask> link_state_;
  /// alive_[n] == 0 after crash_router(n). Plain bytes: mutated only on the
  /// driving thread between rounds, read by shard workers mid-round.
  std::vector<char> alive_;
  /// Per-node protocol-detected dead out-links (RouterDeadInterval / 1-way
  /// Hello), OR'd into that node's Router-LSA. Touched only by the owning
  /// node's shard mid-round and the driving thread between rounds.
  std::vector<std::set<topo::LinkId>> detected_down_;
  /// Per directed link: drop probability, deterministic per-sender send
  /// counter feeding the drop hash, and extra one-way latency.
  std::vector<double> loss_rate_;
  std::vector<std::uint64_t> loss_seq_;
  std::vector<double> extra_delay_;
  LivenessFn on_liveness_change_;
  std::map<topo::NodeId, std::unique_ptr<proto::ControllerSession>>
      controller_sessions_;
  /// Packets (and controller updates) scheduled but not yet delivered.
  /// Atomic: incremented/decremented from shard workers mid-round, read by
  /// converged() on the driving thread between rounds.
  std::atomic<std::uint64_t> in_flight_{0};
  TableChangeFn on_table_change_;
  util::EventHandle pump_{};
  util::SimTime pump_at_ = 0.0;
};

}  // namespace fibbing::igp
