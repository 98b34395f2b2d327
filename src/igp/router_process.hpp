#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "igp/lsdb.hpp"
#include "igp/routes.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "obs/trace.hpp"
#include "proto/neighbor.hpp"
#include "proto/translate.hpp"
#include "util/event_queue.hpp"

namespace fibbing::igp {

/// SPF hold-down after an LSDB change: a router batches every change that
/// lands within it into one SPF run. IgpTiming::flood_batch_window_s stays
/// well under it, so flood batching never adds a convergence round-trip.
inline constexpr double kSpfDelayS = 0.05;

/// Protocol timers, loosely modelled on deployed OSPF defaults (scaled down
/// to the demo's seconds-scale dynamics). The per-hop delay
/// (igp::kFloodDelayS), the SPF hold-down (kSpfDelayS) and RxmtInterval
/// (proto::kRxmtIntervalS) are constants beside the code that reads them.
struct IgpTiming {
  /// RFC HelloInterval: periodic keepalive cadence (liveness is on by
  /// default in a domain; set <= 0 to fall back to bring-up-only Hellos).
  double hello_interval_s = 10.0;
  /// RFC RouterDeadInterval: Hello silence after which an adjacency is
  /// declared dead -- the FSM falls to Down, the router re-originates its
  /// Router-LSA without the link, and the domain reports the loss. The
  /// conventional 4 x HelloInterval.
  double dead_interval_s = 40.0;
  /// RFC 13.5 flood coalescing window: floods landing within it share one
  /// LS Update packet. Well under kSpfDelayS.
  double flood_batch_window_s = 0.02;
  /// RFC 13.5 delayed-ack window. Well under proto::kRxmtIntervalS.
  double ack_delay_s = 0.04;
};

/// One router's SPF state kept between runs: the graph of its LSDB (in-edges
/// included), patched in place from the keys that changed since the
/// previous run (NetworkView::patch_from_lsdb, link by link), and the
/// previous run's result, which the next run repairs instead of recomputing:
/// update_spf copies its three blocks, rewrites only the first-hop sets the
/// repair dirtied, and compacts the first-hop arena when dead ids outnumber
/// live ones.
class RouterSpf {
 public:
  RouterSpf(topo::NodeId self, std::size_t node_count);

  struct Run {
    /// Directed adjacency changes since the previous run.
    std::vector<EdgeDelta> deltas;
    /// Router-LSA origins the patch re-read.
    std::size_t origins_read = 0;
    /// The run avoided the full Dijkstra: an update_spf repair, or the old
    /// result certified unchanged (lie churn leaves `deltas` empty).
    bool incremental = false;
  };
  /// Drain `lsdb`'s changes into the view, then bring the SPF up to date: a
  /// full Dijkstra on the first run, update_spf otherwise (which itself runs
  /// the full Dijkstra on a bulk or non-local change).
  Run run(Lsdb& lsdb);

  [[nodiscard]] const NetworkView& view() const { return view_; }
  [[nodiscard]] const SpfResult& result() const { return spf_; }

 private:
  topo::NodeId self_;
  bool ran_ = false;
  NetworkView view_;
  SpfResult spf_;
};

/// One router's control plane: an LSDB replica, a wire-format OSPF speaker
/// (one proto::NeighborSession per adjacency) and SPF scheduling. Everything
/// that leaves this router is an encoded RFC 2328 packet; everything that
/// arrives is decoded, checksum-verified, and dispatched to the neighbor
/// session (or, for the controller adjacency, handled as an LS Update from
/// the Fibbing controller). Transport is injected (the domain delivers
/// buffers through the shared event queue), which keeps the class testable
/// in isolation.
class RouterProcess final : private proto::DatabaseFacade {
 public:
  using BufferPtr = proto::BufferPtr;
  /// (from, to, buffer): deliver an encoded packet from this router to
  /// neighbor `to`. The buffer is shared -- transports queue it without
  /// copying the bytes.
  using SendFn =
      std::function<void(topo::NodeId from, topo::NodeId to, const BufferPtr&)>;
  /// Encoded packets (LS Acks, self-originated-LSA echoes) back to the
  /// controller session. Set only on the router carrying the controller
  /// adjacency: it also echoes installed controller-originated externals
  /// learned from *real* neighbors up the session, so the controller can
  /// spot (and re-flush) resurrected lies.
  using ControllerSendFn = std::function<void(const BufferPtr&)>;
  /// Fired after each SPF run with the fresh routing table and the prefixes
  /// whose entry differs from the previous run's table (changed_prefixes;
  /// empty when the run changed no route).
  using TableFn = std::function<void(topo::NodeId self, const RoutingTable& table,
                                     std::vector<net::Prefix> changed)>;
  /// Adjacency liveness transitions, protocol-detected: `up` is true when
  /// the session with `peer` reached Full, false when RouterDeadInterval
  /// expired or a 1-way Hello tore it down. Administrative teardown
  /// (remove_neighbor) fires nothing.
  using AdjacencyFn =
      std::function<void(topo::NodeId self, topo::NodeId peer, bool up)>;

  RouterProcess(topo::NodeId self, std::size_t node_count,
                const proto::AddressMap& addrs, util::Scheduler& events,
                IgpTiming timing);

  void set_send(SendFn fn) { send_ = std::move(fn); }
  void set_on_table(TableFn fn) { on_table_ = std::move(fn); }
  void set_controller_send(ControllerSendFn fn) {
    controller_send_ = std::move(fn);
  }
  void set_on_adjacency(AdjacencyFn fn) { on_adjacency_ = std::move(fn); }
  /// Attach the control-loop trace recorder. The router stamps a traced
  /// lie's install, the SPF that consumed it and the table flip that SPF
  /// hands over. It may run on a shard worker, so it hands each stamp to
  /// its scheduler's defer(), which emits it on the driving thread (see
  /// util::ShardPool::defer).
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  /// The interface toward `peer` exists (and, once the protocol has
  /// started, comes up: the session begins its Hello exchange and the
  /// adjacency forms through DD-based database synchronization).
  void add_neighbor(topo::NodeId peer);
  /// The interface died: the session drops to Down and is discarded; its
  /// traffic counters are retired into this router's totals.
  void remove_neighbor(topo::NodeId peer);
  /// Begin the protocol on every configured session (network boot).
  void start();

  /// Install a self-originated LSA and flood it (as LS Updates) to every
  /// adjacency that is far enough along to flood (>= Exchange); everything
  /// earlier learns it through its DD exchange instead.
  void originate(Lsa lsa);

  /// An encoded packet arriving from neighbor `from`.
  void receive_packet(topo::NodeId from, const BufferPtr& buffer);
  /// An encoded LS Update arriving over the controller adjacency: install,
  /// flood domain-wide, and acknowledge back to the controller.
  void receive_controller_packet(const BufferPtr& buffer);

  [[nodiscard]] topo::NodeId id() const { return self_; }
  [[nodiscard]] const Lsdb& lsdb() const { return lsdb_; }
  [[nodiscard]] const RoutingTable& table() const { return table_; }
  [[nodiscard]] bool spf_pending() const { return spf_pending_; }
  /// The live session toward `peer`; null when no such adjacency exists.
  [[nodiscard]] const proto::NeighborSession* session(topo::NodeId peer) const;
  /// Every live adjacency Full with nothing awaiting acknowledgment.
  [[nodiscard]] bool synchronized() const;
  /// Every session quiescent: Full-and-drained, or torn down (a dead peer)
  /// with nothing queued. The domain's convergence criterion -- unlike
  /// synchronized(), a timed-out adjacency does not stall it.
  [[nodiscard]] bool quiescent() const;

  // Control-plane accounting for the overhead benches and the DD-economy
  // tests. `counters()` aggregates live sessions, retired (torn-down)
  // sessions and the controller-facing acks.
  [[nodiscard]] proto::SessionCounters counters() const;
  [[nodiscard]] std::uint64_t spf_runs() const { return spf_runs_; }
  /// SPF runs that avoided the full Dijkstra: the hold-down window's LSDB
  /// change set was repaired incrementally against the previous run's view
  /// (or certified unchanged -- e.g. pure lie churn, which leaves the
  /// adjacency diff empty). Always <= spf_runs(); deterministic, so the
  /// shard bit-identity suite compares it across worker counts.
  [[nodiscard]] std::uint64_t spf_incremental_runs() const {
    return spf_incremental_runs_;
  }
  /// Router-LSA origins re-read by SPF runs: the patch work. A run re-reads
  /// the origins whose Router-LSA changed, or every origin when one appeared
  /// or vanished.
  [[nodiscard]] std::uint64_t spf_origins_read() const { return spf_origins_read_; }
  /// External LSAs rejected because their route tag named a different lie
  /// than the one owning the same wire identity (appendix-E host-bit
  /// collision) -- each one is an aliasing event that would otherwise have
  /// silently replaced a standing lie.
  [[nodiscard]] std::uint64_t alias_collisions() const { return alias_collisions_; }

  /// MaxAge tombstones currently flushed from this LSDB (RFC 14): every
  /// replica converged on the withdrawal, acknowledged it, and erased it.
  [[nodiscard]] std::uint64_t tombstones_flushed() const {
    return tombstones_flushed_;
  }

 private:
  // -- proto::DatabaseFacade (what the neighbor sessions see) --------------
  [[nodiscard]] std::vector<proto::LsaHeader> summarize() const override;
  [[nodiscard]] const proto::WireLsa* lookup(
      const proto::LsaIdentity& id) const override;
  DeliverResult deliver(const proto::WireLsa& lsa,
                        std::uint32_t from_router_id) override;
  void on_flood_acked(const proto::LsaIdentity& id) override;

  void flood_(const proto::WireLsa& lsa, std::uint32_t except_router_id);
  void on_session_event_(topo::NodeId peer, proto::SessionEvent event);
  /// RFC 14 flush check for one MaxAge tombstone: erase it once no session
  /// is mid database exchange and none still references the instance.
  void maybe_flush_tombstone_(const proto::LsaIdentity& id);
  /// Run the flush check for every stored MaxAge tombstone.
  void sweep_tombstones_();
  /// Echo an installed external LSA up to the controller session (if this
  /// router carries one): RFC 13.4 self-originated handling lets the
  /// controller kill stale lie instances a healed partition resurrects.
  void echo_to_controller_(const proto::WireLsa& lsa);
  void schedule_spf_();
  void run_spf_now_();
  /// Stamp `stage` of `trace` for `lie` at this router, on the driving
  /// thread (through the scheduler's defer()).
  void emit_trace_(std::uint64_t trace, obs::Stage stage, std::uint64_t lie);

  topo::NodeId self_;
  const proto::AddressMap* addrs_;
  util::Scheduler& events_;
  IgpTiming timing_;
  Lsdb lsdb_;
  RoutingTable table_;
  std::map<topo::NodeId, std::unique_ptr<proto::NeighborSession>> sessions_;
  /// One LSDB entry in its finalized wire form: what DD summaries list, LS
  /// Requests are answered from, and flooding re-sends byte-identical. A
  /// key keeps its wire identity: a router id never changes, nor does a
  /// lie's prefix (no caller re-injects a lie id under another prefix).
  struct StoredLsa {
    LsaKey key;
    proto::WireLsa wire;
  };
  /// Every LSDB entry, MaxAge tombstones awaiting their RFC 14 flush
  /// included, keyed by wire identity.
  std::map<proto::LsaIdentity, StoredLsa> wire_store_;
  SendFn send_;
  ControllerSendFn controller_send_;
  TableFn on_table_;
  AdjacencyFn on_adjacency_;
  bool started_ = false;
  bool spf_pending_ = false;
  /// Trace wiring (see set_tracer). pending_trace_lies_ accumulates traced
  /// lie installs between SPF runs; run_spf_now_ drains it, stamping one
  /// kSpf and one kTableFlip per distinct trace. Only touched from this
  /// router's shard worker.
  obs::TraceRecorder* tracer_ = nullptr;
  std::set<std::uint64_t> pending_trace_lies_;
  proto::SessionCounters retired_;  ///< counters of torn-down sessions
  proto::SessionCounters controller_io_;  ///< acks sent to the controller
  std::uint64_t spf_runs_ = 0;
  std::uint64_t spf_incremental_runs_ = 0;
  std::uint64_t spf_origins_read_ = 0;  // obs:registered(igp.spf_origins_read)
  std::uint64_t alias_collisions_ = 0;
  std::uint64_t tombstones_flushed_ = 0;
  RouterSpf spf_;
};

}  // namespace fibbing::igp
