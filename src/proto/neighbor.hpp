#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "proto/codec.hpp"
#include "util/event_queue.hpp"

namespace fibbing::proto {

using BufferPtr = std::shared_ptr<const Buffer>;

/// RFC 2328 10.1 neighbor states (point-to-point interfaces skip Attempt;
/// 2-Way is transient on p2p links, where every neighbor becomes adjacent).
enum class NeighborState : std::uint8_t {
  kDown,
  kInit,
  kTwoWay,
  kExStart,
  kExchange,
  kLoading,
  kFull,
};

[[nodiscard]] const char* to_string(NeighborState state);

/// RFC RxmtInterval analogue (scaled to the demo's seconds-scale timers):
/// unacknowledged LS Updates are resent, and a stalled database exchange
/// re-issues its last packet, after this long. SessionConfig::ack_delay_s
/// must stay well under it, or delayed acks race the retransmissions.
inline constexpr double kRxmtIntervalS = 0.5;

/// LS Update pagination: batches flush when the next LSA would push the
/// packet past this many body bytes (an LSA larger by itself still goes
/// alone, as real OSPF leaves oversized updates to IP fragmentation).
/// Keeps LSR responses and retransmission bundles bounded -- the encoded
/// packet length field is 16 bits.
inline constexpr std::size_t kMaxUpdateBytes = 1400;

/// Per-session protocol settings. RxmtInterval is the constant above.
struct SessionConfig {
  /// DD summary pagination: headers per Database Description packet. The
  /// 20-byte headers plus 32 bytes of OSPF header and DD fields encode to
  /// 1 472 bytes at 72 headers, the most whose IPv4 packet (20 more bytes)
  /// fits the 1 500-byte MTU that every DD advertises.
  std::size_t max_dd_headers = 72;
  /// LS Request pagination: entries per request packet.
  std::size_t max_request_entries = 32;
  /// RFC HelloInterval: periodic Hello cadence. <= 0 disables protocol
  /// liveness entirely (bring-up Hellos only) -- the default here, so a
  /// bare session harness's event queue still drains; IgpTiming turns it
  /// on for every domain.
  double hello_interval_s = 0.0;
  /// RFC RouterDeadInterval: this much Hello silence fires the inactivity
  /// timer and the adjacency falls to Down. Only armed when liveness is
  /// enabled (hello_interval_s > 0).
  double dead_interval_s = 0.0;
  /// RFC 13.5 flood coalescing: floods queued within this window leave as
  /// one LS Update packet. <= 0 sends one LSU per flood immediately.
  double flood_batch_window_s = 0.0;
  /// RFC 13.5 delayed acknowledgment window; must stay well under
  /// kRxmtIntervalS. <= 0 acks every LS Update immediately.
  double ack_delay_s = 0.0;
};

/// Adjacency lifecycle notifications a session's owner can subscribe to
/// (RouterProcess turns these into Router-LSA re-originations).
enum class SessionEvent : std::uint8_t {
  /// The adjacency reached Full: the link is usable for routing.
  kAdjacencyFull,
  /// The adjacency fell out of Full/exchange without an administrative
  /// shutdown: RouterDeadInterval expired or a 1-way Hello proved the peer
  /// forgot us. The link must stop being advertised until re-Full.
  kAdjacencyLost,
};

/// Control-plane traffic accounting, the observable that proves DD-based
/// synchronization exchanges O(changed) LSAs instead of O(all): after a
/// restoration the fresh sessions' `dd_headers_sent` covers the database
/// while `ls_requests_sent`/`lsas_sent` stay proportional to what actually
/// differed across the partition.
struct SessionCounters {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t hellos_sent = 0;
  std::uint64_t dds_sent = 0;
  std::uint64_t dd_headers_sent = 0;
  std::uint64_t lsrs_sent = 0;
  std::uint64_t ls_requests_sent = 0;
  std::uint64_t lsus_sent = 0;
  std::uint64_t lsas_sent = 0;  ///< full LSAs carried in LS Updates
  std::uint64_t lsacks_sent = 0;
  std::uint64_t retransmissions = 0;
  /// Hellos dropped by the RFC 10.5 parameter checks (HelloInterval,
  /// RouterDeadInterval or network-mask mismatch): a misconfigured peer
  /// never forms an adjacency instead of forming one that flaps forever.
  std::uint64_t hellos_rejected = 0;

  SessionCounters& operator+=(const SessionCounters& other);
  friend bool operator==(const SessionCounters&, const SessionCounters&) = default;
};

/// What a neighbor session needs from its router's link-state database.
/// Kept wire-level (no igp dependency) so the FSM is testable against a
/// fake store; igp::RouterProcess adapts it onto its Lsdb.
class DatabaseFacade {
 public:
  enum class DeliverResult : std::uint8_t { kNewer, kDuplicate, kStale };

  virtual ~DatabaseFacade() = default;

  /// Wire headers of every stored instance, including MaxAge tombstones
  /// (withdrawals must survive partitions, so they are summarized too).
  [[nodiscard]] virtual std::vector<LsaHeader> summarize() const = 0;

  /// The stored instance with this identity; null when absent.
  [[nodiscard]] virtual const WireLsa* lookup(const LsaIdentity& id) const = 0;

  /// A full, checksum-verified instance arrived from `from_router_id`.
  /// kNewer means the implementation installed it (and flooded it onward to
  /// its other adjacencies).
  virtual DeliverResult deliver(const WireLsa& lsa, std::uint32_t from_router_id) = 0;

  /// A flooded instance left this session's retransmission list (direct or
  /// implied acknowledgment). Lets the database run the RFC 14 MaxAge
  /// flushing check the moment a tombstone might be fully acknowledged.
  virtual void on_flood_acked(const LsaIdentity& /*id*/) {}
};

/// One neighbor relationship: the RFC 2328 session FSM driving adjacency
/// formation (Hello), database synchronization (Database Description
/// summaries + LS Request/Update, sections 10.6-10.8) and reliable flooding
/// (retransmission list + LS Ack, section 13). All traffic leaves through
/// `send` as encoded packets; the caller decodes incoming buffers once and
/// dispatches the typed packet to `receive`.
class NeighborSession {
 public:
  using SendFn = std::function<void(const BufferPtr&)>;
  using EventFn = std::function<void(SessionEvent)>;

  NeighborSession(std::uint32_t self_id, std::uint32_t peer_id, DatabaseFacade& db,
                  util::Scheduler& events, SessionConfig config, SendFn send);
  ~NeighborSession();
  NeighborSession(const NeighborSession&) = delete;
  NeighborSession& operator=(const NeighborSession&) = delete;

  /// Adjacency lifecycle callback (reaching Full, losing liveness). An
  /// administrative shutdown() fires nothing -- the owner initiated it.
  void set_on_event(EventFn fn) { on_event_ = std::move(fn); }

  /// The interface came up: begin the Hello exchange (and, with liveness
  /// enabled, arm the HelloInterval and RouterDeadInterval timers).
  void start();
  /// The interface died: back to Down, all lists cleared (RFC KillNbr).
  void shutdown();

  /// A packet from the peer (already decoded and checksum-verified).
  void receive(const Packet& packet);

  /// Flood an installed instance to this neighbor: sent as an LS Update and
  /// tracked on the retransmission list until acknowledged. With a flood
  /// batch window configured the instance is coalesced with other floods
  /// landing inside the window into one LS Update (RFC 13.5). No-op below
  /// Exchange -- the DD exchange covers everything installed before it.
  void flood(const WireLsa& lsa);

  [[nodiscard]] NeighborState state() const { return state_; }
  /// Full, with nothing awaiting acknowledgment or queued: the adjacency's
  /// databases are provably identical.
  [[nodiscard]] bool synchronized() const {
    return state_ == NeighborState::kFull && rxmt_.empty() &&
           pending_flood_.empty() && pending_ack_.empty();
  }
  /// Nothing left for this session to do right now: either synchronized,
  /// or torn down (Down/Init -- e.g. a dead peer) with every list empty.
  /// Mid-exchange states are never quiescent. The domain's convergence
  /// check uses this, so a timed-out adjacency does not stall it.
  [[nodiscard]] bool quiescent() const {
    if (state_ == NeighborState::kFull) return synchronized();
    return state_ <= NeighborState::kInit && rxmt_.empty() &&
           pending_flood_.empty() && pending_ack_.empty();
  }
  /// This session still references the instance: on its retransmission
  /// list, queued for flooding, or awaited from the peer. A MaxAge
  /// tombstone cannot be flushed from the database while true.
  [[nodiscard]] bool references(const LsaIdentity& id) const {
    return rxmt_.contains(id) || pending_flood_.contains(id) ||
           outstanding_.contains(id) || wanted_.contains(id);
  }
  /// Mid database exchange (ExStart..Loading): the RFC 14 flush guard.
  [[nodiscard]] bool in_exchange() const {
    return state_ >= NeighborState::kExStart && state_ < NeighborState::kFull;
  }
  [[nodiscard]] std::uint32_t peer_id() const { return peer_id_; }
  [[nodiscard]] bool is_master() const { return master_; }
  [[nodiscard]] const SessionCounters& counters() const { return counters_; }

 private:
  void send_packet_(Packet&& packet);
  void send_hello_();
  [[nodiscard]] bool hello_params_ok_(const HelloBody& hello);
  void enter_exstart_();
  void enter_full_();
  void reset_exchange_();
  void take_snapshot_();
  void send_dd_page_(bool init);
  void process_hello_(const HelloBody& hello);
  void process_dd_(const DatabaseDescriptionBody& dd);
  void process_lsr_(const LsRequestBody& lsr);
  void process_lsu_(const LsUpdateBody& lsu);
  void process_lsack_(const LsAckBody& ack);
  void process_summary_(const std::vector<LsaHeader>& headers);
  void finish_exchange_();
  void send_next_requests_();
  /// Send `lsas` as LS Updates, splitting into packets of at most
  /// kMaxUpdateBytes of LSA payload each. Every transmitted copy's age is
  /// advanced by InfTransDelay (RFC 13.3) -- the Fletcher checksum excludes
  /// the age field, so the instance stays byte-verifiable.
  void send_update_batches_(const std::vector<const WireLsa*>& lsas);
  void erase_rxmt_(std::map<LsaIdentity, WireLsa>::iterator it);
  void schedule_rxmt_();
  void on_rxmt_timer_();
  // Liveness timers (armed only when hello_interval_s > 0).
  void arm_hello_timer_();
  void arm_inactivity_timer_();
  void on_inactivity_();
  // RFC 13.5 coalescing timers.
  void arm_flood_flush_();
  void flush_pending_floods_();
  void queue_ack_(const LsaHeader& header);
  void flush_pending_acks_();
  // Exchange watchdog: under packet loss, re-issues the last DD / the
  // outstanding LS Requests on the RxmtInterval cadence so ExStart..Loading
  // cannot wedge on a single dropped packet.
  void arm_watchdog_();
  void on_watchdog_();
  void fire_event_(SessionEvent event);

  std::uint32_t self_id_;
  std::uint32_t peer_id_;
  DatabaseFacade& db_;
  util::Scheduler& events_;
  SessionConfig config_;
  SendFn send_;
  EventFn on_event_;

  NeighborState state_ = NeighborState::kDown;
  bool heard_peer_ = false;       ///< a Hello arrived on this interface
  bool introduced_self_ = false;  ///< we sent a Hello naming the peer
  bool master_ = false;
  std::uint32_t dd_seq_ = 0;
  bool sent_all_ = false;  ///< our last DD page carried M=0
  bool peer_done_ = false; ///< peer's last DD carried M=0
  std::vector<LsaHeader> summary_;  ///< DB snapshot taken entering Exchange
  std::size_t summary_pos_ = 0;
  /// Our last non-init DD page, resent on the watchdog (master) or on a
  /// duplicate poll from the master (slave, RFC 10.8).
  std::optional<DatabaseDescriptionBody> last_dd_;

  /// Newer instances to request, sent in identity order. Summaries list
  /// identities in ascending order, so that is the order they arrived in.
  std::set<LsaIdentity> wanted_;
  std::set<LsaIdentity> outstanding_;  ///< requested, not yet seen

  std::map<LsaIdentity, WireLsa> rxmt_;  ///< flooded, awaiting ack
  util::EventHandle rxmt_timer_;
  /// Floods coalescing toward the next batch flush (RFC 13.5); newer
  /// instances queued for the same identity supersede in place.
  std::map<LsaIdentity, WireLsa> pending_flood_;
  util::EventHandle flood_flush_timer_;
  std::vector<LsaHeader> pending_ack_;  ///< delayed acknowledgments
  util::EventHandle ack_timer_;
  util::EventHandle hello_timer_;
  util::EventHandle inactivity_timer_;
  util::EventHandle watchdog_timer_;

  SessionCounters counters_;  // obs:registered(proto)
};

}  // namespace fibbing::proto
