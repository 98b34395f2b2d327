#include "proto/neighbor.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace fibbing::proto {

namespace {

/// The interface MTU every Database Description packet advertises.
constexpr std::uint16_t kInterfaceMtu = 1500;
/// The wire Hello carries whole-second intervals; a disabled (<= 0) timer
/// advertises the RFC defaults so liveness-off sessions interoperate with
/// each other (both sides advertise the same values either way).
std::uint32_t wire_interval(double seconds, std::uint32_t fallback) {
  if (seconds <= 0.0) return fallback;
  return static_cast<std::uint32_t>(std::lround(seconds));
}

/// Age as transmitted: one InfTransDelay hop further along, clamped so a
/// flushing (MaxAge) instance stays exactly at MaxAge (RFC 13.3).
std::uint16_t aged_for_transmit(std::uint16_t age) {
  return age >= kMaxAge - kInfTransDelay ? kMaxAge
                                         : static_cast<std::uint16_t>(age + kInfTransDelay);
}

LsRequestEntry request_entry(const LsaIdentity& id) {
  return LsRequestEntry{static_cast<std::uint32_t>(id.type), id.link_state_id,
                        id.advertising_router};
}

}  // namespace

const char* to_string(NeighborState state) {
  switch (state) {
    case NeighborState::kDown: return "Down";
    case NeighborState::kInit: return "Init";
    case NeighborState::kTwoWay: return "2-Way";
    case NeighborState::kExStart: return "ExStart";
    case NeighborState::kExchange: return "Exchange";
    case NeighborState::kLoading: return "Loading";
    case NeighborState::kFull: return "Full";
  }
  return "unknown";
}

SessionCounters& SessionCounters::operator+=(const SessionCounters& other) {
  packets_sent += other.packets_sent;
  bytes_sent += other.bytes_sent;
  hellos_sent += other.hellos_sent;
  dds_sent += other.dds_sent;
  dd_headers_sent += other.dd_headers_sent;
  lsrs_sent += other.lsrs_sent;
  ls_requests_sent += other.ls_requests_sent;
  lsus_sent += other.lsus_sent;
  lsas_sent += other.lsas_sent;
  lsacks_sent += other.lsacks_sent;
  retransmissions += other.retransmissions;
  hellos_rejected += other.hellos_rejected;
  return *this;
}

NeighborSession::NeighborSession(std::uint32_t self_id, std::uint32_t peer_id,
                                 DatabaseFacade& db, util::Scheduler& events,
                                 SessionConfig config, SendFn send)
    : self_id_(self_id),
      peer_id_(peer_id),
      db_(db),
      events_(events),
      config_(config),
      send_(std::move(send)) {
  FIB_ASSERT(self_id_ != peer_id_, "NeighborSession: self adjacency");
  FIB_ASSERT(send_ != nullptr, "NeighborSession: transport not wired");
}

NeighborSession::~NeighborSession() {
  events_.cancel(rxmt_timer_);
  events_.cancel(flood_flush_timer_);
  events_.cancel(ack_timer_);
  events_.cancel(hello_timer_);
  events_.cancel(inactivity_timer_);
  events_.cancel(watchdog_timer_);
}

void NeighborSession::start() {
  FIB_ASSERT(state_ == NeighborState::kDown, "NeighborSession::start: not Down");
  send_hello_();
  if (config_.hello_interval_s > 0.0) {
    arm_hello_timer_();
    // A peer that never speaks at all must still be declared dead.
    arm_inactivity_timer_();
  }
}

void NeighborSession::shutdown() {
  state_ = NeighborState::kDown;
  heard_peer_ = false;
  introduced_self_ = false;
  reset_exchange_();
  events_.cancel(hello_timer_);
  hello_timer_ = {};
  events_.cancel(inactivity_timer_);
  inactivity_timer_ = {};
}

void NeighborSession::reset_exchange_() {
  master_ = false;
  dd_seq_ = 0;
  sent_all_ = false;
  peer_done_ = false;
  summary_.clear();
  summary_pos_ = 0;
  last_dd_.reset();
  wanted_.clear();
  outstanding_.clear();
  rxmt_.clear();
  pending_flood_.clear();
  pending_ack_.clear();
  events_.cancel(rxmt_timer_);
  rxmt_timer_ = {};
  events_.cancel(flood_flush_timer_);
  flood_flush_timer_ = {};
  events_.cancel(ack_timer_);
  ack_timer_ = {};
  events_.cancel(watchdog_timer_);
  watchdog_timer_ = {};
}

void NeighborSession::fire_event_(SessionEvent event) {
  if (on_event_) on_event_(event);
}

void NeighborSession::send_packet_(Packet&& packet) {
  packet.router_id = self_id_;
  auto buffer = std::make_shared<const Buffer>(encode_packet(packet));
  ++counters_.packets_sent;
  counters_.bytes_sent += buffer->size();
  send_(buffer);
}

void NeighborSession::send_hello_() {
  HelloBody hello;
  hello.hello_interval =
      static_cast<std::uint16_t>(wire_interval(config_.hello_interval_s, 10));
  hello.dead_interval = wire_interval(config_.dead_interval_s, 40);
  if (heard_peer_) {
    hello.neighbors.push_back(peer_id_);
    introduced_self_ = true;
  }
  ++counters_.hellos_sent;
  send_packet_(Packet{self_id_, 0, std::move(hello)});
}

void NeighborSession::arm_hello_timer_() {
  hello_timer_ = events_.schedule_in(config_.hello_interval_s, [this] {
    hello_timer_ = {};
    send_hello_();
    arm_hello_timer_();
  });
}

void NeighborSession::arm_inactivity_timer_() {
  if (config_.dead_interval_s <= 0.0) return;
  events_.cancel(inactivity_timer_);
  inactivity_timer_ = events_.schedule_in(config_.dead_interval_s, [this] {
    inactivity_timer_ = {};
    on_inactivity_();
  });
}

void NeighborSession::on_inactivity_() {
  // RFC 10.3 InactivityTimer: RouterDeadInterval of Hello silence. The
  // adjacency is dead; fall to Down but keep sending periodic Hellos so a
  // recovered peer can bring it back. The timer stays dormant until the
  // next Hello actually arrives.
  FIB_LOG(kInfo, "proto") << self_id_ << ": neighbor " << peer_id_
                          << " dead (RouterDeadInterval expired in "
                          << to_string(state_) << ")";
  reset_exchange_();
  state_ = NeighborState::kDown;
  heard_peer_ = false;
  introduced_self_ = false;
  // Fired even from Init/TwoWay: the owner may be advertising the link from
  // configuration (a peer that never came up is just as unreachable as one
  // that died mid-adjacency) and must stop either way.
  fire_event_(SessionEvent::kAdjacencyLost);
}

bool NeighborSession::hello_params_ok_(const HelloBody& hello) {
  // RFC 10.5: HelloInterval, RouterDeadInterval and (on non-p2p networks)
  // the network mask must match ours exactly, else the Hello is dropped.
  // Our interfaces are p2p (mask 0 both sides), so the mask check only
  // trips on a genuinely malformed peer.
  HelloBody ours;
  ours.hello_interval =
      static_cast<std::uint16_t>(wire_interval(config_.hello_interval_s, 10));
  ours.dead_interval = wire_interval(config_.dead_interval_s, 40);
  if (hello.hello_interval == ours.hello_interval &&
      hello.dead_interval == ours.dead_interval &&
      hello.network_mask == ours.network_mask) {
    return true;
  }
  ++counters_.hellos_rejected;
  FIB_LOG(kWarn, "proto") << self_id_ << ": Hello from " << peer_id_
                          << " rejected (10.5 mismatch: interval "
                          << hello.hello_interval << "/" << ours.hello_interval
                          << ", dead " << hello.dead_interval << "/"
                          << ours.dead_interval << ")";
  return false;
}

void NeighborSession::process_hello_(const HelloBody& hello) {
  if (!hello_params_ok_(hello)) return;
  heard_peer_ = true;
  if (config_.hello_interval_s > 0.0) arm_inactivity_timer_();
  const bool lists_us =
      std::find(hello.neighbors.begin(), hello.neighbors.end(), self_id_) !=
      hello.neighbors.end();
  if (!lists_us) {
    if (state_ >= NeighborState::kTwoWay) {
      // RFC 10.2 1-WayReceived: the peer restarted and forgot us. Drop back
      // and re-introduce ourselves; the exchange restarts from scratch.
      FIB_LOG(kDebug, "proto") << self_id_ << ": 1-way from " << peer_id_
                               << ", restarting adjacency";
      const bool was_usable = state_ >= NeighborState::kExStart;
      reset_exchange_();
      state_ = NeighborState::kInit;
      introduced_self_ = false;
      if (was_usable) fire_event_(SessionEvent::kAdjacencyLost);
    } else if (state_ == NeighborState::kDown) {
      state_ = NeighborState::kInit;
    }
    if (!introduced_self_) send_hello_();
    return;
  }
  if (state_ <= NeighborState::kInit) {
    // 2-WayReceived; p2p interfaces always form the adjacency, so 2-Way is
    // transient and we negotiate the exchange immediately.
    if (!introduced_self_) send_hello_();  // let the peer pass its 2-way check
    enter_exstart_();
  }
  // Hellos at ExStart or later are keepalives; nothing to do.
}

void NeighborSession::receive(const Packet& packet) {
  if (const auto* hello = std::get_if<HelloBody>(&packet.body)) {
    process_hello_(*hello);
  } else if (const auto* dd = std::get_if<DatabaseDescriptionBody>(&packet.body)) {
    process_dd_(*dd);
  } else if (const auto* lsr = std::get_if<LsRequestBody>(&packet.body)) {
    process_lsr_(*lsr);
  } else if (const auto* lsu = std::get_if<LsUpdateBody>(&packet.body)) {
    process_lsu_(*lsu);
  } else {
    process_lsack_(std::get<LsAckBody>(packet.body));
  }
}

void NeighborSession::enter_exstart_() {
  reset_exchange_();
  state_ = NeighborState::kExStart;
  master_ = self_id_ > peer_id_;  // RFC 10.6: larger router id wins mastership
  dd_seq_ = self_id_;             // any initial value; ours if we stay master
  send_dd_page_(/*init=*/true);
  arm_watchdog_();
}

void NeighborSession::enter_full_() {
  state_ = NeighborState::kFull;
  events_.cancel(watchdog_timer_);
  watchdog_timer_ = {};
  FIB_LOG(kDebug, "proto") << self_id_ << ": adjacency with " << peer_id_
                           << " Full";
  fire_event_(SessionEvent::kAdjacencyFull);
}

void NeighborSession::take_snapshot_() {
  summary_ = db_.summarize();
  summary_pos_ = 0;
  sent_all_ = false;
}

void NeighborSession::send_dd_page_(bool init) {
  DatabaseDescriptionBody dd;
  dd.interface_mtu = kInterfaceMtu;
  dd.dd_sequence = dd_seq_;
  if (init) {
    dd.flags = kDdFlagInit | kDdFlagMore | kDdFlagMasterSlave;
  } else {
    const std::size_t take =
        std::min(config_.max_dd_headers, summary_.size() - summary_pos_);
    dd.headers.assign(summary_.begin() + static_cast<std::ptrdiff_t>(summary_pos_),
                      summary_.begin() + static_cast<std::ptrdiff_t>(summary_pos_ + take));
    summary_pos_ += take;
    sent_all_ = summary_pos_ >= summary_.size();
    dd.flags = static_cast<std::uint8_t>((master_ ? kDdFlagMasterSlave : 0) |
                                         (sent_all_ ? 0 : kDdFlagMore));
    counters_.dd_headers_sent += dd.headers.size();
    last_dd_ = dd;
  }
  ++counters_.dds_sent;
  send_packet_(Packet{self_id_, 0, std::move(dd)});
}

void NeighborSession::process_dd_(const DatabaseDescriptionBody& dd) {
  if (state_ < NeighborState::kExStart) return;  // RFC 10.8: reject early DDs
  if (state_ >= NeighborState::kExchange && (dd.flags & kDdFlagInit)) {
    // RFC 10.6 SeqNumberMismatch: the peer restarted its exchange. Restart
    // ours; negotiation resolves mastership again.
    FIB_LOG(kDebug, "proto") << self_id_ << ": DD init from " << peer_id_
                             << " mid-exchange, restarting";
    enter_exstart_();
    // Fall through into ExStart handling of this same packet below.
  }

  if (state_ == NeighborState::kExStart) {
    if (!master_ && (dd.flags & kDdFlagInit) && (dd.flags & kDdFlagMasterSlave)) {
      // The master's opening DD: adopt its sequence number and respond with
      // our first summary page (negotiation done, RFC 10.8).
      dd_seq_ = dd.dd_sequence;
      take_snapshot_();
      state_ = NeighborState::kExchange;
      peer_done_ = false;
      send_dd_page_(/*init=*/false);
    } else if (master_ && !(dd.flags & kDdFlagInit) && dd.dd_sequence == dd_seq_) {
      // The slave echoed our sequence: negotiation done, start exchanging.
      take_snapshot_();
      state_ = NeighborState::kExchange;
      process_summary_(dd.headers);
      peer_done_ = !(dd.flags & kDdFlagMore);
      ++dd_seq_;
      send_dd_page_(/*init=*/false);
      if (sent_all_ && peer_done_) finish_exchange_();
    }
    // Anything else (the lower-id peer's own init DD) is silently dropped;
    // the peer answers *our* init DD as slave.
    return;
  }
  if (state_ != NeighborState::kExchange) return;

  if (master_) {
    if (dd.dd_sequence != dd_seq_) return;  // stale echo of an older poll: drop
    process_summary_(dd.headers);
    peer_done_ = !(dd.flags & kDdFlagMore);
    if (sent_all_ && peer_done_) {
      finish_exchange_();
      return;
    }
    ++dd_seq_;
    send_dd_page_(/*init=*/false);
    if (sent_all_ && peer_done_) finish_exchange_();
  } else {
    if (dd.dd_sequence != dd_seq_ + 1) {
      // RFC 10.8 slave: a duplicate of the last poll means our response was
      // lost -- repeat it verbatim. Anything else is a stale echo.
      if (dd.dd_sequence == dd_seq_ && last_dd_.has_value()) {
        ++counters_.retransmissions;
        ++counters_.dds_sent;
        send_packet_(Packet{self_id_, 0, DatabaseDescriptionBody(*last_dd_)});
      }
      return;
    }
    dd_seq_ = dd.dd_sequence;
    process_summary_(dd.headers);
    peer_done_ = !(dd.flags & kDdFlagMore);
    send_dd_page_(/*init=*/false);
    if (peer_done_ && sent_all_) finish_exchange_();
  }
}

void NeighborSession::process_summary_(const std::vector<LsaHeader>& headers) {
  for (const LsaHeader& header : headers) {
    const LsaIdentity id = identity_of(header);
    const WireLsa* mine = db_.lookup(id);
    if (mine != nullptr && compare_instances(header, mine->header) <= 0) continue;
    if (!outstanding_.contains(id)) wanted_.insert(id);
  }
}

void NeighborSession::finish_exchange_() {
  if (wanted_.empty() && outstanding_.empty()) {
    enter_full_();
    return;
  }
  state_ = NeighborState::kLoading;
  send_next_requests_();
}

void NeighborSession::send_next_requests_() {
  if (wanted_.empty()) {
    if (outstanding_.empty()) enter_full_();
    return;
  }
  LsRequestBody lsr;
  while (!wanted_.empty() && lsr.entries.size() < config_.max_request_entries) {
    lsr.entries.push_back(request_entry(*wanted_.begin()));
    outstanding_.insert(wanted_.extract(wanted_.begin()));
  }
  counters_.ls_requests_sent += lsr.entries.size();
  ++counters_.lsrs_sent;
  send_packet_(Packet{self_id_, 0, std::move(lsr)});
}

void NeighborSession::send_update_batches_(const std::vector<const WireLsa*>& lsas) {
  LsUpdateBody batch;
  std::size_t batch_bytes = 0;
  const auto flush = [&] {
    if (batch.lsas.empty()) return;
    counters_.lsas_sent += batch.lsas.size();
    ++counters_.lsus_sent;
    send_packet_(Packet{self_id_, 0, std::move(batch)});
    batch = LsUpdateBody{};
    batch_bytes = 0;
  };
  for (const WireLsa* lsa : lsas) {
    // The wire length field is 16 bits; flush before a batch could ever
    // approach it. A single oversized LSA still travels alone.
    if (!batch.lsas.empty() &&
        batch_bytes + lsa->header.length > kMaxUpdateBytes) {
      flush();
    }
    batch.lsas.push_back(*lsa);
    batch.lsas.back().header.age = aged_for_transmit(lsa->header.age);
    batch_bytes += lsa->header.length;
  }
  flush();
}

void NeighborSession::process_lsr_(const LsRequestBody& lsr) {
  if (state_ < NeighborState::kExchange) return;
  std::vector<const WireLsa*> response;
  for (const LsRequestEntry& entry : lsr.entries) {
    const LsaIdentity id{static_cast<WireLsaType>(entry.type), entry.link_state_id,
                         entry.advertising_router};
    const WireLsa* mine = db_.lookup(id);
    if (mine == nullptr) {
      // RFC 10.7 BadLSReq. A truthful summary makes this unreachable in the
      // simulator; tolerate it rather than tearing the adjacency down.
      FIB_LOG(kWarn, "proto") << self_id_ << ": LS request from " << peer_id_
                              << " for an instance we do not hold";
      continue;
    }
    response.push_back(mine);
  }
  send_update_batches_(response);
}

void NeighborSession::erase_rxmt_(std::map<LsaIdentity, WireLsa>::iterator it) {
  const LsaIdentity id = it->first;
  rxmt_.erase(it);
  if (rxmt_.empty()) {
    events_.cancel(rxmt_timer_);
    rxmt_timer_ = {};
  }
  db_.on_flood_acked(id);
}

void NeighborSession::process_lsu_(const LsUpdateBody& lsu) {
  if (state_ < NeighborState::kExchange) return;
  LsUpdateBody newer_back;  // RFC 13(8): answer stale instances with ours
  for (const WireLsa& lsa : lsu.lsas) {
    const LsaIdentity id = identity_of(lsa.header);
    // Implied acknowledgment: an equal-or-newer instance from the peer
    // proves it holds what we flooded.
    if (const auto it = rxmt_.find(id);
        it != rxmt_.end() && compare_instances(lsa.header, it->second.header) >= 0) {
      erase_rxmt_(it);
    }
    // An equal-or-newer arrival also supersedes a flood still coalescing
    // toward this peer: sending ours would only bounce a duplicate back.
    // This counts as an implied acknowledgment too -- if it was the last
    // reference to a MaxAge tombstone, the database must hear about it or
    // the RFC 14 flush check never re-runs and the tombstone is stranded.
    if (const auto it = pending_flood_.find(id);
        it != pending_flood_.end() &&
        compare_instances(lsa.header, it->second.header) >= 0) {
      pending_flood_.erase(it);
      db_.on_flood_acked(id);
    }
    switch (db_.deliver(lsa, peer_id_)) {
      case DatabaseFacade::DeliverResult::kNewer:
      case DatabaseFacade::DeliverResult::kDuplicate:
        queue_ack_(lsa.header);
        break;
      case DatabaseFacade::DeliverResult::kStale:
        if (const WireLsa* mine = db_.lookup(id)) newer_back.lsas.push_back(*mine);
        break;
    }
    // Loading bookkeeping: however the instance got here (response or
    // concurrent flood), it is no longer wanted.
    wanted_.erase(id);
    outstanding_.erase(id);
  }
  if (config_.ack_delay_s <= 0.0) flush_pending_acks_();
  if (!newer_back.lsas.empty()) {
    std::vector<const WireLsa*> ours;
    ours.reserve(newer_back.lsas.size());
    for (const WireLsa& lsa : newer_back.lsas) ours.push_back(&lsa);
    send_update_batches_(ours);
  }
  if (state_ == NeighborState::kLoading && outstanding_.empty()) {
    send_next_requests_();
  }
}

void NeighborSession::queue_ack_(const LsaHeader& header) {
  pending_ack_.push_back(header);
  if (config_.ack_delay_s <= 0.0) return;  // process_lsu_ flushes per packet
  if (ack_timer_.valid()) return;
  ack_timer_ = events_.schedule_in(config_.ack_delay_s, [this] {
    ack_timer_ = {};
    flush_pending_acks_();
  });
}

void NeighborSession::flush_pending_acks_() {
  if (pending_ack_.empty()) return;
  LsAckBody ack;
  ack.headers = std::move(pending_ack_);
  pending_ack_.clear();
  ++counters_.lsacks_sent;
  send_packet_(Packet{self_id_, 0, std::move(ack)});
}

void NeighborSession::process_lsack_(const LsAckBody& ack) {
  if (state_ < NeighborState::kExchange) return;
  for (const LsaHeader& header : ack.headers) {
    const auto it = rxmt_.find(identity_of(header));
    if (it == rxmt_.end()) continue;
    if (compare_instances(header, it->second.header) >= 0) erase_rxmt_(it);
  }
}

void NeighborSession::flood(const WireLsa& lsa) {
  if (state_ < NeighborState::kExchange) return;  // DD snapshot covers it
  if (config_.flood_batch_window_s <= 0.0) {
    rxmt_[identity_of(lsa.header)] = lsa;
    send_update_batches_({&lsa});
    schedule_rxmt_();
    return;
  }
  // RFC 13.5: coalesce floods landing within the batch window into one LS
  // Update. A newer instance of a queued identity supersedes it in place,
  // so a rapid re-origination costs one transmission, not two.
  pending_flood_.insert_or_assign(identity_of(lsa.header), lsa);
  arm_flood_flush_();
}

void NeighborSession::arm_flood_flush_() {
  if (flood_flush_timer_.valid()) return;
  flood_flush_timer_ = events_.schedule_in(config_.flood_batch_window_s, [this] {
    flood_flush_timer_ = {};
    flush_pending_floods_();
  });
}

void NeighborSession::flush_pending_floods_() {
  if (pending_flood_.empty() || state_ < NeighborState::kExchange) {
    pending_flood_.clear();
    return;
  }
  std::vector<const WireLsa*> batch;
  batch.reserve(pending_flood_.size());
  for (auto& [id, lsa] : pending_flood_) {
    batch.push_back(&rxmt_.insert_or_assign(id, std::move(lsa)).first->second);
  }
  pending_flood_.clear();
  send_update_batches_(batch);
  schedule_rxmt_();
}

void NeighborSession::schedule_rxmt_() {
  if (rxmt_timer_.valid()) return;
  rxmt_timer_ = events_.schedule_in(kRxmtIntervalS, [this] {
    rxmt_timer_ = {};
    on_rxmt_timer_();
  });
}

void NeighborSession::on_rxmt_timer_() {
  if (state_ < NeighborState::kExchange || rxmt_.empty()) return;
  std::vector<const WireLsa*> unacked;
  unacked.reserve(rxmt_.size());
  for (const auto& [id, lsa] : rxmt_) unacked.push_back(&lsa);
  counters_.retransmissions += unacked.size();
  send_update_batches_(unacked);
  schedule_rxmt_();
}

void NeighborSession::arm_watchdog_() {
  events_.cancel(watchdog_timer_);
  watchdog_timer_ = events_.schedule_in(kRxmtIntervalS, [this] {
    watchdog_timer_ = {};
    on_watchdog_();
  });
}

void NeighborSession::on_watchdog_() {
  // Lossy-link safety net: ExStart..Loading normally completes well inside
  // one RxmtInterval, so a fire here means a DD, LSR or LSU went missing.
  // Re-issue the last unanswered packet; every receive path tolerates
  // duplicates (the slave even re-answers a duplicate poll above).
  switch (state_) {
    case NeighborState::kExStart:
      ++counters_.retransmissions;
      send_dd_page_(/*init=*/true);
      break;
    case NeighborState::kExchange:
      if (master_ && last_dd_.has_value()) {
        ++counters_.retransmissions;
        ++counters_.dds_sent;
        send_packet_(Packet{self_id_, 0, DatabaseDescriptionBody(*last_dd_)});
      }
      break;
    case NeighborState::kLoading: {
      if (outstanding_.empty()) break;
      LsRequestBody lsr;
      for (const LsaIdentity& id : outstanding_) {
        if (lsr.entries.size() >= config_.max_request_entries) break;
        lsr.entries.push_back(request_entry(id));
      }
      counters_.retransmissions += lsr.entries.size();
      ++counters_.lsrs_sent;
      send_packet_(Packet{self_id_, 0, std::move(lsr)});
      break;
    }
    default:
      return;  // Full or torn down: the watchdog retires
  }
  arm_watchdog_();
}

}  // namespace fibbing::proto
