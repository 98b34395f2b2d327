#include "igp/router_process.hpp"

#include <utility>

#include "util/logging.hpp"

namespace fibbing::igp {

RouterProcess::RouterProcess(topo::NodeId self, std::size_t node_count,
                             const proto::AddressMap& addrs,
                             util::Scheduler& events, IgpTiming timing)
    : self_(self),
      addrs_(&addrs),
      events_(events),
      timing_(timing),
      spf_(self, node_count) {}

void RouterProcess::add_neighbor(topo::NodeId peer) {
  FIB_ASSERT(!sessions_.contains(peer), "add_neighbor: session already exists");
  proto::SessionConfig config;
  config.hello_interval_s = timing_.hello_interval_s;
  config.dead_interval_s = timing_.dead_interval_s;
  config.flood_batch_window_s = timing_.flood_batch_window_s;
  config.ack_delay_s = timing_.ack_delay_s;
  auto session = std::make_unique<proto::NeighborSession>(
      addrs_->router_id(self_), addrs_->router_id(peer),
      static_cast<proto::DatabaseFacade&>(*this), events_, config,
      [this, peer](const proto::BufferPtr& buffer) {
        FIB_ASSERT(send_ != nullptr, "RouterProcess: transport not wired");
        send_(self_, peer, buffer);
      });
  session->set_on_event([this, peer](proto::SessionEvent event) {
    on_session_event_(peer, event);
  });
  if (started_) session->start();
  sessions_.emplace(peer, std::move(session));
}

void RouterProcess::remove_neighbor(topo::NodeId peer) {
  const auto it = sessions_.find(peer);
  if (it == sessions_.end()) return;
  it->second->shutdown();
  retired_ += it->second->counters();
  sessions_.erase(it);
  // The dead session's retransmission and pending lists are gone; any
  // tombstone it alone still referenced is now flushable.
  sweep_tombstones_();
}

void RouterProcess::on_session_event_(topo::NodeId peer,
                                      proto::SessionEvent event) {
  // Reaching Full empties the exchange lists; losing the adjacency clears
  // them -- either way tombstone flushes may have unblocked.
  sweep_tombstones_();
  if (on_adjacency_) {
    on_adjacency_(self_, peer, event == proto::SessionEvent::kAdjacencyFull);
  }
}

void RouterProcess::start() {
  FIB_ASSERT(!started_, "RouterProcess::start called twice");
  started_ = true;
  for (auto& [peer, session] : sessions_) session->start();
}

const proto::NeighborSession* RouterProcess::session(topo::NodeId peer) const {
  const auto it = sessions_.find(peer);
  return it == sessions_.end() ? nullptr : it->second.get();
}

bool RouterProcess::synchronized() const {
  for (const auto& [peer, session] : sessions_) {
    if (!session->synchronized()) return false;
  }
  return true;
}

bool RouterProcess::quiescent() const {
  for (const auto& [peer, session] : sessions_) {
    if (!session->quiescent()) return false;
  }
  return true;
}

proto::SessionCounters RouterProcess::counters() const {
  proto::SessionCounters total = retired_;
  total += controller_io_;
  for (const auto& [peer, session] : sessions_) total += session->counters();
  return total;
}

void RouterProcess::maybe_flush_tombstone_(const proto::LsaIdentity& id) {
  // RFC 14: a MaxAge instance leaves the database once it is off every
  // neighbor's retransmission (and pending) list and no neighbor is mid
  // database exchange -- every adjacent replica provably saw the flush.
  const auto it = wire_store_.find(id);
  if (it == wire_store_.end() || it->second.wire.header.age != proto::kMaxAge) return;
  for (const auto& [peer, session] : sessions_) {
    if (session->in_exchange() || session->references(id)) return;
  }
  FIB_LOG(kDebug, "igp") << "router " << self_ << ": flushing MaxAge tombstone";
  lsdb_.erase(it->second.key);
  wire_store_.erase(it);
  ++tombstones_flushed_;
}

void RouterProcess::sweep_tombstones_() {
  std::vector<proto::LsaIdentity> tombstones;
  for (const auto& [id, stored] : wire_store_) {
    if (stored.wire.header.age == proto::kMaxAge) tombstones.push_back(id);
  }
  for (const proto::LsaIdentity& id : tombstones) maybe_flush_tombstone_(id);
}

void RouterProcess::on_flood_acked(const proto::LsaIdentity& id) {
  maybe_flush_tombstone_(id);
}

void RouterProcess::originate(Lsa lsa) {
  proto::WireLsa wire = proto::to_wire(lsa, *addrs_);
  const LsaKey key = lsa.id;
  const auto result = lsdb_.install(std::make_shared<const Lsa>(std::move(lsa)));
  if (result != Lsdb::InstallResult::kNewer) return;
  const proto::LsaIdentity id = proto::identity_of(wire.header);
  wire_store_.insert_or_assign(id, StoredLsa{key, wire});
  flood_(wire, /*except_router_id=*/addrs_->router_id(self_));
  schedule_spf_();
  if (wire.header.age == proto::kMaxAge) maybe_flush_tombstone_(id);
}

void RouterProcess::flood_(const proto::WireLsa& lsa,
                           std::uint32_t except_router_id) {
  // Each session coalesces floods landing within its batching window into
  // one LS Update (RFC 13.5), so per-session queuing replaced the old
  // shared-buffer encode: batch composition differs per neighbor.
  for (auto& [peer, session] : sessions_) {
    if (session->peer_id() == except_router_id) continue;
    session->flood(lsa);  // no-op below Exchange: DD sync covers those
  }
}

void RouterProcess::echo_to_controller_(const proto::WireLsa& lsa) {
  proto::LsUpdateBody echo;
  echo.lsas.push_back(lsa);
  proto::Packet packet{addrs_->router_id(self_), 0, std::move(echo)};
  auto bytes =
      std::make_shared<const proto::Buffer>(proto::encode_packet(packet));
  ++controller_io_.packets_sent;
  ++controller_io_.lsus_sent;
  ++controller_io_.lsas_sent;
  controller_io_.bytes_sent += bytes->size();
  controller_send_(bytes);
}

std::vector<proto::LsaHeader> RouterProcess::summarize() const {
  std::vector<proto::LsaHeader> headers;
  headers.reserve(wire_store_.size());
  for (const auto& [id, stored] : wire_store_) headers.push_back(stored.wire.header);
  return headers;
}

const proto::WireLsa* RouterProcess::lookup(const proto::LsaIdentity& id) const {
  const auto it = wire_store_.find(id);
  return it == wire_store_.end() ? nullptr : &it->second.wire;
}

proto::DatabaseFacade::DeliverResult RouterProcess::deliver(
    const proto::WireLsa& lsa, std::uint32_t from_router_id) {
  // Flooding delivers most instances once per adjacency, so the common case
  // is a copy we already hold: settle that from the stored wire header
  // before paying for translation.
  const proto::LsaIdentity id = proto::identity_of(lsa.header);
  const proto::WireLsa* mine = lookup(id);
  if (mine != nullptr) {
    if (lsa.header.type == proto::WireLsaType::kExternal) {
      const auto& incoming = std::get<proto::ExternalLsaBody>(lsa.body);
      const auto& stored = std::get<proto::ExternalLsaBody>(mine->body);
      if (incoming.route_tag != stored.route_tag) {
        // Appendix-E aliasing: a *different* lie (route tag) arrived under
        // the wire identity a stored lie owns -- their ids collide modulo
        // 2^(32-len) of the prefix. Installing it would silently replace
        // the stored lie in this LSDB (and, via flooding, every LSDB).
        // Refuse the instance and ack it so retransmission stops; the
        // counter surfaces the event to tests and operators.
        ++alias_collisions_;
        FIB_LOG(kWarn, "igp")
            << "router " << self_ << ": external LSA aliasing: lie "
            << incoming.route_tag << " collides with stored lie "
            << stored.route_tag << " at one wire identity; rejected";
        return DeliverResult::kDuplicate;
      }
    }
    const int order = proto::compare_instances(lsa.header, mine->header);
    if (order <= 0) {
      return order == 0 ? DeliverResult::kDuplicate : DeliverResult::kStale;
    }
  } else if (lsa.header.age == proto::kMaxAge) {
    // RFC 13 step (4): a MaxAge instance of an LSA we hold no copy of, with
    // no neighbor mid database exchange, is acknowledged directly and never
    // installed -- re-installing a withdrawal we already flushed would only
    // restart its flood.
    bool exchanging = false;
    for (const auto& [peer, session] : sessions_) {
      if (session->in_exchange()) {
        exchanging = true;
        break;
      }
    }
    if (!exchanging) return DeliverResult::kDuplicate;
  }
  proto::Decoded<Lsa> translated = proto::from_wire(lsa, *addrs_);
  if (!translated) {
    // The checksum held, so this is a structurally valid LSA referencing
    // things this domain does not know -- drop it (and ack, so the sender
    // stops retransmitting an instance we will never install).
    FIB_LOG(kWarn, "igp") << "router " << self_ << ": untranslatable LSA ("
                          << proto::to_string(translated.error().kind) << ": "
                          << translated.error().detail << ")";
    return DeliverResult::kDuplicate;
  }
  const LsaKey key = translated.value().id;
  const auto result =
      lsdb_.install(std::make_shared<const Lsa>(std::move(translated).value()));
  switch (result) {
    case Lsdb::InstallResult::kNewer:
      wire_store_.insert_or_assign(id, StoredLsa{key, lsa});
      flood_(lsa, from_router_id);
      schedule_spf_();
      if (tracer_ != nullptr && tracer_->enabled() &&
          lsa.header.type == proto::WireLsaType::kExternal &&
          lsa.header.advertising_router == proto::kControllerRouterId &&
          lsa.header.age != proto::kMaxAge) {
        // A live lie landed in this replica (key.key IS the lie id for
        // externals). Stamp its trace's LSA-install stage and remember it
        // for the SPF run the schedule above just armed.
        if (const std::uint64_t trace = tracer_->trace_for_lie(key.key);
            trace != 0) {
          emit_trace_(trace, obs::Stage::kLsaInstall, key.key);
          pending_trace_lies_.insert(key.key);
        }
      }
      if (controller_send_ != nullptr && from_router_id != proto::kControllerRouterId &&
          lsa.header.type == proto::WireLsaType::kExternal &&
          lsa.header.advertising_router == proto::kControllerRouterId) {
        // A controller-originated lie arrived over a *real* adjacency and
        // superseded our copy -- e.g. a healed partition resurrecting an
        // instance whose tombstone was already flushed (RFC 13.4, applied
        // on the controller's behalf). Echo it up the controller session,
        // which re-flushes withdrawn lies at a fresher sequence.
        echo_to_controller_(lsa);
      }
      if (lsa.header.age == proto::kMaxAge) {
        // If no adjacency took the flood (all Full neighbors already acked
        // or none exist), the tombstone is flushable right now.
        maybe_flush_tombstone_(id);
      }
      return DeliverResult::kNewer;
    case Lsdb::InstallResult::kDuplicate:
      return DeliverResult::kDuplicate;
    case Lsdb::InstallResult::kStale:
      return DeliverResult::kStale;
  }
  return DeliverResult::kDuplicate;
}

void RouterProcess::receive_packet(topo::NodeId from, const BufferPtr& buffer) {
  proto::Decoded<proto::Packet> decoded = proto::decode_packet(*buffer);
  if (!decoded) {
    FIB_LOG(kWarn, "igp") << "router " << self_ << ": undecodable packet from "
                          << from << " (" << proto::to_string(decoded.error().kind)
                          << ": " << decoded.error().detail << ")";
    return;
  }
  const auto it = sessions_.find(from);
  if (it == sessions_.end()) return;  // adjacency raced away: drop
  it->second->receive(decoded.value());
}

void RouterProcess::receive_controller_packet(const BufferPtr& buffer) {
  proto::Decoded<proto::Packet> decoded = proto::decode_packet(*buffer);
  if (!decoded) {
    FIB_LOG(kWarn, "igp") << "router " << self_
                          << ": undecodable controller packet ("
                          << proto::to_string(decoded.error().kind) << ")";
    return;
  }
  const auto* lsu = std::get_if<proto::LsUpdateBody>(&decoded.value().body);
  if (lsu == nullptr) return;  // the controller only speaks LS Updates
  proto::LsAckBody ack;
  for (const proto::WireLsa& lsa : lsu->lsas) {
    // The controller adjacency behaves like an always-Full neighbor outside
    // the flooding graph: install and flood to every real adjacency.
    deliver(lsa, proto::kControllerRouterId);
    ack.headers.push_back(lsa.header);
  }
  if (ack.headers.empty() || controller_send_ == nullptr) return;
  proto::Packet response{addrs_->router_id(self_), 0, std::move(ack)};
  auto bytes =
      std::make_shared<const proto::Buffer>(proto::encode_packet(response));
  ++controller_io_.packets_sent;
  ++controller_io_.lsacks_sent;
  controller_io_.bytes_sent += bytes->size();
  controller_send_(bytes);
}

void RouterProcess::schedule_spf_() {
  if (spf_pending_) return;  // hold-down: batch further LSDB changes
  spf_pending_ = true;
  events_.schedule_in(kSpfDelayS, [this] {
    spf_pending_ = false;
    run_spf_now_();
  });
}

RouterSpf::RouterSpf(topo::NodeId self, std::size_t node_count)
    : self_(self), view_(node_count) {}

RouterSpf::Run RouterSpf::run(Lsdb& lsdb) {
  Run run;
  run.origins_read = view_.patch_from_lsdb(lsdb, lsdb.drain_changes(), run.deltas);
  if (!ran_) {
    spf_ = run_spf(view_, self_);
  } else {
    // The hold-down window's changes, repaired against the previous run.
    SpfUpdate update = update_spf(view_, spf_, run.deltas);
    switch (update.mode) {
      case SpfUpdate::Mode::kUnchanged:
        run.incremental = true;  // spf_ is already exact for the view
        break;
      case SpfUpdate::Mode::kIncremental:
        run.incremental = true;
        spf_ = std::move(update.result);
        break;
      case SpfUpdate::Mode::kFull:
        spf_ = std::move(update.result);
        break;
    }
  }
  ran_ = true;
  return run;
}

void RouterProcess::emit_trace_(std::uint64_t trace, obs::Stage stage,
                                std::uint64_t lie) {
  events_.defer([tracer = tracer_, at = events_.now(), trace, stage,
                 node = static_cast<std::uint32_t>(self_), lie] {
    tracer->emit(at, trace, stage, 'i', node, lie);
  });
}

void RouterProcess::run_spf_now_() {
  ++spf_runs_;
  const RouterSpf::Run run = spf_.run(lsdb_);
  spf_origins_read_ += run.origins_read;
  if (run.incremental) ++spf_incremental_runs_;
  RoutingTable fresh = compute_routes(spf_.view(), spf_.result());
  std::vector<net::Prefix> changed = changed_prefixes(table_, fresh);
  table_ = std::move(fresh);
  FIB_LOG(kDebug, "igp") << "router " << self_ << " spf run #" << spf_runs_ << ", "
                         << table_.size() << " routes"
                         << (run.incremental ? " (incremental)" : "");
  // This run consumed every traced lie installed since the previous run
  // (pending is only filled while tracing is on): stamp one kSpf per
  // distinct trace, then the table flip this run hands over, each trace
  // with its first lie (sorted lie order -- pending is a set -- so the
  // stream is independent of install interleaving).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> traced;  // (trace, lie)
  std::set<std::uint64_t> seen;
  for (const std::uint64_t lie : pending_trace_lies_) {
    const std::uint64_t trace = tracer_->trace_for_lie(lie);
    if (trace != 0 && seen.insert(trace).second) traced.emplace_back(trace, lie);
  }
  pending_trace_lies_.clear();
  for (const auto& [trace, lie] : traced) emit_trace_(trace, obs::Stage::kSpf, lie);
  for (const auto& [trace, lie] : traced) emit_trace_(trace, obs::Stage::kTableFlip, lie);
  if (on_table_) on_table_(self_, table_, std::move(changed));
}

}  // namespace fibbing::igp
