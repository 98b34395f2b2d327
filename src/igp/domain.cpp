#include "igp/domain.hpp"

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace fibbing::igp {

IgpDomain::IgpDomain(const topo::Topology& topo, util::EventQueue& events,
                     IgpTiming timing, std::shared_ptr<topo::LinkStateMask> link_state,
                     std::size_t shards)
    : topo_(topo),
      events_(events),
      addrs_(topo),
      pool_(shards, topo.node_count()),
      router_seq_(topo.node_count(), 1),
      link_state_(link_state != nullptr
                      ? std::move(link_state)
                      : std::make_shared<topo::LinkStateMask>(topo)),
      alive_(topo.node_count(), 1),
      detected_down_(topo.node_count()),
      loss_rate_(topo.link_count(), 0.0),
      loss_seq_(topo.link_count(), 0),
      extra_delay_(topo.link_count(), 0.0) {
  link_state_->subscribe([this](topo::LinkId id, bool down) {
    if (down) {
      on_link_failed_(id);
    } else {
      on_link_restored_(id);
    }
  });
  routers_.reserve(topo.node_count());
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    routers_.push_back(std::make_unique<RouterProcess>(
        n, topo.node_count(), addrs_, pool_.actor_scheduler(n), timing));
  }
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    RouterProcess& router = *routers_[n];
    router.set_send(
        [this](topo::NodeId from, topo::NodeId to, const proto::BufferPtr& buffer) {
          deliver_packet_(from, to, buffer);
        });
    router.set_on_adjacency(
        [this](topo::NodeId self, topo::NodeId peer, bool up) {
          on_adjacency_(self, peer, up);
        });
    router.set_on_table(
        [this](topo::NodeId self, const RoutingTable&, std::vector<net::Prefix> changed) {
          // User callbacks must not run on shard workers: deferred to the
          // round barrier, where the table is still the one this SPF
          // installed (a router runs at most one SPF per instant).
          pool_.defer(self, [this, self, changed = std::move(changed)] {
            if (on_table_change_) on_table_change_(self, routers_[self]->table(), changed);
          });
        });
    for (const topo::LinkId lid : topo.out_links(n)) {
      if (!link_state_->is_down(lid)) router.add_neighbor(topo.link(lid).to);
    }
  }
}

void IgpDomain::start() {
  sync_clock_();
  for (topo::NodeId n = 0; n < topo_.node_count(); ++n) {
    routers_[n]->originate(
        make_router_lsa(topo_, n, router_seq_[n], advertised_bits_(n)));
    routers_[n]->start();
  }
  arm_pump_();
}

void IgpDomain::fail_link(topo::LinkId id) {
  FIB_ASSERT(id < topo_.link_count(), "fail_link: link out of range");
  link_state_->fail(id);  // reactions run via the mask subscriptions
}

void IgpDomain::restore_link(topo::LinkId id) {
  FIB_ASSERT(id < topo_.link_count(), "restore_link: link out of range");
  link_state_->restore(id);
}

void IgpDomain::on_link_failed_(topo::LinkId id) {
  const topo::Link& link = topo_.link(id);
  FIB_LOG(kInfo, "igp") << "link " << topo_.link_name(id) << " down";
  sync_clock_();
  // Both endpoints tear down the neighbor session (no further packets
  // toward the dead peer) and re-originate without the interface.
  routers_[link.from]->remove_neighbor(link.to);
  routers_[link.to]->remove_neighbor(link.from);
  for (const topo::NodeId endpoint : {link.from, link.to}) {
    routers_[endpoint]->originate(make_router_lsa(
        topo_, endpoint, ++router_seq_[endpoint], advertised_bits_(endpoint)));
  }
  arm_pump_();
}

void IgpDomain::on_link_restored_(topo::LinkId id) {
  const topo::Link& link = topo_.link(id);
  FIB_LOG(kInfo, "igp") << "link " << topo_.link_name(id) << " up";
  sync_clock_();
  // Fresh sessions run the whole RFC 2328 bring-up over the message
  // channel: Hello to 2-Way, DD negotiation and summary exchange, then LS
  // Requests for exactly the instances the other side holds newer (stale
  // partitions heal here, tombstones included). The re-originations below
  // install *before* any DD snapshot is taken, so they ride the exchange.
  routers_[link.from]->add_neighbor(link.to);
  routers_[link.to]->add_neighbor(link.from);
  // Both endpoints advertise the interface again (unless their protocol
  // overlay still holds it dead -- then the kAdjacencyFull heal, not this
  // administrative restore, brings the advertisement back).
  for (const topo::NodeId endpoint : {link.from, link.to}) {
    routers_[endpoint]->originate(make_router_lsa(
        topo_, endpoint, ++router_seq_[endpoint], advertised_bits_(endpoint)));
  }
  arm_pump_();
}

std::vector<bool> IgpDomain::advertised_bits_(topo::NodeId self) const {
  std::vector<bool> bits = link_state_->bits();
  for (const topo::LinkId lid : detected_down_[self]) bits[lid] = true;
  return bits;
}

void IgpDomain::on_adjacency_(topo::NodeId self, topo::NodeId peer, bool up) {
  // A crashed router's dead timers still expire, but it neither
  // re-originates nor reports: its neighbors discover the death by Hello
  // silence.
  if (alive_[self] == 0) return;
  const topo::LinkId link = topo_.link_between(self, peer);
  if (link == topo::kInvalidLink) return;
  auto& detected = detected_down_[self];
  if (up) {
    // Only a *heal* of a protocol-detected failure is notable; the ordinary
    // first bring-up of every adjacency changes nothing here.
    if (detected.erase(link) == 0) return;
  } else {
    if (!detected.insert(link).second) return;
  }
  FIB_LOG(kInfo, "igp") << "router " << self << ": protocol "
                        << (up ? "recovered" : "lost") << " adjacency "
                        << topo_.link_name(link);
  routers_[self]->originate(make_router_lsa(
      topo_, self, ++router_seq_[self], advertised_bits_(self)));
  // The listener may fail mask links, scheduling more work: driving thread.
  pool_.defer(self, [this, link, up] {
    if (on_liveness_change_) on_liveness_change_(link, !up);
  });
}

void IgpDomain::crash_router(topo::NodeId n) {
  FIB_ASSERT(n < routers_.size(), "crash_router: id out of range");
  if (alive_[n] == 0) return;
  FIB_LOG(kInfo, "igp") << "router " << n << " crashed (fail-stop)";
  alive_[n] = 0;
}

bool IgpDomain::is_alive(topo::NodeId n) const {
  FIB_ASSERT(n < routers_.size(), "is_alive: id out of range");
  return alive_[n] != 0;
}

void IgpDomain::set_link_loss(topo::LinkId id, double rate) {
  FIB_ASSERT(id < topo_.link_count(), "set_link_loss: link out of range");
  FIB_ASSERT(rate >= 0.0 && rate <= 1.0, "set_link_loss: rate out of [0,1]");
  loss_rate_[id] = rate;
}

void IgpDomain::set_link_delay(topo::LinkId id, double extra_s) {
  FIB_ASSERT(id < topo_.link_count(), "set_link_delay: link out of range");
  FIB_ASSERT(extra_s >= 0.0, "set_link_delay: negative delay");
  extra_delay_[id] = extra_s;
}

bool IgpDomain::lose_packet_(topo::LinkId id) {
  const double rate = loss_rate_[id];
  if (rate <= 0.0) return false;
  // splitmix64 over (link, per-link send counter): the counter is touched
  // only by the sending router's shard, so the drop pattern is identical
  // across shard counts.
  std::uint64_t x = (static_cast<std::uint64_t>(id) << 32) ^ ++loss_seq_[id];
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  const double uniform = static_cast<double>(x >> 11) * 0x1.0p-53;
  return uniform < rate;
}

bool IgpDomain::link_is_down(topo::LinkId id) const {
  FIB_ASSERT(id < topo_.link_count(), "link_is_down: link out of range");
  return link_state_->is_down(id);
}

proto::ControllerSession& IgpDomain::controller_session(topo::NodeId at) {
  FIB_ASSERT(at < routers_.size(), "controller_session: unknown session router");
  auto it = controller_sessions_.find(at);
  if (it == controller_sessions_.end()) {
    auto session = std::make_unique<proto::ControllerSession>(
        addrs_, [this, at](const proto::BufferPtr& buffer) {
          // Injections originate on the driving thread (the controller);
          // they enter the target router's shard as driver-origin events.
          sync_clock_();
          in_flight_.fetch_add(1, std::memory_order_relaxed);
          pool_.schedule(util::ShardPool::kDriverActor, at,
                         pool_.now() + kFloodDelayS, [this, at, buffer] {
                           in_flight_.fetch_sub(1, std::memory_order_relaxed);
                           if (alive_[at] == 0) return;  // crashed: lost
                           routers_[at]->receive_controller_packet(buffer);
                         });
          arm_pump_();
        });
    it = controller_sessions_.emplace(at, std::move(session)).first;
    // Only the session router talks back to the session: acks, and echoes
    // of installed controller-originated externals (RFC 13.4 resurrection
    // handling).
    routers_[at]->set_controller_send([this, at](const proto::BufferPtr& buffer) {
      // Acks ride back over the controller adjacency with the same channel
      // delay as any packet; convergence waits for them. The packet arrives
      // as an event on this router's shard, but the session is driving-thread
      // state: the arrival is deferred to the round barrier, where a reply (a
      // re-issued tombstone) may enter the domain.
      if (alive_[at] == 0) return;  // a crashed router sends nothing
      in_flight_.fetch_add(1, std::memory_order_relaxed);
      pool_.schedule(at, at, pool_.now() + kFloodDelayS, [this, at, buffer] {
        in_flight_.fetch_sub(1, std::memory_order_relaxed);
        pool_.defer(at, [this, at, buffer] {
          controller_sessions_.at(at)->receive(buffer);
        });
      });
    });
  }
  return *it->second;
}

void IgpDomain::inject_external(topo::NodeId at, const ExternalLsa& ext) {
  FIB_LOG(kDebug, "igp") << "inject lie " << ext.lie_id << " at router " << at;
  const util::Status injected = controller_session(at).inject(ext);
  FIB_ASSERT(injected.ok(), injected.error().c_str());
}

util::Status IgpDomain::withdraw_external(topo::NodeId at, std::uint64_t lie_id) {
  FIB_ASSERT(at < routers_.size(), "withdraw_external: unknown session router");
  return controller_session(at).retract(lie_id);
}

bool IgpDomain::converged() const {
  if (in_flight_.load(std::memory_order_relaxed) > 0) return false;
  for (topo::NodeId n = 0; n < routers_.size(); ++n) {
    // A crashed router's state is frozen mid-whatever; it cannot block (or
    // ever again advance) convergence of the survivors.
    if (alive_[n] == 0) continue;
    if (routers_[n]->spf_pending() || !routers_[n]->quiescent()) return false;
  }
  for (const auto& [at, session] : controller_sessions_) {
    if (alive_[at] == 0) continue;  // its acks died with it
    if (!session->drained()) return false;
  }
  return true;
}

void IgpDomain::run_to_convergence() {
  // Each pump firing runs one instant's worth of events (a round across all
  // shards); a finite domain converges in finitely many rounds unless
  // flooding livelocks (which the sequence-number freshness check
  // prevents). The bound is generous for 1000-node graphs.
  const std::uint64_t kMaxSteps = 50'000'000;
  std::uint64_t steps = 0;
  while (!converged()) {
    const bool fired = events_.step();
    FIB_ASSERT(fired, "run_to_convergence: queue drained while unconverged");
    FIB_ASSERT(++steps < kMaxSteps, "run_to_convergence: livelock");
  }
}

const RouterProcess& IgpDomain::router(topo::NodeId id) const {
  FIB_ASSERT(id < routers_.size(), "router: id out of range");
  return *routers_[id];
}

const RoutingTable& IgpDomain::table(topo::NodeId id) const {
  return router(id).table();
}

std::uint64_t IgpDomain::total_spf_runs() const {
  std::uint64_t sum = 0;
  for (const auto& router : routers_) sum += router->spf_runs();
  return sum;
}

std::uint64_t IgpDomain::total_spf_incremental_runs() const {
  std::uint64_t sum = 0;
  for (const auto& router : routers_) sum += router->spf_incremental_runs();
  return sum;
}

std::uint64_t IgpDomain::total_spf_origins_read() const {
  std::uint64_t sum = 0;
  for (const auto& router : routers_) sum += router->spf_origins_read();
  return sum;
}

proto::SessionCounters IgpDomain::total_proto_counters() const {
  proto::SessionCounters total;
  for (const auto& router : routers_) total += router->counters();
  return total;
}

void IgpDomain::deliver_packet_(topo::NodeId from, topo::NodeId to,
                                const proto::BufferPtr& buffer) {
  FIB_ASSERT(to < routers_.size(), "deliver: unknown destination");
  // Packets cannot cross a failed adjacency; a connected remainder still
  // floods everywhere via the surviving links. Checked again at delivery
  // time: a packet in flight when the link dies is lost with it. The queued
  // hop shares the buffer -- no per-hop copy of the bytes. Cross-shard hops
  // ride the destination shard's inbox channel and keep their deterministic
  // (time, origin, sequence) place.
  if (alive_[from] == 0 || alive_[to] == 0) return;  // fail-stop endpoints
  const topo::LinkId via = topo_.link_between(from, to);
  double delay = kFloodDelayS;
  if (via != topo::kInvalidLink) {
    if (link_state_->is_down(via)) return;
    if (lose_packet_(via)) return;  // deterministic per-direction loss
    delay += extra_delay_[via];
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  pool_.schedule(from, to, pool_.now() + delay, [this, from, to, via, buffer] {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    if (via != topo::kInvalidLink && link_state_->is_down(via)) return;
    if (alive_[to] == 0) return;  // crashed while the packet was in flight
    routers_[to]->receive_packet(from, buffer);
  });
}

void IgpDomain::sync_clock_() { pool_.advance_to(events_.now()); }

void IgpDomain::arm_pump_() {
  if (!pool_.has_pending()) {
    if (pump_.valid()) {
      events_.cancel(pump_);
      pump_ = {};
    }
    return;
  }
  const util::SimTime next = pool_.next_time();
  if (pump_.valid()) {
    if (pump_at_ == next) return;
    events_.cancel(pump_);
  }
  pump_at_ = next;
  pump_ = events_.schedule_at(next, [this] { run_pump_(); });
}

void IgpDomain::run_pump_() {
  pump_ = {};
  sync_clock_();  // the pump fires at pool_.next_time() == events_.now()
  pool_.run_round();  // runs the routers' deferred callbacks before returning
  arm_pump_();
}

void IgpDomain::set_tracer(obs::TraceRecorder* tracer) {
  for (const auto& router : routers_) router->set_tracer(tracer);
}

}  // namespace fibbing::igp
