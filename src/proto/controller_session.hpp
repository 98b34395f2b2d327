#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>

#include "igp/lsa.hpp"
#include "proto/codec.hpp"
#include "proto/neighbor.hpp"
#include "proto/translate.hpp"
#include "util/result.hpp"

namespace fibbing::proto {

/// The Fibbing controller's southbound adjacency: the paper's controller
/// speaks just enough OSPF to a session router to inject and retract lies.
/// Lies leave as wire-format AS-external LS Updates; retraction is premature
/// aging (the same instance re-flooded at MaxAge). The session tracks LS
/// acknowledgments from the session router, so the domain can tell when an
/// injection has demonstrably reached the routing plane.
class ControllerSession {
 public:
  using SendFn = std::function<void(const BufferPtr&)>;

  struct Counters {
    std::uint64_t packets_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t lsus_sent = 0;
    std::uint64_t lsas_sent = 0;
    std::uint64_t acks_received = 0;
    /// Injections refused because their wire identity (appendix-E host
    /// bits) collided with a different live lie's.
    std::uint64_t alias_rejections = 0;
    /// Tombstones re-issued because the session router echoed a live
    /// instance of a lie we had already retracted (a healed partition
    /// resurrecting a stale announcement whose tombstone was flushed).
    std::uint64_t reflushes = 0;

    friend bool operator==(const Counters&, const Counters&) = default;
  };

  ControllerSession(const AddressMap& addrs, SendFn send);

  /// Announce (or update) a lie: per-lie sequence numbers make re-injection
  /// supersede the standing instance, exactly as in IgpDomain's previous
  /// in-memory path. Fails (nothing hits the wire) when the lie's wire
  /// identity -- prefix network | (lie id & host bits), appendix E -- is
  /// already owned by a *different* live lie: coexisting they would silently
  /// supersede each other in every LSDB. A lie whose identity matches only a
  /// withdrawn lie's tombstone is accepted; its sequence space continues
  /// from the tombstone's so the announcement demonstrably supersedes it.
  [[nodiscard]] util::Status inject(const igp::ExternalLsa& ext);

  /// Retract a previously injected lie by flooding its MaxAge tombstone
  /// (RFC 2328 14.1 premature aging). Fails -- nothing hits the wire --
  /// when the lie id was never announced, or is already retracted.
  [[nodiscard]] util::Status retract(std::uint64_t lie_id);

  /// An encoded packet from the session router: LS Acks, or an LS Update
  /// echoing a controller-originated external the router installed from a
  /// real neighbor (the resurrection signal -- see inject/retract).
  void receive(const BufferPtr& buffer);

  /// Every update acknowledged by the session router.
  [[nodiscard]] bool drained() const { return unacked_.empty(); }
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  void send_update_(const igp::ExternalLsa& ext, igp::SeqNum seq);

  const AddressMap& addrs_;
  SendFn send_;
  std::unordered_map<std::uint64_t, igp::SeqNum> lie_seq_;
  /// Last announced content per lie id; the tombstone reuses its prefix so
  /// the retraction carries the same wire identity as the announcement
  /// (`withdrawn` records which of the two is standing).
  std::unordered_map<std::uint64_t, igp::ExternalLsa> last_;
  /// Which lie id currently owns each external link state id on the wire --
  /// the aliasing guard. Ownership survives retraction (the tombstone keeps
  /// the identity) and transfers when a colliding lie supersedes it.
  std::unordered_map<std::uint32_t, std::uint64_t> wire_id_owner_;
  std::map<LsaIdentity, LsaHeader> unacked_;
  Counters counters_;  // obs:registered(southbound)
};

}  // namespace fibbing::proto
