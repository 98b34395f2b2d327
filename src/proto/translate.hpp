#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "igp/lsa.hpp"
#include "net/prefix.hpp"
#include "proto/codec.hpp"
#include "topo/topology.hpp"

namespace fibbing::proto {

/// Router id the controller's IGP session advertises (192.168.255.254 --
/// outside the 192.168.0.0/24 loopback block Topology allocates to nodes).
inline constexpr std::uint32_t kControllerRouterId = 0xc0a8fffeu;

/// Bidirectional mapping between the simulator's dense NodeIds and the
/// 32-bit OSPF router ids that appear on the wire (Topology assigns each
/// node a loopback router id at construction). Shared by every router of a
/// domain; decoding a Router-LSA needs it to resolve neighbor references.
class AddressMap {
 public:
  explicit AddressMap(const topo::Topology& topo);

  [[nodiscard]] std::uint32_t router_id(topo::NodeId node) const;
  [[nodiscard]] std::optional<topo::NodeId> node_of(std::uint32_t router_id) const;
  [[nodiscard]] std::size_t node_count() const { return id_of_.size(); }

 private:
  std::vector<std::uint32_t> id_of_;
  std::unordered_map<std::uint32_t, topo::NodeId> node_of_;
};

/// igp::SeqNum (1-based, unbounded) <-> the RFC's signed 32-bit LS sequence
/// space starting at InitialSequenceNumber. The simulator never wraps (that
/// would take 2^31 re-originations of one LSA), so the mapping is exact.
[[nodiscard]] std::int32_t to_wire_seq(igp::SeqNum seq);
[[nodiscard]] igp::SeqNum from_wire_seq(std::int32_t seq);

/// Encode an in-memory LSA as its RFC 2328 wire form, finalized (length and
/// Fletcher checksum filled). Mapping:
///  - Router-LSA: each adjacency becomes a point-to-point link (link id =
///    neighbor router id, link data = local interface address) immediately
///    followed by the stub link for its /30 transfer network (RFC 12.4.1.1);
///    attached prefixes become standalone stub links.
///  - External-LSA: link state id = prefix network with the lie id in the
///    host bits (appendix E disambiguation of concurrent lies for one
///    prefix), advertising router = the controller, type-2 metric, and the
///    route tag carries the lie id. `withdrawn` maps to age = MaxAge
///    (premature aging, RFC 14.1): the flush that retracts a lie.
/// Asserts on values the wire cannot carry (metric over 24 bits, lie id
/// over 32) -- those are internal-invariant violations, not input errors.
[[nodiscard]] WireLsa to_wire(const igp::Lsa& lsa, const AddressMap& addrs);

/// Decode a verified wire LSA back into the in-memory model. Fails typed on
/// references the map cannot resolve or masks that are not proper prefixes.
[[nodiscard]] Decoded<igp::Lsa> from_wire(const WireLsa& lsa,
                                          const AddressMap& addrs);

/// The link state id an External-LSA for (prefix, lie_id) carries on the
/// wire: the prefix network with the lie id in the host bits (appendix E).
/// Two lies whose ids collide modulo 2^(32-len) share a wire identity --
/// coexisting they would silently alias (one supersedes the other in every
/// LSDB). Exposed so the lie compiler and the controller session can check
/// for collisions before anything is flooded.
[[nodiscard]] std::uint32_t external_ls_id(const net::Prefix& prefix,
                                           std::uint64_t lie_id);

/// How many lies for `prefix` can coexist before wire identities must
/// collide: 2^(32 - prefix length).
[[nodiscard]] std::uint64_t max_coexisting_lies(const net::Prefix& prefix);

}  // namespace fibbing::proto
