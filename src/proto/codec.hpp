#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "proto/wire.hpp"

namespace fibbing::proto {

/// RFC 2328 packet and LSA wire formats: the exact byte layouts a real OSPFv2
/// speaker puts on the network (appendix A), with both checksum layers (the
/// IP-style packet checksum of D.4.1 and the Fletcher LSA checksum of
/// RFC 905 Annex B), the LS-sequence-number comparison rules of section 13.1
/// and the MaxAge / premature-aging semantics of section 14.1 that carry
/// Fibbing's lie retractions.
///
/// The structs here are *wire-level*: router ids and addresses are raw
/// 32-bit values, sequence numbers are the RFC's signed 32-bit space.
/// proto/translate.hpp maps them to and from the simulator's in-memory
/// igp::Lsa model.

inline constexpr std::uint8_t kOspfVersion = 2;
/// RFC 2328 B: MaxAge. An instance at MaxAge is being flushed ("premature
/// aging"); its content no longer contributes routes.
inline constexpr std::uint16_t kMaxAge = 3600;
/// RFC 2328 B: MaxAgeDiff. Two instances with equal sequence number and
/// checksum whose ages differ by more than this are considered different
/// (the younger wins); within it they are the same instance.
inline constexpr std::uint16_t kMaxAgeDiff = 900;
/// RFC 2328 B: InfTransDelay analogue -- every hop an LSA travels adds this
/// to its age (clamped at MaxAge), so age reflects propagation distance.
inline constexpr std::uint16_t kInfTransDelay = 1;
/// RFC 2328 B: InitialSequenceNumber (signed 0x80000001).
inline constexpr std::int32_t kInitialSequence =
    static_cast<std::int32_t>(0x80000001u);
/// Options octet with only the E (external-capable) bit set.
inline constexpr std::uint8_t kOptionsExternal = 0x02;

inline constexpr std::size_t kPacketHeaderBytes = 24;
inline constexpr std::size_t kLsaHeaderBytes = 20;

enum class PacketType : std::uint8_t {
  kHello = 1,
  kDatabaseDescription = 2,
  kLsRequest = 3,
  kLsUpdate = 4,
  kLsAck = 5,
};

enum class WireLsaType : std::uint8_t {
  kRouter = 1,
  kExternal = 5,
};

[[nodiscard]] const char* to_string(PacketType type);

// --------------------------------------------------------------------- LSAs

/// A.4.1 -- the 20-byte header every LSA starts with; also the unit DD
/// summaries and LS Acks carry.
struct LsaHeader {
  std::uint16_t age = 0;
  std::uint8_t options = kOptionsExternal;
  WireLsaType type = WireLsaType::kRouter;
  std::uint32_t link_state_id = 0;
  std::uint32_t advertising_router = 0;
  std::int32_t seq = kInitialSequence;
  std::uint16_t checksum = 0;
  std::uint16_t length = 0;  ///< header + body, bytes

  friend bool operator==(const LsaHeader&, const LsaHeader&) = default;
};

/// Identity of an LSA in the distributed database (RFC 2328 12.1): which
/// LSA, as opposed to which *instance* (seq/checksum/age decide that).
struct LsaIdentity {
  WireLsaType type = WireLsaType::kRouter;
  std::uint32_t link_state_id = 0;
  std::uint32_t advertising_router = 0;

  friend auto operator<=>(const LsaIdentity&, const LsaIdentity&) = default;
};
[[nodiscard]] inline LsaIdentity identity_of(const LsaHeader& h) {
  return LsaIdentity{h.type, h.link_state_id, h.advertising_router};
}

/// A.4.2 link types (we emit point-to-point adjacencies and stub networks).
enum class RouterLinkType : std::uint8_t {
  kPointToPoint = 1,
  kTransit = 2,
  kStub = 3,
  kVirtual = 4,
};

struct RouterLink {
  std::uint32_t link_id = 0;    ///< neighbor router id / stub network
  std::uint32_t link_data = 0;  ///< local interface address / stub netmask
  RouterLinkType type = RouterLinkType::kPointToPoint;
  std::uint8_t tos_count = 0;
  std::uint16_t metric = 1;

  friend bool operator==(const RouterLink&, const RouterLink&) = default;
};

/// A.4.2 Router-LSA body.
struct RouterLsaBody {
  std::uint8_t flags = 0;  ///< V/E/B bits; unused by the simulator
  std::vector<RouterLink> links;

  friend bool operator==(const RouterLsaBody&, const RouterLsaBody&) = default;
};

/// A.4.5 AS-external-LSA body, single TOS-0 route. The route tag carries the
/// controller's lie id (see proto/translate.hpp).
struct ExternalLsaBody {
  std::uint32_t network_mask = 0;
  bool type2_metric = true;  ///< E bit of the metric word
  std::uint32_t metric = 0;  ///< 24 bits on the wire
  std::uint32_t forwarding_address = 0;
  std::uint32_t route_tag = 0;

  friend bool operator==(const ExternalLsaBody&, const ExternalLsaBody&) = default;
};

struct WireLsa {
  LsaHeader header;
  std::variant<RouterLsaBody, ExternalLsaBody> body;

  friend bool operator==(const WireLsa&, const WireLsa&) = default;
};

// ------------------------------------------------------------- packet bodies

/// A.3.2. On the simulator's point-to-point adjacencies the mask is 0 and
/// DR/BDR are unused (always 0), exactly as RFC 2328 prescribes for p2p.
struct HelloBody {
  std::uint32_t network_mask = 0;
  std::uint16_t hello_interval = 10;
  std::uint8_t options = kOptionsExternal;
  std::uint8_t priority = 1;
  std::uint32_t dead_interval = 40;
  std::uint32_t designated_router = 0;
  std::uint32_t backup_designated_router = 0;
  std::vector<std::uint32_t> neighbors;  ///< router ids heard on this link

  friend bool operator==(const HelloBody&, const HelloBody&) = default;
};

inline constexpr std::uint8_t kDdFlagMasterSlave = 0x01;  ///< MS
inline constexpr std::uint8_t kDdFlagMore = 0x02;         ///< M
inline constexpr std::uint8_t kDdFlagInit = 0x04;         ///< I

/// A.3.3 Database Description: a page of LSA header *summaries*.
struct DatabaseDescriptionBody {
  std::uint16_t interface_mtu = 1500;
  std::uint8_t options = kOptionsExternal;
  std::uint8_t flags = 0;  ///< I | M | MS
  std::uint32_t dd_sequence = 0;
  std::vector<LsaHeader> headers;

  friend bool operator==(const DatabaseDescriptionBody&,
                         const DatabaseDescriptionBody&) = default;
};

/// A.3.4 Link State Request.
struct LsRequestEntry {
  std::uint32_t type = 0;  ///< full 32-bit LS type field
  std::uint32_t link_state_id = 0;
  std::uint32_t advertising_router = 0;

  friend bool operator==(const LsRequestEntry&, const LsRequestEntry&) = default;
};
struct LsRequestBody {
  std::vector<LsRequestEntry> entries;

  friend bool operator==(const LsRequestBody&, const LsRequestBody&) = default;
};

/// A.3.5 Link State Update: full LSA instances.
struct LsUpdateBody {
  std::vector<WireLsa> lsas;

  friend bool operator==(const LsUpdateBody&, const LsUpdateBody&) = default;
};

/// A.3.6 Link State Acknowledgment: LSA headers being acked.
struct LsAckBody {
  std::vector<LsaHeader> headers;

  friend bool operator==(const LsAckBody&, const LsAckBody&) = default;
};

/// One OSPF packet. The 24-byte header's version/type/length/checksum fields
/// are derived during encoding; router and area ids are carried here.
struct Packet {
  std::uint32_t router_id = 0;  ///< sender
  std::uint32_t area_id = 0;
  std::variant<HelloBody, DatabaseDescriptionBody, LsRequestBody, LsUpdateBody,
               LsAckBody>
      body;

  friend bool operator==(const Packet&, const Packet&) = default;
};

[[nodiscard]] PacketType type_of(const Packet& packet);

// ------------------------------------------------------------------ encoding

/// Serialize to network-order bytes, filling both length fields and both
/// checksum layers (packet checksum per D.4.1; each LSA in an LS Update
/// carries the Fletcher checksum of its `header.checksum` field, which
/// encode preserves as given -- finalize_lsa computes it at origination).
[[nodiscard]] Buffer encode_packet(const Packet& packet);

/// Parse a received buffer. Verifies version, type codes, every length field
/// against the bytes actually present, the packet checksum, and the Fletcher
/// checksum of every full LSA carried in an LS Update. Never crashes on
/// malformed input; the error reports which contract the buffer broke.
[[nodiscard]] Decoded<Packet> decode_packet(const std::uint8_t* data,
                                            std::size_t size);
[[nodiscard]] inline Decoded<Packet> decode_packet(const Buffer& buffer) {
  return decode_packet(buffer.data(), buffer.size());
}

/// Serialize one LSA (header + body) -- the representation flooded inside
/// LS Updates and the input to the Fletcher checksum.
[[nodiscard]] Buffer encode_lsa(const WireLsa& lsa);

/// Fill in `header.length` and `header.checksum` (Fletcher over the encoded
/// LSA minus the age field, per RFC 2328 12.1.7). Call once at origination;
/// the instance then floods byte-identical everywhere.
[[nodiscard]] WireLsa finalize_lsa(WireLsa lsa);

/// Verify the Fletcher checksum of a received instance.
[[nodiscard]] bool lsa_checksum_ok(const WireLsa& lsa);

/// RFC 905 Annex B Fletcher checksum with the check bytes at
/// `checksum_offset` within `data` (the LSA layout passes the bytes after
/// the age field with offset 14). `size` is at most 65535, an LSA's length.
[[nodiscard]] std::uint16_t fletcher_checksum(const std::uint8_t* data,
                                              std::size_t size,
                                              std::size_t checksum_offset);

/// RFC 2328 D.4.1 packet checksum: the RFC 1071 ones'-complement sum of an
/// encoded packet with the checksum field (bytes 12-13) counted as zero and
/// the authentication field (bytes 16-23) left out; an odd length is padded
/// with a zero byte. `size` is at most 65535, a packet's length.
[[nodiscard]] std::uint16_t packet_checksum(const std::uint8_t* data, std::size_t size);

// --------------------------------------------------- instance ordering rules

/// RFC 2328 13.1: which instance is newer. Returns >0 when `a` is newer than
/// `b`, <0 when older, 0 when they are the same instance. Sequence number
/// (signed) decides first, then checksum, then MaxAge (an instance at MaxAge
/// is considered newer, so flushes win).
[[nodiscard]] int compare_instances(const LsaHeader& a, const LsaHeader& b);

}  // namespace fibbing::proto
