#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "igp/domain.hpp"
#include "igp/lsa.hpp"
#include "proto/codec.hpp"
#include "proto/controller_session.hpp"
#include "proto/neighbor.hpp"
#include "proto/translate.hpp"
#include "topo/generators.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"

namespace fibbing::proto {
namespace {

// ------------------------------------------------------------ wire builders

WireLsa sample_external(std::uint32_t tag, std::int32_t seq = kInitialSequence,
                        bool max_age = false) {
  WireLsa lsa;
  lsa.header.type = WireLsaType::kExternal;
  lsa.header.link_state_id = 0xcb007100u | (tag & 0xff);  // 203.0.113.0/24 + host
  lsa.header.advertising_router = kControllerRouterId;
  lsa.header.seq = seq;
  lsa.header.age = max_age ? kMaxAge : 0;
  lsa.body = ExternalLsaBody{0xffffff00u, true, 7, 0x0a000001u, tag};
  return finalize_lsa(std::move(lsa));
}

WireLsa sample_router(std::uint32_t rid, std::size_t links,
                      std::int32_t seq = kInitialSequence) {
  WireLsa lsa;
  lsa.header.type = WireLsaType::kRouter;
  lsa.header.link_state_id = rid;
  lsa.header.advertising_router = rid;
  lsa.header.seq = seq;
  RouterLsaBody body;
  for (std::size_t i = 0; i < links; ++i) {
    const auto base = static_cast<std::uint32_t>(0x0a000000u + 4 * i);
    body.links.push_back(RouterLink{static_cast<std::uint32_t>(0xc0a80002u + i),
                                    base + 1, RouterLinkType::kPointToPoint, 0,
                                    static_cast<std::uint16_t>(1 + i)});
    body.links.push_back(RouterLink{base, 0xfffffffcu, RouterLinkType::kStub, 0,
                                    static_cast<std::uint16_t>(1 + i)});
  }
  lsa.body = std::move(body);
  return finalize_lsa(std::move(lsa));
}

// --------------------------------------------------------------- byte level

TEST(Codec, PacketHeaderIsByteExactNetworkOrder) {
  HelloBody hello;
  hello.neighbors.push_back(0xc0a80002u);
  const Buffer bytes = encode_packet(Packet{0xc0a80001u, 0, hello});
  // RFC 2328 A.3.1/A.3.2: version, type, length, router id, area id, then
  // the hello fields, all in network order.
  ASSERT_EQ(bytes.size(), 24u + 20u + 4u);
  EXPECT_EQ(bytes[0], 2);  // version
  EXPECT_EQ(bytes[1], 1);  // Hello
  EXPECT_EQ(bytes[2], 0);  // length hi
  EXPECT_EQ(bytes[3], 48); // length lo
  EXPECT_EQ((std::vector<std::uint8_t>{bytes[4], bytes[5], bytes[6], bytes[7]}),
            (std::vector<std::uint8_t>{0xc0, 0xa8, 0x00, 0x01}));
  EXPECT_EQ(bytes[14], 0);  // AuType: null
  EXPECT_EQ(bytes[15], 0);
  // Hello body starts at 24: network mask 0, interval 10, options E, prio 1.
  EXPECT_EQ(bytes[24 + 4], 0);
  EXPECT_EQ(bytes[24 + 5], 10);
  EXPECT_EQ(bytes[24 + 6], kOptionsExternal);
  // Neighbor list at the tail, network order.
  EXPECT_EQ(bytes[44], 0xc0);
  EXPECT_EQ(bytes[47], 0x02);
}

TEST(Codec, ExternalLsaBodyLayout) {
  const WireLsa lsa = sample_external(/*tag=*/9);
  const Buffer bytes = encode_lsa(lsa);
  ASSERT_EQ(bytes.size(), kLsaHeaderBytes + 16);
  EXPECT_EQ(lsa.header.length, bytes.size());
  EXPECT_EQ(bytes[3], 5);  // LS type at header offset 3
  // Body: mask, then the E-bit + 24-bit metric word.
  EXPECT_EQ(bytes[20], 0xff);
  EXPECT_EQ(bytes[23], 0x00);
  EXPECT_EQ(bytes[24], 0x80);  // E bit
  EXPECT_EQ(bytes[27], 7);     // metric low byte
  EXPECT_EQ(bytes[35], 9);     // route tag low byte
}

TEST(Codec, FletcherChecksumValidatesAndCatchesCorruption) {
  const WireLsa lsa = sample_router(0xc0a80001u, 3);
  EXPECT_TRUE(lsa_checksum_ok(lsa));
  // RFC 905 Annex B: with the check bytes in place, both running sums over
  // the checksummed region (everything after the age field) vanish.
  const Buffer bytes = encode_lsa(lsa);
  std::int32_t c0 = 0;
  std::int32_t c1 = 0;
  for (std::size_t i = 2; i < bytes.size(); ++i) {
    c0 = (c0 + bytes[i]) % 255;
    c1 = (c1 + c0) % 255;
  }
  EXPECT_EQ(c0, 0);
  EXPECT_EQ(c1, 0);

  WireLsa corrupted = lsa;
  std::get<RouterLsaBody>(corrupted.body).links[1].metric ^= 1;
  EXPECT_FALSE(lsa_checksum_ok(corrupted));
}

TEST(Codec, InstanceComparisonFollowsRfc13_1) {
  const WireLsa older = sample_external(1, kInitialSequence);
  const WireLsa newer = sample_external(1, kInitialSequence + 1);
  EXPECT_GT(compare_instances(newer.header, older.header), 0);
  EXPECT_LT(compare_instances(older.header, newer.header), 0);
  EXPECT_EQ(compare_instances(older.header, older.header), 0);
  // Same sequence and checksum, one at MaxAge: the flush is newer.
  WireLsa flushing = older;
  flushing.header.age = kMaxAge;
  EXPECT_GT(compare_instances(flushing.header, older.header), 0);
  // Signed sequence space: InitialSequence (negative) loses to 1.
  LsaHeader positive = older.header;
  positive.seq = 1;
  EXPECT_GT(compare_instances(positive, older.header), 0);
}

TEST(Codec, AgeTieBreaksDistinguishInstancesPastMaxAgeDiff) {
  // RFC 13.1 final tie-break: same sequence and checksum, neither at
  // MaxAge -- ages more than MaxAgeDiff (15 min) apart name different
  // instances, and the *younger* copy is the more recent one.
  const WireLsa base = sample_external(1);
  LsaHeader young = base.header;  // age 0
  LsaHeader old = base.header;
  old.age = kMaxAgeDiff + 1;
  EXPECT_GT(compare_instances(young, old), 0);
  EXPECT_LT(compare_instances(old, young), 0);
  // A gap of exactly MaxAgeDiff is still the same instance: transit delay,
  // not a re-origination.
  LsaHeader close = base.header;
  close.age = kMaxAgeDiff;
  EXPECT_EQ(compare_instances(young, close), 0);
  EXPECT_EQ(compare_instances(close, young), 0);
  // MaxAge beats any live age, even one a single tick away -- premature
  // aging must win regardless of the MaxAgeDiff window.
  LsaHeader flushing = base.header;
  flushing.age = kMaxAge;
  LsaHeader nearly = base.header;
  nearly.age = kMaxAge - 1;
  EXPECT_GT(compare_instances(flushing, nearly), 0);
  EXPECT_LT(compare_instances(nearly, flushing), 0);
  // Two flushing copies are the same instance.
  EXPECT_EQ(compare_instances(flushing, flushing), 0);
}

TEST(Codec, MaxAgeCarriesWithdrawalAcrossTranslation) {
  const topo::PaperTopology p = topo::make_paper_topology();
  const AddressMap addrs(p.topo);
  igp::ExternalLsa ext;
  ext.lie_id = 3;
  ext.prefix = p.p1;
  ext.ext_metric = 2;
  ext.forwarding_address = net::Ipv4(10, 0, 0, 1);
  ext.withdrawn = true;
  const WireLsa wire = to_wire(igp::make_external_lsa(ext, 4), addrs);
  EXPECT_EQ(wire.header.age, kMaxAge);
  const Decoded<igp::Lsa> back = from_wire(wire, addrs);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(std::get<igp::ExternalLsa>(back.value().body).withdrawn);
  EXPECT_EQ(back.value().seq, 4u);
}

TEST(Codec, RouterLsaTranslationRoundTrips) {
  const topo::PaperTopology p = topo::make_paper_topology();
  const AddressMap addrs(p.topo);
  const igp::Lsa original = igp::make_router_lsa(p.topo, p.b, /*seq=*/5);
  const WireLsa wire = to_wire(original, addrs);
  EXPECT_TRUE(lsa_checksum_ok(wire));
  const Decoded<igp::Lsa> back = from_wire(wire, addrs);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().id, original.id);
  EXPECT_EQ(back.value().seq, original.seq);
  const auto& orig_body = std::get<igp::RouterLsa>(original.body);
  const auto& round = std::get<igp::RouterLsa>(back.value().body);
  ASSERT_EQ(round.links.size(), orig_body.links.size());
  for (std::size_t i = 0; i < round.links.size(); ++i) {
    EXPECT_EQ(round.links[i].neighbor, orig_body.links[i].neighbor);
    EXPECT_EQ(round.links[i].metric, orig_body.links[i].metric);
    EXPECT_EQ(round.links[i].subnet, orig_body.links[i].subnet);
    EXPECT_EQ(round.links[i].local_addr, orig_body.links[i].local_addr);
  }
  ASSERT_EQ(round.prefixes.size(), orig_body.prefixes.size());
  for (std::size_t i = 0; i < round.prefixes.size(); ++i) {
    EXPECT_EQ(round.prefixes[i].prefix, orig_body.prefixes[i].prefix);
    EXPECT_EQ(round.prefixes[i].metric, orig_body.prefixes[i].metric);
  }
  // And the wire seq mapping anchors at InitialSequenceNumber.
  EXPECT_EQ(to_wire_seq(1), kInitialSequence);
  EXPECT_EQ(from_wire_seq(to_wire_seq(5)), 5u);
}

TEST(Codec, ZeroCostPointToPointLinkIsRejected) {
  // RFC 2328 C.3: interface costs are > 0. A checksum-valid Router-LSA with a
  // zero-cost point-to-point link must not translate (SPF would abort on
  // it); a zero stub (prefix) metric stays legal.
  topo::PaperTopology p = topo::make_paper_topology();
  p.topo.attach_prefix(p.b, net::Prefix(net::Ipv4(198, 51, 100, 0), 24), 0);
  const AddressMap addrs(p.topo);
  WireLsa wire = to_wire(igp::make_router_lsa(p.topo, p.b, 2), addrs);
  const Decoded<igp::Lsa> valid = from_wire(wire, addrs);
  ASSERT_TRUE(valid.ok());
  const auto& prefixes = std::get<igp::RouterLsa>(valid.value().body).prefixes;
  ASSERT_FALSE(prefixes.empty());
  EXPECT_EQ(prefixes.back().metric, 0u);

  auto& links = std::get<RouterLsaBody>(wire.body).links;
  ASSERT_EQ(links[0].type, RouterLinkType::kPointToPoint);
  links[0].metric = 0;
  wire = finalize_lsa(std::move(wire));
  ASSERT_TRUE(lsa_checksum_ok(wire));
  const Decoded<igp::Lsa> back = from_wire(wire, addrs);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().kind, DecodeErrorKind::kBadValue);
}

// ------------------------------------------------------- fuzz-style coverage

Packet random_packet(util::Rng& rng) {
  Packet packet;
  packet.router_id = static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 30));
  const int type = static_cast<int>(rng.uniform_int(1, 5));
  const auto random_header = [&rng] {
    WireLsa lsa = rng.uniform_int(0, 1) == 0
                      ? sample_router(
                            static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 30)),
                            static_cast<std::size_t>(rng.uniform_int(0, 5)),
                            static_cast<std::int32_t>(
                                rng.uniform_int(kInitialSequence, 1 << 20)))
                      : sample_external(
                            static_cast<std::uint32_t>(rng.uniform_int(0, 255)),
                            static_cast<std::int32_t>(
                                rng.uniform_int(kInitialSequence, 1 << 20)),
                            rng.uniform_int(0, 3) == 0);
    return lsa;
  };
  switch (type) {
    case 1: {
      HelloBody hello;
      for (int i = rng.uniform_int(0, 4); i > 0; --i) {
        hello.neighbors.push_back(
            static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 30)));
      }
      packet.body = std::move(hello);
      break;
    }
    case 2: {
      DatabaseDescriptionBody dd;
      dd.flags = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
      dd.dd_sequence = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
      for (int i = rng.uniform_int(0, 5); i > 0; --i) {
        dd.headers.push_back(random_header().header);
      }
      packet.body = std::move(dd);
      break;
    }
    case 3: {
      LsRequestBody lsr;
      for (int i = rng.uniform_int(0, 5); i > 0; --i) {
        lsr.entries.push_back(LsRequestEntry{
            rng.uniform_int(0, 1) == 0 ? 1u : 5u,
            static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30)),
            static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30))});
      }
      packet.body = std::move(lsr);
      break;
    }
    case 4: {
      LsUpdateBody lsu;
      for (int i = rng.uniform_int(1, 4); i > 0; --i) {
        lsu.lsas.push_back(random_header());
      }
      packet.body = std::move(lsu);
      break;
    }
    default: {
      LsAckBody ack;
      for (int i = rng.uniform_int(0, 5); i > 0; --i) {
        ack.headers.push_back(random_header().header);
      }
      packet.body = std::move(ack);
      break;
    }
  }
  return packet;
}

TEST(CodecFuzz, RandomValidPacketsRoundTripBitIdentical) {
  util::Rng rng(20260731);
  for (int trial = 0; trial < 300; ++trial) {
    const Packet packet = random_packet(rng);
    const Buffer bytes = encode_packet(packet);
    const Decoded<Packet> decoded = decode_packet(bytes);
    ASSERT_TRUE(decoded.ok())
        << "trial " << trial << ": " << to_string(decoded.error().kind) << " "
        << decoded.error().detail;
    EXPECT_EQ(decoded.value(), packet) << "trial " << trial;
    EXPECT_EQ(encode_packet(decoded.value()), bytes) << "trial " << trial;
  }
}

TEST(CodecFuzz, EveryTruncationDecodesToTypedErrorNeverCrashes) {
  util::Rng rng(42);
  for (int trial = 0; trial < 25; ++trial) {
    const Buffer bytes = encode_packet(random_packet(rng));
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const Decoded<Packet> decoded = decode_packet(bytes.data(), len);
      ASSERT_FALSE(decoded.ok()) << "trial " << trial << " len " << len;
      // Typed, not just "failed": truncations surface as the length-family
      // kinds, never as a crash or an unrelated success.
      const DecodeErrorKind kind = decoded.error().kind;
      EXPECT_TRUE(kind == DecodeErrorKind::kTruncated ||
                  kind == DecodeErrorKind::kBadLength ||
                  kind == DecodeErrorKind::kBadChecksum)
          << "trial " << trial << " len " << len << ": " << to_string(kind);
    }
  }
}

TEST(CodecFuzz, SingleByteCorruptionOutsideAuthIsAlwaysRejected) {
  util::Rng rng(1337);
  for (int trial = 0; trial < 120; ++trial) {
    Buffer bytes = encode_packet(random_packet(rng));
    std::size_t pos = 0;
    do {
      pos = rng.pick_index(bytes.size());
    } while (pos >= 16 && pos < 24);  // the auth field is outside the checksum
    const std::uint8_t flip =
        static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    bytes[pos] ^= flip;
    const Decoded<Packet> decoded = decode_packet(bytes);
    EXPECT_FALSE(decoded.ok())
        << "trial " << trial << ": flip at " << pos << " went undetected";
  }
}

TEST(CodecFuzz, RandomGarbageNeverCrashes) {
  util::Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    Buffer garbage(static_cast<std::size_t>(rng.uniform_int(0, 200)));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    (void)decode_packet(garbage);  // must return, never crash (ASan-checked)
  }
}

// --------------------------------------------------------- checksum kernels

/// The RFC 1071 packet checksum one 16-bit word at a time: bytes 12-13 (the
/// checksum) and 16-23 (authentication) read as zero, an odd length pads a
/// zero byte.
std::uint16_t reference_packet_checksum(const std::uint8_t* data, std::size_t size) {
  const auto byte_at = [&](std::size_t pos) -> std::uint32_t {
    if (pos >= size || (pos >= 12 && pos < 14) || (pos >= 16 && pos < 24)) return 0;
    return data[pos];
  };
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < size; i += 2) sum += (byte_at(i) << 8) | byte_at(i + 1);
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

/// The RFC 905 Fletcher checksum reducing both sums mod 255 after every
/// byte.
std::uint16_t reference_fletcher(const std::uint8_t* data, std::size_t size,
                                 std::size_t checksum_offset) {
  std::int32_t c0 = 0;
  std::int32_t c1 = 0;
  for (std::size_t i = 0; i < size; ++i) {
    const bool is_check_byte = i == checksum_offset || i == checksum_offset + 1;
    c0 = (c0 + (is_check_byte ? 0 : data[i])) % 255;
    c1 = (c1 + c0) % 255;
  }
  std::int32_t x = static_cast<std::int32_t>(
                       (static_cast<std::int64_t>(size) - checksum_offset - 1) * c0 -
                       c1) %
                   255;
  if (x <= 0) x += 255;
  std::int32_t y = 510 - c0 - x;
  if (y > 255) y -= 255;
  return static_cast<std::uint16_t>((x << 8) | y);
}

TEST(CodecChecksum, KernelsMatchByteWiseReferencesOnRandomBuffers) {
  util::Rng rng(20261019);
  for (int trial = 0; trial < 3000; ++trial) {
    // A third under 24 bytes (shorter than a packet header), the rest up to
    // a large LS Update; odd and even lengths alike.
    const auto size = static_cast<std::size_t>(
        trial % 3 == 0 ? rng.uniform_int(0, 23) : rng.uniform_int(24, 1500));
    Buffer bytes(size);
    const int fill = trial % 10;  // mostly random; some all-0xff, some all-zero
    for (auto& b : bytes) {
      b = fill == 0   ? 0xff
          : fill == 1 ? 0
                      : static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    EXPECT_EQ(packet_checksum(bytes.data(), size),
              reference_packet_checksum(bytes.data(), size))
        << "trial " << trial << " size " << size;
    const std::size_t offset =
        trial % 2 == 0 ? 14 : static_cast<std::size_t>(rng.uniform_int(0, 1600));
    EXPECT_EQ(fletcher_checksum(bytes.data(), size, offset),
              reference_fletcher(bytes.data(), size, offset))
        << "trial " << trial << " size " << size << " offset " << offset;
  }
}

TEST(CodecChecksum, KernelsMatchByteWiseReferencesOnAConvergedLsdb) {
  util::Rng rng(25);
  topo::Topology t = topo::make_waxman(40, rng, 0.4, 0.4, 10);
  const net::Prefix prefix(net::Ipv4(203, 0, 113, 0), 24);
  t.attach_prefix(3, prefix, 0);
  util::EventQueue events;
  igp::IgpDomain domain(t, events);
  domain.start();
  domain.run_to_convergence();
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const topo::Link& link = t.link(t.out_links(static_cast<topo::NodeId>(id)).front());
    igp::ExternalLsa lie;
    lie.lie_id = id;
    lie.prefix = prefix;
    lie.ext_metric = static_cast<topo::Metric>(id);
    lie.forwarding_address = t.link(link.reverse).local_addr;
    domain.inject_external(static_cast<topo::NodeId>(id + 10), lie);
  }
  domain.run_to_convergence();

  const AddressMap addrs(t);
  LsUpdateBody lsu;
  for (const igp::LsaPtr& lsa : domain.router(0).lsdb().all()) {
    const WireLsa wire = to_wire(*lsa, addrs);
    const Buffer bytes = encode_lsa(wire);
    const std::uint16_t want = reference_fletcher(bytes.data() + 2, bytes.size() - 2, 14);
    EXPECT_EQ(wire.header.checksum, want);
    EXPECT_EQ(fletcher_checksum(bytes.data() + 2, bytes.size() - 2, 14), want);
    lsu.lsas.push_back(wire);
  }
  EXPECT_EQ(lsu.lsas.size(), t.node_count() + 3);
  Packet packet;
  packet.router_id = addrs.router_id(0);
  packet.body = std::move(lsu);
  const Buffer encoded = encode_packet(packet);
  const std::uint16_t want = reference_packet_checksum(encoded.data(), encoded.size());
  EXPECT_EQ((encoded[12] << 8) | encoded[13], want);
  EXPECT_EQ(packet_checksum(encoded.data(), encoded.size()), want);
  EXPECT_TRUE(decode_packet(encoded).ok());
}

// --------------------------------------------------------------- session FSM

/// In-memory store implementing the session's database contract.
class FakeDb final : public DatabaseFacade {
 public:
  std::map<LsaIdentity, WireLsa> store;

  void seed(const WireLsa& lsa) { store[identity_of(lsa.header)] = lsa; }

  [[nodiscard]] std::vector<LsaHeader> summarize() const override {
    std::vector<LsaHeader> out;
    for (const auto& [id, lsa] : store) out.push_back(lsa.header);
    return out;
  }
  [[nodiscard]] const WireLsa* lookup(const LsaIdentity& id) const override {
    const auto it = store.find(id);
    return it == store.end() ? nullptr : &it->second;
  }
  DeliverResult deliver(const WireLsa& lsa, std::uint32_t) override {
    const LsaIdentity id = identity_of(lsa.header);
    const auto it = store.find(id);
    if (it == store.end()) {
      store.emplace(id, lsa);
      return DeliverResult::kNewer;
    }
    const int order = compare_instances(lsa.header, it->second.header);
    if (order > 0) {
      it->second = lsa;
      return DeliverResult::kNewer;
    }
    return order == 0 ? DeliverResult::kDuplicate : DeliverResult::kStale;
  }
};

/// Two sessions joined by a lossy-on-demand channel over one event queue.
struct SessionPair {
  util::EventQueue events;
  FakeDb db_a;
  FakeDb db_b;
  std::unique_ptr<NeighborSession> a;  // router id 2 (master)
  std::unique_ptr<NeighborSession> b;  // router id 1 (slave)
  int drop_next_toward_b = 0;
  bool drop_all_toward_b = false;
  bool drop_all_toward_a = false;  ///< simulates b dying silently
  std::vector<BufferPtr> sent;     ///< every buffer either side sent, dropped too

  explicit SessionPair(SessionConfig config = {},
                       std::optional<SessionConfig> config_b = std::nullopt) {
    a = std::make_unique<NeighborSession>(
        2, 1, db_a, events, config, [this](const BufferPtr& buffer) {
          sent.push_back(buffer);
          if (drop_all_toward_b) return;
          if (drop_next_toward_b > 0) {
            --drop_next_toward_b;
            return;
          }
          events.schedule_in(0.001, [this, buffer] {
            const Decoded<Packet> decoded = decode_packet(*buffer);
            ASSERT_TRUE(decoded.ok());
            b->receive(decoded.value());
          });
        });
    b = std::make_unique<NeighborSession>(
        1, 2, db_b, events, config_b.value_or(config),
        [this](const BufferPtr& buffer) {
          sent.push_back(buffer);
          if (drop_all_toward_a) return;
          events.schedule_in(0.001, [this, buffer] {
            const Decoded<Packet> decoded = decode_packet(*buffer);
            ASSERT_TRUE(decoded.ok());
            a->receive(decoded.value());
          });
        });
  }

  void bring_up() {
    a->start();
    b->start();
    events.run();
  }
};

TEST(NeighborFsm, EmptyDatabasesReachFullThroughTheWholeLadder) {
  SessionPair pair;
  EXPECT_EQ(pair.a->state(), NeighborState::kDown);
  pair.bring_up();
  EXPECT_EQ(pair.a->state(), NeighborState::kFull);
  EXPECT_EQ(pair.b->state(), NeighborState::kFull);
  EXPECT_TRUE(pair.a->synchronized());
  // RFC 10.6: the larger router id wins mastership.
  EXPECT_TRUE(pair.a->is_master());
  EXPECT_FALSE(pair.b->is_master());
  // Nothing differed, so nothing was requested or transferred.
  EXPECT_EQ(pair.a->counters().ls_requests_sent, 0u);
  EXPECT_EQ(pair.b->counters().ls_requests_sent, 0u);
  EXPECT_EQ(pair.a->counters().lsas_sent, 0u);
}

TEST(NeighborFsm, DdSyncRequestsExactlyTheDifferences) {
  SessionPair pair;
  // Shared content; a holds one newer instance, one unique instance and a
  // MaxAge tombstone b has a live (older) copy of; b holds one unique.
  const WireLsa shared1 = sample_router(101, 2);
  const WireLsa shared2 = sample_external(50);
  pair.db_a.seed(shared1);
  pair.db_b.seed(shared1);
  pair.db_a.seed(shared2);
  pair.db_b.seed(shared2);
  pair.db_a.seed(sample_router(102, 1, kInitialSequence + 3));  // newer at a
  pair.db_b.seed(sample_router(102, 1, kInitialSequence + 1));
  pair.db_a.seed(sample_router(103, 2));                        // only at a
  pair.db_a.seed(sample_external(51, kInitialSequence + 2, /*max_age=*/true));
  pair.db_b.seed(sample_external(51, kInitialSequence + 1));    // live, older
  pair.db_b.seed(sample_router(104, 1));                        // only at b

  pair.bring_up();
  ASSERT_TRUE(pair.a->synchronized());
  ASSERT_TRUE(pair.b->synchronized());
  // Databases converged (including the tombstone winning over the live copy).
  ASSERT_EQ(pair.db_a.store.size(), pair.db_b.store.size());
  for (const auto& [id, lsa] : pair.db_a.store) {
    const WireLsa* theirs = pair.db_b.lookup(id);
    ASSERT_NE(theirs, nullptr);
    // A transmitted copy ages by InfTransDelay per hop (RFC 13.3, excluded
    // from the Fletcher checksum), so replicas agree on everything but age.
    WireLsa mine = lsa;
    WireLsa other = *theirs;
    mine.header.age = mine.header.age == kMaxAge ? kMaxAge : 0;
    other.header.age = other.header.age == kMaxAge ? kMaxAge : 0;
    EXPECT_EQ(mine, other);
  }
  EXPECT_EQ(pair.db_b.lookup(identity_of(sample_external(51).header))->header.age,
            kMaxAge);
  // The economy claim: summaries described everything, requests and full
  // transfers covered only the three differences each side lacked.
  EXPECT_EQ(pair.b->counters().ls_requests_sent, 3u);  // newer 102, 103, 51-tomb
  EXPECT_EQ(pair.a->counters().ls_requests_sent, 1u);  // 104
  EXPECT_EQ(pair.a->counters().lsas_sent, 3u);
  EXPECT_EQ(pair.b->counters().lsas_sent, 1u);
  EXPECT_GE(pair.a->counters().dd_headers_sent, 5u);  // full summary listed
}

TEST(NeighborFsm, DdSummaryPaginatesUnderSmallPageSize) {
  SessionConfig config;
  config.max_dd_headers = 2;
  config.max_request_entries = 3;
  SessionPair pair(config);
  for (std::uint32_t i = 0; i < 11; ++i) pair.db_a.seed(sample_router(200 + i, 1));
  pair.bring_up();
  ASSERT_TRUE(pair.a->synchronized());
  ASSERT_TRUE(pair.b->synchronized());
  EXPECT_EQ(pair.db_b.store.size(), 11u);
  EXPECT_EQ(pair.b->counters().ls_requests_sent, 11u);
  EXPECT_GE(pair.b->counters().lsrs_sent, 4u);  // ceil(11/3) request batches
  EXPECT_GE(pair.a->counters().dds_sent, 6u);   // ceil(11/2) summary pages
}

TEST(NeighborFsm, DefaultPagesFitTheAdvertisedMtu) {
  // Both sides hold more LSAs than one DD page carries, of 44 to 212 bytes,
  // so the exchange sends full DD pages, full LS Requests and LS Updates
  // that batch several LSAs. Each of those packets, in an IPv4 datagram,
  // must fit the interface MTU its DDs advertise.
  constexpr std::size_t kIpv4HeaderBytes = 20;
  SessionPair pair;
  for (std::uint32_t i = 0; i < 150; ++i) {
    pair.db_a.seed(sample_router(400 + i, 1 + i % 8));
  }
  for (std::uint32_t i = 0; i < 90; ++i) {
    pair.db_b.seed(sample_router(600 + i, 1 + i % 8));
  }
  for (const auto& [id, lsa] : pair.db_a.store) {
    EXPECT_LE(lsa.header.length, kMaxUpdateBytes);
  }
  pair.bring_up();
  ASSERT_TRUE(pair.a->synchronized());
  ASSERT_TRUE(pair.b->synchronized());
  ASSERT_EQ(pair.db_a.store.size(), 240u);
  ASSERT_EQ(pair.db_b.store.size(), 240u);

  const SessionConfig defaults;
  std::size_t mtu = 0;
  std::size_t max_dd_headers = 0;
  std::size_t max_request_entries = 0;
  std::size_t max_update_lsas = 0;
  for (const BufferPtr& buffer : pair.sent) {
    const Decoded<Packet> decoded = decode_packet(*buffer);
    ASSERT_TRUE(decoded.ok());
    const auto& body = decoded.value().body;
    if (const auto* dd = std::get_if<DatabaseDescriptionBody>(&body)) {
      mtu = dd->interface_mtu;
      max_dd_headers = std::max(max_dd_headers, dd->headers.size());
    } else if (const auto* lsr = std::get_if<LsRequestBody>(&body)) {
      max_request_entries = std::max(max_request_entries, lsr->entries.size());
    } else if (const auto* lsu = std::get_if<LsUpdateBody>(&body)) {
      max_update_lsas = std::max(max_update_lsas, lsu->lsas.size());
    } else {
      continue;
    }
    EXPECT_LE(buffer->size() + kIpv4HeaderBytes, 1500u);
  }
  EXPECT_EQ(mtu, 1500u);
  EXPECT_EQ(max_dd_headers, defaults.max_dd_headers);
  EXPECT_EQ(max_request_entries, defaults.max_request_entries);
  EXPECT_GT(max_update_lsas, 1u);
}

TEST(NeighborFsm, FloodedInstanceLeavesTheRequestList) {
  // b requests one instance at a time. While it is Loading, a floods the
  // last one b still wants: that arrival takes it off the request list, so
  // b only ever asks for the other two.
  SessionConfig config;
  config.max_request_entries = 1;
  SessionPair pair(config);
  const WireLsa third = sample_router(303, 1);
  pair.db_a.seed(sample_router(301, 1));
  pair.db_a.seed(sample_router(302, 1));
  pair.db_a.seed(third);
  pair.a->start();
  pair.b->start();
  while (pair.b->state() != NeighborState::kLoading) ASSERT_TRUE(pair.events.step());
  pair.a->flood(third);
  pair.events.run();

  ASSERT_TRUE(pair.a->synchronized());
  ASSERT_TRUE(pair.b->synchronized());
  EXPECT_EQ(pair.db_b.store.size(), 3u);
  EXPECT_EQ(pair.b->counters().ls_requests_sent, 2u);
}

TEST(NeighborFsm, FloodIsAcknowledgedAndRetransmittedOnLoss) {
  SessionPair pair;
  pair.bring_up();
  ASSERT_TRUE(pair.a->synchronized());

  // Clean flood: delivered, installed, acked.
  const WireLsa update = sample_router(77, 1, kInitialSequence + 4);
  pair.db_a.seed(update);
  pair.a->flood(update);
  pair.events.run();
  EXPECT_TRUE(pair.a->synchronized());
  EXPECT_NE(pair.db_b.lookup(identity_of(update.header)), nullptr);
  EXPECT_EQ(pair.a->counters().retransmissions, 0u);

  // Lossy flood: the first LS Update toward b evaporates; the
  // retransmission list re-sends it after RxmtInterval.
  const WireLsa update2 = sample_router(77, 1, kInitialSequence + 5);
  pair.db_a.seed(update2);
  pair.drop_next_toward_b = 1;
  pair.a->flood(update2);
  pair.events.run();
  EXPECT_TRUE(pair.a->synchronized());
  EXPECT_GE(pair.a->counters().retransmissions, 1u);
  EXPECT_EQ(pair.db_b.lookup(identity_of(update2.header))->header.seq,
            kInitialSequence + 5);
}

TEST(NeighborFsm, ShutdownDropsToDownAndForgetsState) {
  SessionPair pair;
  pair.bring_up();
  ASSERT_EQ(pair.a->state(), NeighborState::kFull);
  pair.a->shutdown();
  EXPECT_EQ(pair.a->state(), NeighborState::kDown);
  EXPECT_FALSE(pair.a->synchronized());
}

SessionConfig liveness_config() {
  SessionConfig config;
  config.hello_interval_s = 1.0;
  config.dead_interval_s = 4.0;
  return config;
}

TEST(NeighborFsm, MismatchedHelloTimersNeverFormAnAdjacency) {
  // RFC 10.5: HelloInterval and RouterDeadInterval must match exactly, or
  // the Hello is dropped. A misconfigured pair stays Down instead of
  // forming an adjacency that flaps on every dead-interval boundary.
  SessionConfig slow = liveness_config();
  slow.hello_interval_s = 2.0;
  slow.dead_interval_s = 8.0;
  SessionPair pair(liveness_config(), slow);
  pair.a->start();
  pair.b->start();
  pair.events.run_until(10.0);
  EXPECT_EQ(pair.a->state(), NeighborState::kDown);
  EXPECT_EQ(pair.b->state(), NeighborState::kDown);
  EXPECT_GT(pair.a->counters().hellos_rejected, 0u);
  EXPECT_GT(pair.b->counters().hellos_rejected, 0u);
  EXPECT_EQ(pair.a->counters().dds_sent, 0u);  // the exchange never started
}

TEST(NeighborFsm, DeadIntervalSilenceFiresAdjacencyLost) {
  SessionPair pair(liveness_config());
  std::vector<SessionEvent> seen;
  pair.a->set_on_event([&](SessionEvent event) { seen.push_back(event); });
  pair.a->start();
  pair.b->start();
  pair.events.run_until(2.0);
  ASSERT_EQ(pair.a->state(), NeighborState::kFull);
  ASSERT_EQ(seen, std::vector{SessionEvent::kAdjacencyFull});

  // b dies silently: every packet toward a vanishes. No shutdown() runs --
  // only RouterDeadInterval of Hello silence can tell a.
  pair.drop_all_toward_a = true;
  pair.events.run_until(2.0 + 4.0 + 1.0);
  EXPECT_EQ(pair.a->state(), NeighborState::kDown);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen.back(), SessionEvent::kAdjacencyLost);
  EXPECT_FALSE(pair.a->synchronized());
  EXPECT_TRUE(pair.a->quiescent());  // torn down, nothing left queued
}

TEST(NeighborFsm, OneWayHelloRestartsTheAdjacency) {
  // RFC 10.2 1-WayReceived: a rebooted peer sends Hellos that no longer
  // list us. The adjacency must fall (the peer's database is gone) and
  // re-form from scratch.
  SessionPair pair(liveness_config());
  int lost = 0;
  int full = 0;
  pair.a->set_on_event([&](SessionEvent event) {
    if (event == SessionEvent::kAdjacencyLost) ++lost;
    if (event == SessionEvent::kAdjacencyFull) ++full;
  });
  pair.a->start();
  pair.b->start();
  pair.events.run_until(2.0);
  ASSERT_EQ(pair.a->state(), NeighborState::kFull);
  ASSERT_EQ(full, 1);

  pair.b->shutdown();
  pair.b->start();  // fresh Hellos from b do not list a: 1-way at a
  pair.events.run_until(8.0);
  EXPECT_EQ(lost, 1);
  EXPECT_EQ(full, 2);  // torn down once, re-formed once
  EXPECT_EQ(pair.a->state(), NeighborState::kFull);
  EXPECT_TRUE(pair.a->synchronized());
  EXPECT_TRUE(pair.b->synchronized());
}

// ------------------------------------------------------- controller session

TEST(ControllerSession, InjectAndRetractTravelAsAckedLsUpdates) {
  const topo::PaperTopology p = topo::make_paper_topology();
  const AddressMap addrs(p.topo);
  std::vector<BufferPtr> outbox;
  ControllerSession session(addrs,
                            [&](const BufferPtr& buffer) { outbox.push_back(buffer); });

  igp::ExternalLsa ext;
  ext.lie_id = 4;
  ext.prefix = p.p1;
  ext.ext_metric = 1;
  ext.forwarding_address = net::Ipv4(10, 0, 0, 2);
  ASSERT_TRUE(session.inject(ext).ok());
  ASSERT_EQ(outbox.size(), 1u);
  EXPECT_FALSE(session.drained());

  const Decoded<Packet> decoded = decode_packet(*outbox.back());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().router_id, kControllerRouterId);
  const auto& lsu = std::get<LsUpdateBody>(decoded.value().body);
  ASSERT_EQ(lsu.lsas.size(), 1u);
  EXPECT_EQ(lsu.lsas[0].header.seq, kInitialSequence);

  // Ack it the way the session router would: the session drains.
  LsAckBody ack;
  ack.headers.push_back(lsu.lsas[0].header);
  session.receive(std::make_shared<const Buffer>(
      encode_packet(Packet{addrs.router_id(p.r3), 0, ack})));
  EXPECT_TRUE(session.drained());

  // Retraction reuses the announcement's identity at MaxAge, next sequence.
  ASSERT_TRUE(session.retract(4).ok());
  const Decoded<Packet> retraction = decode_packet(*outbox.back());
  ASSERT_TRUE(retraction.ok());
  const auto& tomb = std::get<LsUpdateBody>(retraction.value().body).lsas[0];
  EXPECT_EQ(tomb.header.age, kMaxAge);
  EXPECT_EQ(identity_of(tomb.header), identity_of(lsu.lsas[0].header));
  EXPECT_EQ(tomb.header.seq, kInitialSequence + 1);
}

TEST(ControllerSession, RetractRefusesUnknownAndDoubleRetraction) {
  const topo::PaperTopology p = topo::make_paper_topology();
  const AddressMap addrs(p.topo);
  std::vector<BufferPtr> outbox;
  ControllerSession session(addrs,
                            [&](const BufferPtr& buffer) { outbox.push_back(buffer); });

  // A lie that was never announced cannot be retracted.
  const util::Status unknown = session.retract(9);
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().find("never announced"), std::string::npos);
  EXPECT_TRUE(outbox.empty());  // no flush for a phantom lie hit the wire

  igp::ExternalLsa ext;
  ext.lie_id = 9;
  ext.prefix = p.p1;
  ext.ext_metric = 1;
  ext.forwarding_address = net::Ipv4(10, 0, 0, 2);
  ASSERT_TRUE(session.inject(ext).ok());
  ASSERT_TRUE(session.retract(9).ok());
  const std::size_t wire_count = outbox.size();

  // Retracting twice would burn a sequence number on a tombstone nobody
  // holds live -- refused, and nothing further is sent.
  const util::Status twice = session.retract(9);
  EXPECT_FALSE(twice.ok());
  EXPECT_NE(twice.error().find("already retracted"), std::string::npos);
  EXPECT_EQ(outbox.size(), wire_count);
}

TEST(ControllerSession, RefusesLieAliasingALiveOne) {
  const topo::PaperTopology p = topo::make_paper_topology();
  const AddressMap addrs(p.topo);
  std::vector<BufferPtr> outbox;
  ControllerSession session(addrs,
                            [&](const BufferPtr& buffer) { outbox.push_back(buffer); });

  // A /30 leaves 2 host bits: at most 4 coexisting lies, and ids congruent
  // modulo 4 share a wire identity.
  const net::Prefix narrow(net::Ipv4(203, 0, 113, 0), 30);
  EXPECT_EQ(max_coexisting_lies(narrow), 4u);
  igp::ExternalLsa first;
  first.lie_id = 1;
  first.prefix = narrow;
  first.ext_metric = 1;
  first.forwarding_address = net::Ipv4(10, 0, 0, 2);
  ASSERT_TRUE(session.inject(first).ok());

  igp::ExternalLsa alias = first;
  alias.lie_id = 5;  // 5 == 1 (mod 4): same appendix-E host bits
  EXPECT_EQ(external_ls_id(narrow, 1), external_ls_id(narrow, 5));
  const util::Status refused = session.inject(alias);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.error().find("aliases live lie"), std::string::npos);
  EXPECT_EQ(session.counters().alias_rejections, 1u);
  EXPECT_EQ(outbox.size(), 1u);  // nothing aliasing ever hit the wire

  // A non-colliding id for the same prefix is fine.
  igp::ExternalLsa ok = first;
  ok.lie_id = 2;
  EXPECT_TRUE(session.inject(ok).ok());
}

TEST(ControllerSession, LieTakingOverATombstoneContinuesItsSequenceSpace) {
  const topo::PaperTopology p = topo::make_paper_topology();
  const AddressMap addrs(p.topo);
  std::vector<BufferPtr> outbox;
  ControllerSession session(addrs,
                            [&](const BufferPtr& buffer) { outbox.push_back(buffer); });

  const net::Prefix narrow(net::Ipv4(203, 0, 113, 0), 30);
  igp::ExternalLsa first;
  first.lie_id = 1;
  first.prefix = narrow;
  first.ext_metric = 1;
  first.forwarding_address = net::Ipv4(10, 0, 0, 2);
  ASSERT_TRUE(session.inject(first).ok());  // wire seq = Initial
  ASSERT_TRUE(session.retract(1).ok());     // tombstone, wire seq = Initial+1

  // Lie 5 shares lie 1's wire identity. With only the tombstone standing it
  // is accepted -- but a fresh per-lie sequence (Initial) would lose to the
  // tombstone (Initial+1) in every LSDB. The session continues the
  // tombstone's sequence space instead, so the announcement supersedes it.
  igp::ExternalLsa successor = first;
  successor.lie_id = 5;
  ASSERT_TRUE(session.inject(successor).ok());
  ASSERT_EQ(outbox.size(), 3u);
  const Decoded<Packet> decoded = decode_packet(*outbox.back());
  ASSERT_TRUE(decoded.ok());
  const auto& wire = std::get<LsUpdateBody>(decoded.value().body).lsas[0];
  EXPECT_EQ(wire.header.seq, kInitialSequence + 2);
  EXPECT_EQ(std::get<ExternalLsaBody>(wire.body).route_tag, 5u);
  EXPECT_EQ(session.counters().alias_rejections, 0u);
}

TEST(Translate, ExternalLsIdFoldsLieIdIntoHostBits) {
  const net::Prefix p24(net::Ipv4(203, 0, 113, 0), 24);
  EXPECT_EQ(external_ls_id(p24, 7), net::Ipv4(203, 0, 113, 7).bits());
  EXPECT_EQ(external_ls_id(p24, 256 + 7), net::Ipv4(203, 0, 113, 7).bits());
  EXPECT_EQ(max_coexisting_lies(p24), 256u);
  const net::Prefix p32(net::Ipv4(10, 1, 2, 3), 32);
  EXPECT_EQ(external_ls_id(p32, 9), net::Ipv4(10, 1, 2, 3).bits());
  EXPECT_EQ(max_coexisting_lies(p32), 1u);
}

}  // namespace
}  // namespace fibbing::proto
