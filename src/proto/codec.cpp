#include "proto/codec.hpp"

#include <algorithm>
#include <string>

#include "util/assert.hpp"

namespace fibbing::proto {

namespace {

DecodeError err(DecodeErrorKind kind, std::string detail) {
  return DecodeError{kind, std::move(detail)};
}

// ---------------------------------------------------------- checksum helpers

/// RFC 1071 sum of data[begin, end) as 16-bit big-endian words, `begin`
/// even; an odd `end` pads the last byte with a zero. Read one 32-bit word
/// at a time: a 32-bit word is its two 16-bit halves, the high one times
/// 2^16, and 2^16 == 1 in the ones'-complement sum, so the folded results
/// agree.
std::uint64_t ones_sum(const std::uint8_t* data, std::size_t begin, std::size_t end) {
  std::uint64_t sum = 0;
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    sum += (std::uint32_t{data[i]} << 24) | (std::uint32_t{data[i + 1]} << 16) |
           (std::uint32_t{data[i + 2]} << 8) | data[i + 3];
  }
  if (i + 2 <= end) {
    sum += (std::uint32_t{data[i]} << 8) | data[i + 1];
    i += 2;
  }
  if (i < end) sum += std::uint32_t{data[i]} << 8;
  return sum;
}

// ------------------------------------------------------------- LSA encoding

void write_lsa_header(Writer& w, const LsaHeader& h) {
  w.u16(h.age);
  w.u8(h.options);
  w.u8(static_cast<std::uint8_t>(h.type));
  w.u32(h.link_state_id);
  w.u32(h.advertising_router);
  w.u32(static_cast<std::uint32_t>(h.seq));
  w.u16(h.checksum);
  w.u16(h.length);
}

void write_lsa_body(Writer& w, const WireLsa& lsa) {
  if (const auto* router = std::get_if<RouterLsaBody>(&lsa.body)) {
    w.u8(router->flags);
    w.u8(0);
    FIB_ASSERT(router->links.size() <= 0xffff, "router LSA: too many links");
    w.u16(static_cast<std::uint16_t>(router->links.size()));
    for (const RouterLink& link : router->links) {
      w.u32(link.link_id);
      w.u32(link.link_data);
      w.u8(static_cast<std::uint8_t>(link.type));
      w.u8(link.tos_count);
      w.u16(link.metric);
    }
  } else {
    const auto& ext = std::get<ExternalLsaBody>(lsa.body);
    FIB_ASSERT(ext.metric <= 0xffffff, "external LSA: metric exceeds 24 bits");
    w.u32(ext.network_mask);
    w.u32((ext.type2_metric ? 0x80000000u : 0u) | ext.metric);
    w.u32(ext.forwarding_address);
    w.u32(ext.route_tag);
  }
}

Decoded<LsaHeader> read_lsa_header(Reader& r) {
  LsaHeader h;
  std::uint8_t type = 0;
  std::uint32_t seq = 0;
  if (!r.u16(h.age) || !r.u8(h.options) || !r.u8(type) ||
      !r.u32(h.link_state_id) || !r.u32(h.advertising_router) || !r.u32(seq) ||
      !r.u16(h.checksum) || !r.u16(h.length)) {
    return err(DecodeErrorKind::kTruncated, "LSA header");
  }
  if (type != 1 && type != 5) {
    return err(DecodeErrorKind::kBadType, "LSA type " + std::to_string(type));
  }
  h.type = static_cast<WireLsaType>(type);
  h.seq = static_cast<std::int32_t>(seq);
  return h;
}

Decoded<WireLsa> read_lsa(Reader& r, const std::uint8_t* packet_data) {
  const std::size_t lsa_start = r.offset();
  Decoded<LsaHeader> header = read_lsa_header(r);
  if (!header) return header.error();
  WireLsa lsa;
  lsa.header = header.value();
  if (lsa.header.length < kLsaHeaderBytes) {
    return err(DecodeErrorKind::kBadLength,
               "LSA length " + std::to_string(lsa.header.length));
  }
  const std::size_t body_bytes = lsa.header.length - kLsaHeaderBytes;
  if (body_bytes > r.remaining()) {
    return err(DecodeErrorKind::kTruncated, "LSA body");
  }
  // The Fletcher checksum covers the instance's exact bytes minus the age
  // field; verify before trusting any body content.
  if (fletcher_checksum(packet_data + lsa_start + 2, lsa.header.length - 2, 14) !=
      lsa.header.checksum) {
    return err(DecodeErrorKind::kBadChecksum, "LSA checksum");
  }

  Reader body(r.cursor(), body_bytes);
  if (lsa.header.type == WireLsaType::kRouter) {
    RouterLsaBody router;
    std::uint8_t zero = 0;
    std::uint16_t num_links = 0;
    if (!body.u8(router.flags) || !body.u8(zero) || !body.u16(num_links)) {
      return err(DecodeErrorKind::kTruncated, "router LSA body");
    }
    if (zero != 0) return err(DecodeErrorKind::kBadValue, "router LSA pad");
    if (body.remaining() != std::size_t{num_links} * 12) {
      return err(DecodeErrorKind::kBadLength, "router LSA link count");
    }
    router.links.reserve(num_links);
    for (std::uint16_t i = 0; i < num_links; ++i) {
      RouterLink link;
      std::uint8_t link_type = 0;
      if (!body.u32(link.link_id) || !body.u32(link.link_data) ||
          !body.u8(link_type) || !body.u8(link.tos_count) || !body.u16(link.metric)) {
        return err(DecodeErrorKind::kTruncated, "router LSA link");
      }
      if (link_type < 1 || link_type > 4) {
        return err(DecodeErrorKind::kBadType,
                   "router link type " + std::to_string(link_type));
      }
      link.type = static_cast<RouterLinkType>(link_type);
      router.links.push_back(link);
    }
    lsa.body = std::move(router);
  } else {
    ExternalLsaBody ext;
    std::uint32_t metric_word = 0;
    if (body.remaining() != 16) {
      return err(DecodeErrorKind::kBadLength, "external LSA body");
    }
    if (!body.u32(ext.network_mask) || !body.u32(metric_word) ||
        !body.u32(ext.forwarding_address) || !body.u32(ext.route_tag)) {
      return err(DecodeErrorKind::kTruncated, "external LSA body");
    }
    if ((metric_word & 0x7f000000u) != 0) {
      return err(DecodeErrorKind::kBadValue, "external LSA TOS");
    }
    ext.type2_metric = (metric_word & 0x80000000u) != 0;
    ext.metric = metric_word & 0xffffffu;
    lsa.body = ext;
  }
  FIB_ASSERT(r.skip(body_bytes), "read_lsa: body skip");
  return lsa;
}

}  // namespace

const char* to_string(PacketType type) {
  switch (type) {
    case PacketType::kHello: return "Hello";
    case PacketType::kDatabaseDescription: return "DatabaseDescription";
    case PacketType::kLsRequest: return "LsRequest";
    case PacketType::kLsUpdate: return "LsUpdate";
    case PacketType::kLsAck: return "LsAck";
  }
  return "unknown";
}

PacketType type_of(const Packet& packet) {
  return static_cast<PacketType>(packet.body.index() + 1);
}

std::uint16_t packet_checksum(const std::uint8_t* data, std::size_t size) {
  // Sum the three regions around the checksum field [12, 14) and the
  // authentication field [16, 24); each starts at an even offset.
  std::uint64_t sum = ones_sum(data, 0, std::min<std::size_t>(size, 12));
  if (size > 14) sum += ones_sum(data, 14, std::min<std::size_t>(size, 16));
  if (size > 24) sum += ones_sum(data, 24, size);
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::uint16_t fletcher_checksum(const std::uint8_t* data, std::size_t size,
                                std::size_t checksum_offset) {
  // RFC 905 Annex B, as applied by RFC 2328 12.1.7: the check bytes
  // themselves count as zero. The running sums stay far below 2^64 for any
  // LSA, so one reduction mod 255 at the end gives the c0 and c1 that
  // reducing after every byte does.
  std::uint64_t sum0 = 0;
  std::uint64_t sum1 = 0;
  const auto run = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      sum0 += data[i];
      sum1 += sum0;
    }
  };
  const std::size_t check_begin = std::min(checksum_offset, size);
  const std::size_t check_end = std::min(checksum_offset + 2, size);
  run(0, check_begin);
  sum1 += sum0 * (check_end - check_begin);  // each check byte adds 0 to sum0
  run(check_end, size);
  const auto c0 = static_cast<std::int32_t>(sum0 % 255);
  const auto c1 = static_cast<std::int32_t>(sum1 % 255);
  std::int32_t x = static_cast<std::int32_t>(
                       (static_cast<std::int64_t>(size) - checksum_offset - 1) * c0 -
                       c1) %
                   255;
  if (x <= 0) x += 255;
  std::int32_t y = 510 - c0 - x;
  if (y > 255) y -= 255;
  return static_cast<std::uint16_t>((x << 8) | y);
}

Buffer encode_lsa(const WireLsa& lsa) {
  Writer w;
  write_lsa_header(w, lsa.header);
  write_lsa_body(w, lsa);
  return w.take();
}

WireLsa finalize_lsa(WireLsa lsa) {
  lsa.header.checksum = 0;
  const std::size_t body_bytes =
      std::holds_alternative<RouterLsaBody>(lsa.body)
          ? 4 + 12 * std::get<RouterLsaBody>(lsa.body).links.size()
          : 16;
  FIB_ASSERT(kLsaHeaderBytes + body_bytes <= 0xffff, "finalize_lsa: LSA too large");
  lsa.header.length = static_cast<std::uint16_t>(kLsaHeaderBytes + body_bytes);
  const Buffer bytes = encode_lsa(lsa);
  FIB_ASSERT(bytes.size() == lsa.header.length, "finalize_lsa: length mismatch");
  lsa.header.checksum =
      fletcher_checksum(bytes.data() + 2, bytes.size() - 2, 14);
  return lsa;
}

bool lsa_checksum_ok(const WireLsa& lsa) {
  const Buffer bytes = encode_lsa(lsa);
  if (bytes.size() != lsa.header.length) return false;
  return fletcher_checksum(bytes.data() + 2, bytes.size() - 2, 14) ==
         lsa.header.checksum;
}

int compare_instances(const LsaHeader& a, const LsaHeader& b) {
  // RFC 2328 13.1: signed sequence number first, then checksum, then MaxAge
  // (a flushing instance beats a live one -- premature aging must win),
  // then the age tie-break: ages more than MaxAgeDiff apart name different
  // instances and the *younger* one is the more recent.
  if (a.seq != b.seq) return a.seq > b.seq ? 1 : -1;
  if (a.checksum != b.checksum) return a.checksum > b.checksum ? 1 : -1;
  const bool a_max = a.age == kMaxAge;
  const bool b_max = b.age == kMaxAge;
  if (a_max != b_max) return a_max ? 1 : -1;
  const std::uint16_t age_gap = a.age > b.age ? a.age - b.age : b.age - a.age;
  if (age_gap > kMaxAgeDiff) return a.age < b.age ? 1 : -1;
  return 0;
}

Buffer encode_packet(const Packet& packet) {
  Writer w;
  w.u8(kOspfVersion);
  w.u8(static_cast<std::uint8_t>(type_of(packet)));
  w.u16(0);  // length, patched below
  w.u32(packet.router_id);
  w.u32(packet.area_id);
  w.u16(0);  // checksum, patched below
  w.u16(0);  // AuType: null authentication
  w.u64(0);  // authentication data

  if (const auto* hello = std::get_if<HelloBody>(&packet.body)) {
    w.u32(hello->network_mask);
    w.u16(hello->hello_interval);
    w.u8(hello->options);
    w.u8(hello->priority);
    w.u32(hello->dead_interval);
    w.u32(hello->designated_router);
    w.u32(hello->backup_designated_router);
    for (const std::uint32_t n : hello->neighbors) w.u32(n);
  } else if (const auto* dd = std::get_if<DatabaseDescriptionBody>(&packet.body)) {
    w.u16(dd->interface_mtu);
    w.u8(dd->options);
    w.u8(dd->flags);
    w.u32(dd->dd_sequence);
    for (const LsaHeader& h : dd->headers) write_lsa_header(w, h);
  } else if (const auto* lsr = std::get_if<LsRequestBody>(&packet.body)) {
    for (const LsRequestEntry& e : lsr->entries) {
      w.u32(e.type);
      w.u32(e.link_state_id);
      w.u32(e.advertising_router);
    }
  } else if (const auto* lsu = std::get_if<LsUpdateBody>(&packet.body)) {
    FIB_ASSERT(lsu->lsas.size() <= 0xffffffff, "LSU: too many LSAs");
    w.u32(static_cast<std::uint32_t>(lsu->lsas.size()));
    for (const WireLsa& lsa : lsu->lsas) {
      write_lsa_header(w, lsa.header);
      write_lsa_body(w, lsa);
    }
  } else {
    const auto& ack = std::get<LsAckBody>(packet.body);
    for (const LsaHeader& h : ack.headers) write_lsa_header(w, h);
  }

  FIB_ASSERT(w.size() <= 0xffff, "encode_packet: packet too large");
  w.patch_u16(2, static_cast<std::uint16_t>(w.size()));
  Buffer bytes = w.take();
  // D.4.1: checksum of the whole packet excluding the authentication field.
  const std::uint16_t checksum = packet_checksum(bytes.data(), bytes.size());
  bytes[12] = static_cast<std::uint8_t>(checksum >> 8);
  bytes[13] = static_cast<std::uint8_t>(checksum);
  return bytes;
}

Decoded<Packet> decode_packet(const std::uint8_t* data, std::size_t size) {
  if (size < kPacketHeaderBytes) {
    return err(DecodeErrorKind::kTruncated, "packet header");
  }
  Reader r(data, size);
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint16_t length = 0;
  std::uint16_t checksum = 0;
  std::uint16_t autype = 0;
  std::uint64_t auth = 0;
  Packet packet;
  FIB_ASSERT(r.u8(version) && r.u8(type) && r.u16(length) &&
                 r.u32(packet.router_id) && r.u32(packet.area_id) &&
                 r.u16(checksum) && r.u16(autype) && r.u64(auth),
             "decode_packet: header reads within checked size");
  if (version != kOspfVersion) {
    return err(DecodeErrorKind::kBadVersion,
               "OSPF version " + std::to_string(version));
  }
  if (type < 1 || type > 5) {
    return err(DecodeErrorKind::kBadType, "packet type " + std::to_string(type));
  }
  if (length < kPacketHeaderBytes) {
    return err(DecodeErrorKind::kBadLength,
               "packet length " + std::to_string(length));
  }
  if (length > size) return err(DecodeErrorKind::kTruncated, "packet body");
  if (length < size) return err(DecodeErrorKind::kTrailingBytes, "after packet");
  if (packet_checksum(data, length) != checksum) {
    return err(DecodeErrorKind::kBadChecksum, "packet checksum");
  }
  if (autype != 0) {
    return err(DecodeErrorKind::kBadValue, "unsupported AuType");
  }

  switch (static_cast<PacketType>(type)) {
    case PacketType::kHello: {
      HelloBody hello;
      if (!r.u32(hello.network_mask) || !r.u16(hello.hello_interval) ||
          !r.u8(hello.options) || !r.u8(hello.priority) ||
          !r.u32(hello.dead_interval) || !r.u32(hello.designated_router) ||
          !r.u32(hello.backup_designated_router)) {
        return err(DecodeErrorKind::kTruncated, "hello body");
      }
      if (r.remaining() % 4 != 0) {
        return err(DecodeErrorKind::kBadLength, "hello neighbor list");
      }
      while (r.remaining() > 0) {
        std::uint32_t neighbor = 0;
        FIB_ASSERT(r.u32(neighbor), "hello neighbor within checked size");
        hello.neighbors.push_back(neighbor);
      }
      packet.body = std::move(hello);
      break;
    }
    case PacketType::kDatabaseDescription: {
      DatabaseDescriptionBody dd;
      if (!r.u16(dd.interface_mtu) || !r.u8(dd.options) || !r.u8(dd.flags) ||
          !r.u32(dd.dd_sequence)) {
        return err(DecodeErrorKind::kTruncated, "DD body");
      }
      if (dd.flags & ~(kDdFlagInit | kDdFlagMore | kDdFlagMasterSlave)) {
        return err(DecodeErrorKind::kBadValue, "DD flags");
      }
      if (r.remaining() % kLsaHeaderBytes != 0) {
        return err(DecodeErrorKind::kBadLength, "DD summary list");
      }
      while (r.remaining() > 0) {
        Decoded<LsaHeader> header = read_lsa_header(r);
        if (!header) return header.error();
        dd.headers.push_back(header.value());
      }
      packet.body = std::move(dd);
      break;
    }
    case PacketType::kLsRequest: {
      LsRequestBody lsr;
      if (r.remaining() % 12 != 0) {
        return err(DecodeErrorKind::kBadLength, "LS request list");
      }
      while (r.remaining() > 0) {
        LsRequestEntry e;
        FIB_ASSERT(r.u32(e.type) && r.u32(e.link_state_id) &&
                       r.u32(e.advertising_router),
                   "LSR entry within checked size");
        if (e.type != 1 && e.type != 5) {
          return err(DecodeErrorKind::kBadType,
                     "LS request type " + std::to_string(e.type));
        }
        lsr.entries.push_back(e);
      }
      packet.body = std::move(lsr);
      break;
    }
    case PacketType::kLsUpdate: {
      LsUpdateBody lsu;
      std::uint32_t count = 0;
      if (!r.u32(count)) return err(DecodeErrorKind::kTruncated, "LSU count");
      // Bound the reservation by what the bytes could possibly hold -- a
      // hostile count must not translate into a giant allocation.
      lsu.lsas.reserve(std::min<std::size_t>(count, r.remaining() / kLsaHeaderBytes));
      for (std::uint32_t i = 0; i < count; ++i) {
        Decoded<WireLsa> lsa = read_lsa(r, data);
        if (!lsa) return lsa.error();
        lsu.lsas.push_back(std::move(lsa).value());
      }
      if (r.remaining() != 0) {
        return err(DecodeErrorKind::kBadLength, "LSU trailing bytes");
      }
      packet.body = std::move(lsu);
      break;
    }
    case PacketType::kLsAck: {
      LsAckBody ack;
      if (r.remaining() % kLsaHeaderBytes != 0) {
        return err(DecodeErrorKind::kBadLength, "LS ack list");
      }
      while (r.remaining() > 0) {
        Decoded<LsaHeader> header = read_lsa_header(r);
        if (!header) return header.error();
        ack.headers.push_back(header.value());
      }
      packet.body = std::move(ack);
      break;
    }
  }
  return packet;
}

}  // namespace fibbing::proto
