#include "proto/translate.hpp"

#include <string>

#include "net/prefix.hpp"
#include "util/assert.hpp"

namespace fibbing::proto {

namespace {

DecodeError bad(DecodeErrorKind kind, std::string detail) {
  return DecodeError{kind, std::move(detail)};
}

std::optional<std::uint8_t> prefix_length_of(std::uint32_t mask) {
  for (std::uint8_t len = 0; len <= 32; ++len) {
    if (net::mask_for(len) == mask) return len;
  }
  return std::nullopt;  // non-contiguous mask
}

std::uint16_t wire_metric(topo::Metric metric) {
  FIB_ASSERT(metric <= 0xffff, "to_wire: link metric exceeds 16 bits");
  return static_cast<std::uint16_t>(metric);
}

}  // namespace

std::uint32_t external_ls_id(const net::Prefix& prefix, std::uint64_t lie_id) {
  // Appendix E: concurrent instances for one prefix are told apart by the
  // host bits of the link state id. The lie id also rides in full in the
  // route tag, so decoding is exact as long as coexisting lies for a prefix
  // do not collide modulo 2^(32-len). Colliding lies share a wire identity
  // and would silently supersede each other; the compiler and the
  // controller session both check the bound before anything hits the wire.
  const std::uint32_t host_bits = ~net::mask_for(prefix.length());
  return prefix.network().bits() |
         (static_cast<std::uint32_t>(lie_id) & host_bits);
}

std::uint64_t max_coexisting_lies(const net::Prefix& prefix) {
  return 1ull << (32 - prefix.length());
}

AddressMap::AddressMap(const topo::Topology& topo) {
  id_of_.reserve(topo.node_count());
  for (topo::NodeId n = 0; n < topo.node_count(); ++n) {
    const std::uint32_t id = topo.node(n).router_id.bits();
    id_of_.push_back(id);
    const auto [it, inserted] = node_of_.emplace(id, n);
    FIB_ASSERT(inserted, "AddressMap: duplicate router id");
  }
}

std::uint32_t AddressMap::router_id(topo::NodeId node) const {
  FIB_ASSERT(node < id_of_.size(), "AddressMap: node out of range");
  return id_of_[node];
}

std::optional<topo::NodeId> AddressMap::node_of(std::uint32_t router_id) const {
  const auto it = node_of_.find(router_id);
  if (it == node_of_.end()) return std::nullopt;
  return it->second;
}

std::int32_t to_wire_seq(igp::SeqNum seq) {
  FIB_ASSERT(seq >= 1 && seq <= 0x7ffffffeull, "to_wire_seq: out of LS range");
  return static_cast<std::int32_t>(static_cast<std::int64_t>(kInitialSequence) +
                                   static_cast<std::int64_t>(seq) - 1);
}

igp::SeqNum from_wire_seq(std::int32_t seq) {
  return static_cast<igp::SeqNum>(static_cast<std::int64_t>(seq) -
                                  static_cast<std::int64_t>(kInitialSequence) + 1);
}

WireLsa to_wire(const igp::Lsa& lsa, const AddressMap& addrs) {
  WireLsa wire;
  wire.header.seq = to_wire_seq(lsa.seq);
  if (const auto* router = std::get_if<igp::RouterLsa>(&lsa.body)) {
    FIB_ASSERT(lsa.id.type == igp::LsaType::kRouter && lsa.id.key == router->origin,
               "to_wire: router LSA key mismatch");
    const std::uint32_t rid = addrs.router_id(router->origin);
    wire.header.type = WireLsaType::kRouter;
    wire.header.link_state_id = rid;
    wire.header.advertising_router = rid;
    RouterLsaBody body;
    body.links.reserve(2 * router->links.size() + router->prefixes.size());
    for (const igp::LsaLink& link : router->links) {
      // RFC 12.4.1.1: the point-to-point link, then the stub link for its
      // transfer network (which is how forwarding addresses stay
      // resolvable from the LSDB alone).
      body.links.push_back(RouterLink{addrs.router_id(link.neighbor),
                                      link.local_addr.bits(),
                                      RouterLinkType::kPointToPoint, 0,
                                      wire_metric(link.metric)});
      body.links.push_back(RouterLink{link.subnet.network().bits(),
                                      net::mask_for(link.subnet.length()),
                                      RouterLinkType::kStub, 0,
                                      wire_metric(link.metric)});
    }
    for (const igp::LsaPrefix& pfx : router->prefixes) {
      body.links.push_back(RouterLink{pfx.prefix.network().bits(),
                                      net::mask_for(pfx.prefix.length()),
                                      RouterLinkType::kStub, 0,
                                      wire_metric(pfx.metric)});
    }
    wire.body = std::move(body);
  } else {
    const auto& ext = std::get<igp::ExternalLsa>(lsa.body);
    FIB_ASSERT(lsa.id.type == igp::LsaType::kExternal && lsa.id.key == ext.lie_id,
               "to_wire: external LSA key mismatch");
    FIB_ASSERT(ext.lie_id <= 0xffffffffull, "to_wire: lie id exceeds 32 bits");
    FIB_ASSERT(ext.ext_metric <= 0xffffff, "to_wire: external metric exceeds 24 bits");
    wire.header.type = WireLsaType::kExternal;
    wire.header.link_state_id = external_ls_id(ext.prefix, ext.lie_id);
    wire.header.advertising_router = kControllerRouterId;
    wire.header.age = ext.withdrawn ? kMaxAge : 0;
    wire.body = ExternalLsaBody{net::mask_for(ext.prefix.length()),
                                /*type2_metric=*/true, ext.ext_metric,
                                ext.forwarding_address.bits(),
                                static_cast<std::uint32_t>(ext.lie_id)};
  }
  return finalize_lsa(std::move(wire));
}

Decoded<igp::Lsa> from_wire(const WireLsa& wire, const AddressMap& addrs) {
  igp::Lsa lsa;
  lsa.seq = from_wire_seq(wire.header.seq);
  if (const auto* router = std::get_if<RouterLsaBody>(&wire.body)) {
    if (wire.header.link_state_id != wire.header.advertising_router) {
      return bad(DecodeErrorKind::kBadValue, "router LSA id != originator");
    }
    const auto origin = addrs.node_of(wire.header.advertising_router);
    if (!origin) {
      return bad(DecodeErrorKind::kBadValue, "unknown originating router");
    }
    igp::RouterLsa body;
    body.origin = *origin;
    for (std::size_t i = 0; i < router->links.size(); ++i) {
      const RouterLink& link = router->links[i];
      switch (link.type) {
        case RouterLinkType::kPointToPoint: {
          const auto neighbor = addrs.node_of(link.link_id);
          if (!neighbor) {
            return bad(DecodeErrorKind::kBadValue, "unknown neighbor router");
          }
          // RFC 2328 C.3: an interface's output cost is greater than 0; SPF
          // relies on it (a zero-cost edge breaks its equal-cost merge).
          if (link.metric == 0) {
            return bad(DecodeErrorKind::kBadValue, "zero-cost point-to-point link");
          }
          // The transfer network rides in the stub link that follows.
          if (i + 1 >= router->links.size() ||
              router->links[i + 1].type != RouterLinkType::kStub) {
            return bad(DecodeErrorKind::kBadValue,
                       "p2p link without its transfer-network stub");
          }
          const RouterLink& stub = router->links[++i];
          const auto len = prefix_length_of(stub.link_data);
          if (!len) return bad(DecodeErrorKind::kBadValue, "non-contiguous mask");
          const net::Prefix subnet(net::Ipv4(stub.link_id), *len);
          if (!subnet.contains(net::Ipv4(link.link_data))) {
            return bad(DecodeErrorKind::kBadValue,
                       "interface address outside its transfer network");
          }
          body.links.push_back(igp::LsaLink{*neighbor, link.metric, subnet,
                                            net::Ipv4(link.link_data)});
          break;
        }
        case RouterLinkType::kStub: {
          const auto len = prefix_length_of(link.link_data);
          if (!len) return bad(DecodeErrorKind::kBadValue, "non-contiguous mask");
          body.prefixes.push_back(igp::LsaPrefix{
              net::Prefix(net::Ipv4(link.link_id), *len), link.metric});
          break;
        }
        case RouterLinkType::kTransit:
        case RouterLinkType::kVirtual:
          return bad(DecodeErrorKind::kBadValue,
                     "transit/virtual links unsupported on p2p domains");
      }
    }
    lsa.id = igp::LsaKey{igp::LsaType::kRouter, body.origin};
    lsa.body = std::move(body);
  } else {
    const auto& ext = std::get<ExternalLsaBody>(wire.body);
    if (wire.header.advertising_router != kControllerRouterId) {
      return bad(DecodeErrorKind::kBadValue, "external LSA from unknown ASBR");
    }
    const auto len = prefix_length_of(ext.network_mask);
    if (!len) return bad(DecodeErrorKind::kBadValue, "non-contiguous mask");
    igp::ExternalLsa body;
    body.lie_id = ext.route_tag;
    body.prefix = net::Prefix(net::Ipv4(wire.header.link_state_id), *len);
    body.ext_metric = ext.metric;
    body.forwarding_address = net::Ipv4(ext.forwarding_address);
    body.withdrawn = wire.header.age == kMaxAge;
    if (wire.header.link_state_id != external_ls_id(body.prefix, body.lie_id)) {
      return bad(DecodeErrorKind::kBadValue,
                 "external LSA host bits disagree with route tag");
    }
    lsa.id = igp::LsaKey{igp::LsaType::kExternal, body.lie_id};
    lsa.body = body;
  }
  return lsa;
}

}  // namespace fibbing::proto
