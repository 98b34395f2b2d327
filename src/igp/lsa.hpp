#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "net/ipv4.hpp"
#include "net/prefix.hpp"
#include "topo/topology.hpp"

namespace fibbing::igp {

using SeqNum = std::uint64_t;

/// One link advertised inside a Router-LSA: the neighbor, the cost of the
/// outgoing interface, and the transfer network (needed by every router to
/// resolve external forwarding addresses, like OSPF stub entries).
struct LsaLink {
  topo::NodeId neighbor = topo::kInvalidNode;
  topo::Metric metric = 1;
  net::Prefix subnet;        // the /30 transfer network
  net::Ipv4 local_addr;      // originator's address inside `subnet`
};

/// A prefix originated by the router (OSPF intra-area stub route).
struct LsaPrefix {
  net::Prefix prefix;
  topo::Metric metric = 0;
};

/// Router-LSA: the originator's view of its own adjacencies and prefixes.
struct RouterLsa {
  topo::NodeId origin = topo::kInvalidNode;
  std::vector<LsaLink> links;
  std::vector<LsaPrefix> prefixes;
};

/// External-LSA: the vehicle of Fibbing lies (OSPF type-5 with forwarding
/// address). Announces `prefix` at `ext_metric`; routers compute
///   cost = dist(self, subnet owning forwarding_address) + ext_metric
/// and forward toward the forwarding address. `lie_id` distinguishes
/// replicated lies for the same prefix (uneven splitting); `withdrawn`
/// models an OSPF MaxAge purge.
struct ExternalLsa {
  std::uint64_t lie_id = 0;
  net::Prefix prefix;
  topo::Metric ext_metric = 0;
  net::Ipv4 forwarding_address;
  bool withdrawn = false;
};

using LsaBody = std::variant<RouterLsa, ExternalLsa>;

enum class LsaType : std::uint8_t { kRouter = 1, kExternal = 5 };

/// Identity of an LSA instance in the LSDB; (type, key) where key is the
/// originating router for Router-LSAs and the lie id for External-LSAs.
struct LsaKey {
  LsaType type = LsaType::kRouter;
  std::uint64_t key = 0;

  friend auto operator<=>(const LsaKey&, const LsaKey&) = default;
};

struct Lsa {
  LsaKey id;
  SeqNum seq = 1;
  LsaBody body;
};

/// Shared-ownership handle to an immutable LSA instance. Nothing is shared
/// across routers: each decodes its own copy from the wire
/// (RouterProcess::deliver). The handle lets one router's instance outlive
/// its LSDB slot -- Lsdb::Change::before keeps a replaced instance alive for
/// NetworkView::patch_from_lsdb -- and lets Lsdb::all() hand out entries
/// without copying them.
using LsaPtr = std::shared_ptr<const Lsa>;

/// Build `node`'s Router-LSA from the topology. Links whose id is marked in
/// `down_links` (when non-empty) are omitted, as after an interface failure.
[[nodiscard]] Lsa make_router_lsa(const topo::Topology& topo, topo::NodeId node,
                                  SeqNum seq = 1,
                                  const std::vector<bool>& down_links = {});
[[nodiscard]] Lsa make_external_lsa(const ExternalLsa& ext, SeqNum seq = 1);

[[nodiscard]] std::string to_string(const Lsa& lsa);

}  // namespace fibbing::igp

template <>
struct std::hash<fibbing::igp::LsaKey> {
  std::size_t operator()(const fibbing::igp::LsaKey& k) const noexcept {
    return std::hash<std::uint64_t>{}(k.key * 8 + static_cast<std::uint8_t>(k.type));
  }
};
