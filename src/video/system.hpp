#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dataplane/network_sim.hpp"
#include "monitor/bus.hpp"
#include "net/prefix.hpp"
#include "topo/topology.hpp"
#include "util/event_queue.hpp"
#include "video/client.hpp"

namespace fibbing::video {

using ServerId = std::size_t;
using SessionId = std::uint64_t;

/// A video streaming server: a traffic source attached to an ingress
/// router. Servers pace at the asset bitrate (CBR) and notify the
/// controller bus on every client arrival/departure, as in the demo.
struct ServerConfig {
  std::string name;
  topo::NodeId node = topo::kInvalidNode;
  net::Ipv4 address;
};

/// Owns servers, playback clients and their flows; glues the application
/// layer to the data-plane simulator and the controller notification bus.
class VideoSystem {
 public:
  VideoSystem(const topo::Topology& topo, dataplane::NetworkSim& sim,
              util::EventQueue& events, monitor::NotificationBus& bus);

  ServerId add_server(ServerConfig config);

  /// A client at `client_addr` (inside `client_prefix`) requests a video
  /// from `server`. Creates the flow, the playback client, and publishes a
  /// +1 demand notice.
  SessionId start_session(ServerId server, const net::Prefix& client_prefix,
                          net::Ipv4 client_addr, VideoAsset asset);

  /// Abort a session early (client leaves): removes the flow, publishes -1
  /// and stops the client, freezing its QoE at this instant.
  void stop_session(SessionId id);

  [[nodiscard]] VideoClient& client(SessionId id);
  [[nodiscard]] std::size_t active_count() const;
  [[nodiscard]] std::vector<SessionId> session_ids() const;

  /// QoE of every session ever started (active, finished and aborted).
  [[nodiscard]] std::vector<Qoe> all_qoe();

 private:
  struct Session {
    ServerId server = 0;
    dataplane::FlowId flow = 0;
    net::Prefix prefix;
    double bitrate_bps = 0.0;
    std::unique_ptr<VideoClient> client;
    bool flow_active = false;
  };

  void finish_session_(SessionId id);

  const topo::Topology& topo_;
  dataplane::NetworkSim& sim_;
  util::EventQueue& events_;
  monitor::NotificationBus& bus_;
  std::vector<ServerConfig> servers_;
  std::vector<std::uint16_t> next_port_;
  std::map<SessionId, Session> sessions_;
  std::map<dataplane::FlowId, SessionId> by_flow_;
  SessionId next_session_ = 1;
};

}  // namespace fibbing::video
