#include "video/system.hpp"

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace fibbing::video {

VideoSystem::VideoSystem(const topo::Topology& topo, dataplane::NetworkSim& sim,
                         util::EventQueue& events, monitor::NotificationBus& bus)
    : topo_(topo), sim_(sim), events_(events), bus_(bus) {
  sim_.subscribe_rates([this](dataplane::FlowId flow, double rate) {
    const auto it = by_flow_.find(flow);
    if (it == by_flow_.end()) return;  // not a video flow
    sessions_.at(it->second).client->on_rate_change(rate);
  });
}

ServerId VideoSystem::add_server(ServerConfig config) {
  FIB_ASSERT(config.node < topo_.node_count(), "add_server: bad node");
  servers_.push_back(std::move(config));
  next_port_.push_back(20000);
  return servers_.size() - 1;
}

SessionId VideoSystem::start_session(ServerId server, const net::Prefix& client_prefix,
                                     net::Ipv4 client_addr, VideoAsset asset) {
  FIB_ASSERT(server < servers_.size(), "start_session: unknown server");
  FIB_ASSERT(client_prefix.contains(client_addr),
             "start_session: client address outside its prefix");
  const ServerConfig& cfg = servers_[server];
  const SessionId id = next_session_++;

  Session session;
  session.server = server;
  session.prefix = client_prefix;
  session.bitrate_bps = asset.bitrate_bps;
  session.client = std::make_unique<VideoClient>(events_, asset);
  session.client->set_on_finished([this, id] { finish_session_(id); });

  dataplane::Flow flow;
  flow.src = cfg.address;
  flow.dst = client_addr;
  flow.src_port = next_port_[server]++;
  flow.dst_port = 8554;  // RTSP-ish
  flow.ingress = cfg.node;
  flow.demand_bps = asset.bitrate_bps;  // CBR pacing at the asset bitrate

  auto [it, inserted] = sessions_.emplace(id, std::move(session));
  FIB_ASSERT(inserted, "start_session: duplicate session id");
  // add_flow triggers the rate listener synchronously; mappings must be in
  // place before the call.
  it->second.flow_active = true;
  const dataplane::FlowId fid = sim_.add_flow(flow);
  it->second.flow = fid;
  by_flow_.emplace(fid, id);
  // The listener fired before by_flow_ knew the id; push the current rate.
  it->second.client->on_rate_change(sim_.flow_rate(fid));

  bus_.publish(monitor::DemandNotice{cfg.node, client_prefix, asset.bitrate_bps, +1});
  FIB_LOG(kInfo, "video") << cfg.name << " starts session " << id << " to "
                          << client_addr.to_string();
  return id;
}

void VideoSystem::stop_session(SessionId id) {
  finish_session_(id);
  sessions_.at(id).client->stop();
}

VideoClient& VideoSystem::client(SessionId id) {
  const auto it = sessions_.find(id);
  FIB_ASSERT(it != sessions_.end(), "client: unknown session");
  return *it->second.client;
}

std::size_t VideoSystem::active_count() const {
  std::size_t n = 0;
  for (const auto& [id, session] : sessions_) {
    if (session.flow_active) ++n;
  }
  return n;
}

std::vector<SessionId> VideoSystem::session_ids() const {
  std::vector<SessionId> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) out.push_back(id);
  return out;
}

std::vector<Qoe> VideoSystem::all_qoe() {
  std::vector<Qoe> out;
  out.reserve(sessions_.size());
  for (auto& [id, session] : sessions_) out.push_back(session.client->qoe());
  return out;
}

void VideoSystem::finish_session_(SessionId id) {
  const auto it = sessions_.find(id);
  FIB_ASSERT(it != sessions_.end(), "finish_session: unknown session");
  Session& session = it->second;
  if (!session.flow_active) return;  // already finished/aborted
  session.flow_active = false;
  by_flow_.erase(session.flow);
  sim_.remove_flow(session.flow);
  bus_.publish(monitor::DemandNotice{servers_[session.server].node, session.prefix,
                                     session.bitrate_bps, -1});
  FIB_LOG(kInfo, "video") << "session " << id << " ended";
}

}  // namespace fibbing::video
