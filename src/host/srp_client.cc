#include "src/host/srp_client.h"

namespace autonet {

SrpClient::SrpClient(AutonetDriver* driver)
    : driver_(driver),
      sim_(driver->controller()->sim()),
      chain_(std::make_shared<Chain>(Chain{this, driver->receive_handler()})) {
  driver_->SetReceiveHandler(Hook{chain_});
}

SrpClient::~SrpClient() {
  chain_->client = nullptr;
  const Hook* installed = driver_->receive_handler().target<Hook>();
  if (installed != nullptr && installed->chain == chain_) {
    driver_->SetReceiveHandler(std::move(chain_->chained));
  }
}

void SrpClient::Hook::operator()(Delivery d) const {
  if (chain->client != nullptr && d.packet->type == PacketType::kSrp) {
    chain->client->OnDelivery(std::move(d));
    return;
  }
  // Not ours: pass through to the handler we displaced.  Dropping these
  // would silence every other client on the host (found by host-side
  // injection: the delivery oracle went dark the moment a client was
  // installed, with the driver's address book fully intact).
  if (chain->chained) {
    chain->chained(std::move(d));
  }
}

void SrpClient::OnDelivery(Delivery d) {
  if (!d.intact()) {
    return;
  }
  auto msg = SrpMsg::Parse(d.packet->payload);
  if (msg.has_value() && msg->op == SrpMsg::Op::kReply) {
    replies_[msg->request_id] = std::move(*msg);
  }
}

std::optional<SrpMsg> SrpClient::Query(SrpMsg::Op op,
                                       const std::vector<std::uint8_t>& route,
                                       Tick timeout,
                                       std::vector<std::uint8_t> body) {
  SrpMsg msg;
  msg.op = op;
  msg.request_id = ++next_id_;
  msg.route = route;
  msg.body = std::move(body);
  Packet p;
  p.dest = kAddrLocalCp;
  p.type = PacketType::kSrp;
  p.payload = msg.Serialize();
  if (!driver_->Send(std::move(p))) {
    return std::nullopt;
  }
  Tick deadline = sim_->now() + timeout;
  while (sim_->now() < deadline) {
    sim_->RunUntil(sim_->now() + 5 * kMillisecond);
    auto it = replies_.find(msg.request_id);
    if (it != replies_.end()) {
      SrpMsg reply = std::move(it->second);
      replies_.erase(it);
      return reply;
    }
  }
  return std::nullopt;
}

std::optional<SrpState> SrpClient::GetState(
    const std::vector<std::uint8_t>& route, Tick timeout) {
  auto reply = Query(SrpMsg::Op::kGetState, route, timeout);
  if (!reply.has_value()) {
    return std::nullopt;
  }
  return Decode<SrpState>(reply->body);
}

std::optional<NetTopology> SrpClient::GetTopology(
    const std::vector<std::uint8_t>& route, Tick timeout) {
  auto reply = Query(SrpMsg::Op::kGetTopology, route, timeout);
  if (!reply.has_value()) {
    return std::nullopt;
  }
  auto topo = Decode<SrpTopology>(reply->body);
  if (!topo.has_value()) {
    return std::nullopt;
  }
  return RecordsToTopology(topo->records);
}

std::optional<std::string> SrpClient::GetLogTail(
    const std::vector<std::uint8_t>& route, Tick timeout) {
  auto reply = Query(SrpMsg::Op::kGetLog, route, timeout);
  if (!reply.has_value()) {
    return std::nullopt;
  }
  return std::string(reply->body.begin(), reply->body.end());
}

bool SrpClient::Echo(const std::vector<std::uint8_t>& route, Tick timeout) {
  return Query(SrpMsg::Op::kEcho, route, timeout).has_value();
}

std::optional<std::vector<SrpStat>> SrpClient::GetStats(
    const std::vector<std::uint8_t>& route, const std::string& filter,
    Tick timeout) {
  std::vector<std::uint8_t> body(filter.begin(), filter.end());
  auto reply =
      Query(SrpMsg::Op::kGetStats, route, timeout, std::move(body));
  if (!reply.has_value()) {
    return std::nullopt;
  }
  auto stats = Decode<SrpStats>(reply->body);
  if (!stats.has_value()) {
    return std::nullopt;
  }
  return std::move(stats->entries);
}

std::vector<SrpClient::CrawlEntry> SrpClient::CrawlTopology(
    Tick per_query_timeout) {
  std::vector<CrawlEntry> entries;
  auto topo = GetTopology({}, per_query_timeout);
  auto local_state = GetState({}, per_query_timeout);
  if (!topo.has_value() || !local_state.has_value()) {
    return entries;
  }
  int local = topo->IndexOf(local_state->uid);
  if (local < 0) {
    return entries;
  }
  std::vector<std::vector<std::uint8_t>> route_to(topo->switches.size());
  std::vector<bool> seen(topo->switches.size(), false);
  std::vector<int> queue{local};
  seen[local] = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    int sw = queue[head];
    if (auto state = GetState(route_to[sw], per_query_timeout)) {
      entries.push_back({route_to[sw], std::move(*state)});
    }
    for (const TopoLink& link : topo->switches[sw].links) {
      if (!seen[link.remote_switch]) {
        seen[link.remote_switch] = true;
        route_to[link.remote_switch] = route_to[sw];
        route_to[link.remote_switch].push_back(
            static_cast<std::uint8_t>(link.local_port));
        queue.push_back(link.remote_switch);
      }
    }
  }
  return entries;
}

}  // namespace autonet
