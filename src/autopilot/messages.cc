#include "src/autopilot/messages.h"

#include <map>

namespace autonet {

std::vector<std::uint8_t> ConnectivityMsg::Serialize() const {
  return Encode(*this);
}

std::optional<ConnectivityMsg> ConnectivityMsg::Parse(
    const std::vector<std::uint8_t>& payload) {
  return Decode<ConnectivityMsg>(payload);
}

std::vector<std::uint8_t> ReconfigMsg::Serialize() const {
  return Encode(*this);
}

std::optional<ReconfigMsg> ReconfigMsg::Parse(
    const std::vector<std::uint8_t>& payload) {
  return Decode<ReconfigMsg>(payload);
}

const char* ReconfigMsg::KindName() const {
  switch (kind) {
    case Kind::kPosition:
      return "position";
    case Kind::kPosAck:
      return "pos-ack";
    case Kind::kReport:
      return "report";
    case Kind::kReportAck:
      return "report-ack";
    case Kind::kConfig:
      return "config";
    case Kind::kConfigAck:
      return "config-ack";
    case Kind::kDelta:
      return "delta";
    case Kind::kMinorConfig:
      return "minor-config";
  }
  return "?";
}

NetTopology RecordsToTopology(const std::vector<SwitchRecord>& records) {
  NetTopology topo;
  std::map<std::uint64_t, int> index;
  for (const SwitchRecord& rec : records) {
    if (index.count(rec.uid.value()) > 0) {
      continue;  // duplicate reports: first wins
    }
    index[rec.uid.value()] = topo.size();
    SwitchDescriptor sw;
    sw.uid = rec.uid;
    sw.proposed_num = rec.proposed_num;
    sw.assigned_num = rec.assigned_num;
    sw.host_ports = PortVector(rec.host_ports);
    topo.switches.push_back(std::move(sw));
  }
  for (const SwitchRecord& rec : records) {
    auto it = index.find(rec.uid.value());
    SwitchDescriptor& sw = topo.switches[it->second];
    if (!sw.links.empty()) {
      continue;  // duplicate record already filled in
    }
    for (const SwitchRecord::LinkRec& link : rec.links) {
      auto remote = index.find(link.remote_uid.value());
      if (remote == index.end()) {
        continue;  // link to a switch outside the stable set
      }
      sw.links.push_back(TopoLink{link.local_port, remote->second,
                                  link.remote_port});
    }
  }
  topo.SymmetrizeLinks();
  return topo;
}

std::vector<SwitchRecord> TopologyToRecords(const NetTopology& topology) {
  std::vector<SwitchRecord> records;
  records.reserve(topology.switches.size());
  for (const SwitchDescriptor& sw : topology.switches) {
    SwitchRecord rec;
    rec.uid = sw.uid;
    rec.proposed_num = sw.proposed_num;
    rec.assigned_num = sw.assigned_num;
    rec.host_ports = sw.host_ports.bits();
    for (const TopoLink& link : sw.links) {
      rec.links.push_back(SwitchRecord::LinkRec{
          static_cast<std::uint8_t>(link.local_port),
          topology.switches[link.remote_switch].uid,
          static_cast<std::uint8_t>(link.remote_port)});
    }
    records.push_back(std::move(rec));
  }
  return records;
}

std::vector<std::uint8_t> HostAddressMsg::Serialize() const {
  return Encode(*this);
}

std::optional<HostAddressMsg> HostAddressMsg::Parse(
    const std::vector<std::uint8_t>& payload) {
  return Decode<HostAddressMsg>(payload);
}

std::vector<std::uint8_t> SrpMsg::Serialize() const { return Encode(*this); }

std::optional<SrpMsg> SrpMsg::Parse(const std::vector<std::uint8_t>& payload) {
  return Decode<SrpMsg>(payload);
}

}  // namespace autonet
