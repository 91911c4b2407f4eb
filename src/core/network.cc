#include "src/core/network.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>

#include "src/routing/spanning_tree.h"
#include "src/routing/updown.h"
#include "src/routing/verify.h"

namespace autonet {

Network::Network(TopoSpec spec) : Network(std::move(spec), NetworkConfig()) {}

Network::Network(TopoSpec spec, NetworkConfig config)
    : spec_(std::move(spec)), config_(config) {
  assert(spec_.Validate().empty() && "invalid topology spec");

  const int ns = static_cast<int>(spec_.switches.size());
  const int nh = static_cast<int>(spec_.hosts.size());
  alive_.assign(ns, true);
  cable_cut_.assign(spec_.cables.size(), false);
  cable_corruption_.assign(spec_.cables.size(), 0.0);
  host_link_cut_.assign(nh, {false, false});
  inboxes_.resize(nh);

  for (int i = 0; i < ns; ++i) {
    switches_.push_back(std::make_unique<Switch>(
        &sim_, spec_.switches[i].uid, spec_.switches[i].name,
        config_.switch_config));
    autopilots_.push_back(
        std::make_unique<Autopilot>(switches_.back().get(), config_.autopilot));
  }
  for (std::size_t c = 0; c < spec_.cables.size(); ++c) {
    const TopoSpec::CableSpec& cs = spec_.cables[c];
    cables_.push_back(std::make_unique<Link>(&sim_, cs.length_km,
                                             /*corruption_seed=*/c + 1));
    switches_[cs.sw_a]->AttachLink(cs.port_a, cables_.back().get(),
                                   Link::Side::kA);
    // A cable may loop back to another port of the same switch; both ends
    // are always terminated.
    switches_[cs.sw_b]->AttachLink(cs.port_b, cables_.back().get(),
                                   Link::Side::kB);
  }
  for (int h = 0; h < nh; ++h) {
    const TopoSpec::HostSpec& hs = spec_.hosts[h];
    hosts_.push_back(std::make_unique<HostController>(
        &sim_, hs.uid, hs.name, config_.host_config));
    drivers_.push_back(std::make_unique<AutonetDriver>(hosts_.back().get()));
    host_links_.push_back({});
    auto& links = host_links_.back();
    links[0] = std::make_unique<Link>(&sim_, hs.length_km, 1000 + 2 * h);
    hosts_[h]->AttachPort(0, links[0].get(), Link::Side::kA);
    switches_[hs.primary_switch]->AttachLink(hs.primary_port, links[0].get(),
                                             Link::Side::kB);
    if (hs.alt_switch >= 0) {
      links[1] = std::make_unique<Link>(&sim_, hs.length_km, 1001 + 2 * h);
      hosts_[h]->AttachPort(1, links[1].get(), Link::Side::kA);
      switches_[hs.alt_switch]->AttachLink(hs.alt_port, links[1].get(),
                                           Link::Side::kB);
    }
    drivers_[h]->SetReceiveHandler([this, h](Delivery d) {
      // (time, host, size, intact, tag).
      const Packet& p = *d.packet;
      sim_.MixDataDigest(static_cast<std::uint64_t>(d.delivered_at));
      sim_.MixDataDigest(static_cast<std::uint64_t>(h) << 32 |
                         p.WireSize() << 1 | (d.intact() ? 1 : 0));
      sim_.MixDataDigest(DataTag::Of(p.payload));
      if (delivery_hook_) {
        delivery_hook_(h, d);
      }
      if (d.packet->ether_type != kHookOnlyEtherType &&
          inboxes_[h].size() < config_.inbox_limit) {
        inboxes_[h].push_back(std::move(d));
      }
    });
  }
}

Network::~Network() = default;

void Network::Boot() {
  for (auto& ap : autopilots_) {
    ap->Boot();
  }
  if (config_.start_drivers) {
    for (auto& driver : drivers_) {
      driver->Start();
    }
  }
}

bool Network::ControlPlaneIdle() const {
  for (int i = 0; i < num_switches(); ++i) {
    if (!alive_[i]) {
      continue;
    }
    const Autopilot& ap = *autopilots_[i];
    if (ap.reconfig_in_progress() ||
        autopilots_[i]->engine().outstanding_count() > 0) {
      return false;
    }
  }
  return true;
}

Tick Network::LastControlActivity() const {
  Tick last = 0;
  for (int i = 0; i < num_switches(); ++i) {
    if (!alive_[i]) {
      continue;
    }
    last = std::max(last, autopilots_[i]->LastActivity());
  }
  return last;
}

bool Network::WaitForConvergence(Tick deadline, Tick quiet) {
  Tick step = std::max<Tick>(quiet / 4, kMillisecond);
  while (sim_.now() < deadline) {
    sim_.RunUntil(std::min(sim_.now() + step, deadline));
    if (ControlPlaneIdle() && sim_.now() - LastControlActivity() >= quiet) {
      return true;
    }
  }
  return false;
}

bool Network::WaitForConsistency(Tick deadline, Tick quiet) {
  while (sim_.now() < deadline) {
    if (!WaitForConvergence(std::min(sim_.now() + 5 * kSecond, deadline),
                            quiet)) {
      continue;
    }
    if (CheckConsistency().empty()) {
      return true;
    }
    // Quiescent but not yet consistent: a skeptic is still holding a
    // repaired link out of service.  Let time pass.
    sim_.RunUntil(std::min(sim_.now() + kSecond, deadline));
  }
  return CheckConsistency().empty();
}

NetTopology Network::HealthyTopology() const {
  NetTopology topo;
  std::vector<int> index(spec_.switches.size(), -1);
  for (std::size_t i = 0; i < spec_.switches.size(); ++i) {
    if (!alive_[i]) {
      continue;
    }
    index[i] = topo.size();
    SwitchDescriptor sw;
    sw.uid = spec_.switches[i].uid;
    topo.switches.push_back(std::move(sw));
  }
  for (std::size_t c = 0; c < spec_.cables.size(); ++c) {
    const TopoSpec::CableSpec& cs = spec_.cables[c];
    if (cable_cut_[c] || cs.sw_a == cs.sw_b || !alive_[cs.sw_a] ||
        !alive_[cs.sw_b] || cables_[c]->mode() != LinkMode::kNormal) {
      continue;
    }
    topo.switches[index[cs.sw_a]].links.push_back(
        {cs.port_a, index[cs.sw_b], cs.port_b});
    topo.switches[index[cs.sw_b]].links.push_back(
        {cs.port_b, index[cs.sw_a], cs.port_a});
  }
  for (std::size_t h = 0; h < spec_.hosts.size(); ++h) {
    const TopoSpec::HostSpec& hs = spec_.hosts[h];
    if (!host_link_cut_[h][0] && alive_[hs.primary_switch]) {
      topo.switches[index[hs.primary_switch]].host_ports.Set(hs.primary_port);
    }
    if (hs.alt_switch >= 0 && !host_link_cut_[h][1] && alive_[hs.alt_switch]) {
      topo.switches[index[hs.alt_switch]].host_ports.Set(hs.alt_port);
    }
  }
  return topo;
}

namespace {

// Canonical comparison of two topologies (switch sets, link sets), ignoring
// index order.
bool SameTopology(const NetTopology& a, const NetTopology& b,
                  std::string* why) {
  if (a.size() != b.size()) {
    *why = "switch counts differ: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  std::map<std::uint64_t, int> index_b;
  for (int i = 0; i < b.size(); ++i) {
    index_b[b.switches[i].uid.value()] = i;
  }
  for (int i = 0; i < a.size(); ++i) {
    auto it = index_b.find(a.switches[i].uid.value());
    if (it == index_b.end()) {
      *why = "switch " + a.switches[i].uid.ToString() + " missing";
      return false;
    }
    const SwitchDescriptor& sa = a.switches[i];
    const SwitchDescriptor& sb = b.switches[it->second];
    auto canon = [&](const NetTopology& t, const SwitchDescriptor& s) {
      std::vector<std::tuple<PortNum, std::uint64_t, PortNum>> links;
      for (const TopoLink& l : s.links) {
        links.emplace_back(l.local_port, t.switches[l.remote_switch].uid.value(),
                           l.remote_port);
      }
      std::sort(links.begin(), links.end());
      return links;
    };
    if (canon(a, sa) != canon(b, sb)) {
      *why = "links differ at " + sa.uid.ToString();
      return false;
    }
  }
  return true;
}

// Component id of every switch of `topo`, counting up from 0 in DFS
// discovery order.  The one partition of the healthy topology: both
// HealthyComponents() and CheckConsistency() read it.
std::vector<int> ComponentIds(const NetTopology& topo) {
  std::vector<int> component(topo.size(), -1);
  int next = 0;
  for (int start = 0; start < topo.size(); ++start) {
    if (component[start] >= 0) {
      continue;
    }
    int id = next++;
    std::vector<int> stack{start};
    component[start] = id;
    while (!stack.empty()) {
      int node = stack.back();
      stack.pop_back();
      for (const TopoLink& link : topo.switches[node].links) {
        if (component[link.remote_switch] < 0) {
          component[link.remote_switch] = id;
          stack.push_back(link.remote_switch);
        }
      }
    }
  }
  return component;
}

}  // namespace

std::vector<int> Network::HealthyComponents() const {
  // HealthyTopology() holds the alive switches in index order.
  std::vector<int> ids = ComponentIds(HealthyTopology());
  std::vector<int> component(num_switches(), -1);
  for (int s = 0, i = 0; s < num_switches(); ++s) {
    if (alive_[s]) {
      component[s] = ids[i++];
    }
  }
  return component;
}

int Network::HostAttachment(int host, PortNum* port) const {
  const TopoSpec::HostSpec& hs = spec_.hosts[host];
  bool primary = hosts_[host]->active_port() == 0;
  if (port != nullptr) {
    *port = primary ? hs.primary_port : hs.alt_port;
  }
  return primary ? hs.primary_switch : hs.alt_switch;
}

int Network::HostComponent(int host,
                           const std::vector<int>& components) const {
  int sw = HostAttachment(host);
  const Link* link = host_links_[host][hosts_[host]->active_port()].get();
  if (sw < 0 || !alive_[sw] || link->mode() != LinkMode::kNormal ||
      !drivers_[host]->HasAddress()) {
    return -1;
  }
  return components[sw];
}

std::string Network::CheckConsistency() {
  NetTopology expected = HealthyTopology();
  // Each connected component of the healthy topology converges as an
  // independent operational network (section 6.6: "the reconfiguration
  // process will configure physically separated partitions as disconnected
  // operational networks").  Check each component on its own.
  std::vector<int> component = ComponentIds(expected);
  int components = 0;
  for (int id : component) {
    components = std::max(components, id + 1);
  }
  std::vector<int> live;  // switch index of each expected switch
  for (int s = 0; s < num_switches(); ++s) {
    if (alive_[s]) {
      live.push_back(s);
    }
  }

  for (int comp = 0; comp < components; ++comp) {
    // Build the expected sub-topology for this component.
    NetTopology part;
    std::vector<int> members;  // expected index of each part switch
    std::vector<int> new_index(expected.size(), -1);
    for (int i = 0; i < expected.size(); ++i) {
      if (component[i] == comp) {
        new_index[i] = part.size();
        members.push_back(i);
        SwitchDescriptor sw = expected.switches[i];
        sw.links.clear();
        part.switches.push_back(std::move(sw));
      }
    }
    for (int i : members) {
      for (const TopoLink& link : expected.switches[i].links) {
        part.switches[new_index[i]].links.push_back(
            {link.local_port, new_index[link.remote_switch],
             link.remote_port});
      }
    }

    // Check the component's switches agree, and collect their tables.
    std::uint64_t epoch = 0;
    std::vector<ForwardingTable> tables;
    for (int i = 0; i < part.size(); ++i) {
      int s = live[members[i]];
      const Autopilot& ap = *autopilots_[s];
      if (!ap.topology().has_value()) {
        return switches_[s]->name() + " has no configuration";
      }
      if (i == 0) {
        epoch = ap.epoch();
      } else if (ap.epoch() != epoch) {
        return switches_[s]->name() + " epoch mismatch";
      }
      std::string why;
      if (!SameTopology(*ap.topology(), part, &why)) {
        return switches_[s]->name() + " topology mismatch: " + why;
      }
      if (ap.switch_num() == 0) {
        return switches_[s]->name() + " has no switch number";
      }
      part.switches[i].assigned_num = ap.switch_num();
      tables.push_back(switches_[s]->forwarding_table());
    }

    // Verify the loaded tables as a set: deliverability, loop freedom,
    // broadcast exactness, and deadlock freedom.
    VerifyResult routes = VerifyRoutes(part, tables);
    if (!routes.ok) {
      return "route verification failed: " + routes.error;
    }
    DependencyCheck deps = CheckChannelDependencies(part, tables);
    if (!deps.acyclic) {
      return "channel dependency cycle in loaded tables";
    }
  }
  return "";
}

bool Network::WaitForHostsRegistered(Tick deadline) {
  while (sim_.now() < deadline) {
    bool all = true;
    for (int h = 0; h < num_hosts(); ++h) {
      int sw = HostAttachment(h);
      if (sw >= 0 && alive_[sw] && !drivers_[h]->HasAddress()) {
        all = false;
        break;
      }
    }
    if (all) {
      return true;
    }
    sim_.RunUntil(sim_.now() + 50 * kMillisecond);
  }
  return false;
}

// --- fault injection ---

void Network::RefreshLinkMode(int cable) {
  const TopoSpec::CableSpec& cs = spec_.cables[cable];
  bool dead = cable_cut_[cable] || !alive_[cs.sw_a] || !alive_[cs.sw_b];
  cables_[cable]->SetMode(dead ? LinkMode::kCut : LinkMode::kNormal);
}

void Network::RefreshHostLinkMode(int host, int which) {
  Link* link = host_links_[host][which].get();
  if (link == nullptr) {
    return;
  }
  const TopoSpec::HostSpec& hs = spec_.hosts[host];
  int sw = which == 0 ? hs.primary_switch : hs.alt_switch;
  bool dead = host_link_cut_[host][which] || !alive_[sw];
  link->SetMode(dead ? LinkMode::kCut : LinkMode::kNormal);
}

void Network::RefreshSwitchLinks(int sw) {
  for (std::size_t c = 0; c < spec_.cables.size(); ++c) {
    if (spec_.cables[c].sw_a == sw || spec_.cables[c].sw_b == sw) {
      RefreshLinkMode(static_cast<int>(c));
    }
  }
  for (std::size_t h = 0; h < spec_.hosts.size(); ++h) {
    const TopoSpec::HostSpec& hs = spec_.hosts[h];
    if (hs.primary_switch == sw) {
      RefreshHostLinkMode(static_cast<int>(h), 0);
    }
    if (hs.alt_switch == sw) {
      RefreshHostLinkMode(static_cast<int>(h), 1);
    }
  }
}

void Network::CutCable(int cable) {
  ++fault_generation_;
  cable_cut_[cable] = true;
  RefreshLinkMode(cable);
}

void Network::RestoreCable(int cable) {
  ++fault_generation_;
  cable_cut_[cable] = false;
  RefreshLinkMode(cable);
}

void Network::SetCableReflecting(int cable, Link::Side powered_side) {
  ++fault_generation_;
  cable_cut_[cable] = true;  // treated as faulty until restored
  cables_[cable]->SetMode(powered_side == Link::Side::kA ? LinkMode::kReflectA
                                                         : LinkMode::kReflectB);
}

void Network::SetCableCorruptionRate(int cable, double per_byte_probability) {
  ++fault_generation_;
  cable_corruption_[cable] = per_byte_probability;
  cables_[cable]->SetCorruptionRate(per_byte_probability);
}

void Network::CutHostLink(int host, int which) {
  ++fault_generation_;
  host_link_cut_[host][which] = true;
  RefreshHostLinkMode(host, which);
}

void Network::RestoreHostLink(int host, int which) {
  ++fault_generation_;
  host_link_cut_[host][which] = false;
  RefreshHostLinkMode(host, which);
}

void Network::CrashSwitch(int i) {
  if (!alive_[i]) {
    return;
  }
  ++fault_generation_;
  alive_[i] = false;
  autopilots_[i]->Shutdown();
  // Power-off destroys all packets in the switch and silences its links.
  switches_[i]->LoadForwardingTable(ForwardingTable());
  RefreshSwitchLinks(i);
}

void Network::RestartSwitch(int i) {
  if (alive_[i]) {
    return;
  }
  ++fault_generation_;
  alive_[i] = true;
  // Fresh boot from ROM: a brand-new control program instance.
  auto fresh = std::make_unique<Autopilot>(switches_[i].get(),
                                           config_.autopilot);
  fresh->Boot();
  std::swap(autopilots_[i], fresh);
  // `fresh` now holds the old, powered-off instance; destroying it is safe
  // because its scheduled work is guarded.
  RefreshSwitchLinks(i);
}

// --- traffic ---

std::optional<Packet> Network::DataPacket(int src_host, int dst_host,
                                          std::size_t data_bytes,
                                          std::uint16_t ether_type) const {
  const AutonetDriver& src = *drivers_[src_host];
  const AutonetDriver& dst = *drivers_[dst_host];
  if (!src.HasAddress() || !dst.HasAddress()) {
    return std::nullopt;
  }
  Packet p;
  p.dest = dst.short_address();
  p.type = PacketType::kEthernetEncap;
  p.src_uid = hosts_[src_host]->uid();
  p.dest_uid = hosts_[dst_host]->uid();
  p.ether_type = ether_type;
  p.payload.assign(data_bytes, 0xD5);
  p.created_at = sim_.now();
  return p;
}

bool Network::SendData(int src_host, int dst_host, std::size_t data_bytes,
                       std::uint16_t ether_type) {
  std::optional<Packet> p =
      DataPacket(src_host, dst_host, data_bytes, ether_type);
  return p && drivers_[src_host]->Send(std::move(*p));
}

bool Network::SendTagged(int src_host, int dst_host, std::size_t data_bytes,
                         std::uint16_t ether_type, std::uint64_t tag) {
  std::optional<Packet> p = DataPacket(
      src_host, dst_host, std::max<std::size_t>(data_bytes, 8), ether_type);
  if (!p) {
    return false;
  }
  std::vector<std::uint8_t> head = Encode(DataTag{tag});
  std::copy(head.begin(), head.end(), p->payload.begin());
  return drivers_[src_host]->Send(std::move(*p));
}

void Network::ClearInboxes() {
  for (auto& inbox : inboxes_) {
    inbox.clear();
  }
}

Network::ReconfigTiming Network::LastReconfig() const {
  ReconfigTiming timing;
  for (int i = 0; i < num_switches(); ++i) {
    if (!alive_[i]) {
      continue;
    }
    timing.epoch = std::max(timing.epoch, autopilots_[i]->epoch());
  }
  for (int i = 0; i < num_switches(); ++i) {
    if (!alive_[i] || autopilots_[i]->epoch() != timing.epoch) {
      continue;
    }
    const auto& e = autopilots_[i]->engine().stats();
    if (e.last_join_time >= 0 &&
        (timing.start < 0 || e.last_join_time < timing.start)) {
      timing.start = e.last_join_time;
    }
    Tick loaded = autopilots_[i]->stats().last_table_load;
    if (loaded >= 0 && loaded > timing.end) {
      timing.end = loaded;
    }
  }
  return timing;
}

std::vector<LogEntry> Network::MergedLog() const {
  std::vector<const EventLog*> logs;
  for (const auto& sw : switches_) {
    logs.push_back(&sw->log());
  }
  for (const auto& host : hosts_) {
    logs.push_back(&host->log());
  }
  return EventLog::Merge(logs);
}

std::string Network::DumpMetricsJson(const std::string& prefix) const {
  return sim_.metrics().SnapshotJson(prefix);
}

}  // namespace autonet
