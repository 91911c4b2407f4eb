#include "src/autopilot/autopilot.h"

#include <algorithm>

#include "src/common/serialize.h"
#include "src/routing/spanning_tree.h"
#include "src/routing/updown.h"

namespace autonet {
namespace {

// Consecutive probe timeouts before a port's neighbor is declared gone.
constexpr int kProbeMissesToFail = 3;
// Consecutive stop-only or no-progress sampling intervals before a port
// is declared dead (removal of long-term blockages, section 6.5.3).
constexpr int kBlockedIntervalsToDead = 40;

}  // namespace

Autopilot::Autopilot(Switch* node, AutopilotConfig config)
    : node_(node),
      config_(config),
      engine_(this),
      sampler_task_(node->sim(), [this] { SampleStatus(); }),
      probe_task_(node->sim(), [this] { ProbePorts(); }),
      boot_trigger_(node->sim(), [this] { engine_.Trigger("boot"); }) {
  monitors_.reserve(kPortsPerSwitch);
  for (int p = 0; p < kPortsPerSwitch; ++p) {
    monitors_.emplace_back(config_);
  }
}

void Autopilot::Boot() {
  node_->SetCpHandler([this](Delivery d) { OnCpPacket(std::move(d)); });
  expected_table_ = ForwardingTable::OneHopOnly();
  node_->LoadForwardingTable(expected_table_);
  for (PortNum p = kFirstExternalPort; p < kPortsPerSwitch; ++p) {
    node_->SetPortForceIdhy(p, true);  // all ports start s.dead
    monitors_[p].clean_since = node_->now();
  }
  sampler_task_.Start(config_.status_sample_period);
  probe_task_.Start(config_.probe_period_unknown);
  boot_trigger_.Start(config_.boot_reconfig_delay);
  node_->log().Logf(node_->now(), "autopilot: booted");
}

bool Autopilot::Quiescent() const {
  return !engine_.in_progress() && cpu_queue_depth_ == 0;
}

Tick Autopilot::LastActivity() const {
  Tick last = 0;
  const ReconfigEngine::Stats& e = engine_.stats();
  last = std::max({last, e.last_join_time, e.last_config_time,
                   stats_.last_table_load});
  if (cpu_queue_depth_ > 0) {
    last = std::max(last, cpu_busy_until_);
  }
  for (const PortMonitor& m : monitors_) {
    last = std::max(last, m.state_since);
    // A good-reply streak in progress will transition the port once the
    // connectivity skeptic is satisfied; count it as pending activity.
    if (m.state == PortState::kSwitchWho && m.good_streak_start >= 0) {
      last = std::max(last, m.good_streak_start);
    }
  }
  return last;
}

void Autopilot::RunOnCpu(Tick cost, std::function<void()> fn) {
  if (!*powered_) {
    return;
  }
  Tick start = std::max(node_->now(), cpu_busy_until_);
  cpu_busy_until_ = start + cost;
  ++cpu_queue_depth_;
  node_->sim()->ScheduleAt(
      cpu_busy_until_, [this, guard = powered_, fn = std::move(fn)] {
        if (!*guard) {
          return;  // the control processor lost power meanwhile
        }
        --cpu_queue_depth_;
        fn();
      });
}

void Autopilot::Shutdown() {
  *powered_ = false;
  cpu_queue_depth_ = 0;
  sampler_task_.Stop();
  probe_task_.Stop();
  boot_trigger_.Stop();
  engine_.Shutdown();
  node_->SetCpHandler(nullptr);
  node_->log().Logf(node_->now(), "autopilot: power off");
}

void Autopilot::SendCpPacket(ShortAddress dest, ShortAddress src,
                             PacketType type,
                             std::vector<std::uint8_t> payload,
                             Tick* sent_at) {
  RunOnCpu(config_.cost_packet_send, [this, dest, src, type,
                                      payload = std::move(payload),
                                      sent_at]() mutable {
    if (sent_at != nullptr) {
      *sent_at = node_->now();
    }
    Packet p;
    p.dest = dest;
    p.src = src;
    p.type = type;
    p.payload = std::move(payload);
    node_->CpSend(MakePacket(std::move(p)));
  });
}

// --- packet dispatch ---

void Autopilot::OnCpPacket(Delivery delivery) {
  RunOnCpu(config_.cost_packet_process, [this, d = std::move(delivery)] {
    if (!d.intact()) {
      // Software CRC check failed: charge the arrival port (section 6.5.3:
      // the status sampler counts CRC errors on CP packets).
      ++stats_.crc_errors;
      if (d.arrival_port >= kFirstExternalPort &&
          d.arrival_port < kPortsPerSwitch) {
        ++monitors_[d.arrival_port].pending_crc_errors;
      }
      return;
    }
    switch (d.packet->type) {
      case PacketType::kReconfig:
        HandleReconfig(d);
        break;
      case PacketType::kConnectivity:
        HandleConnectivity(d);
        break;
      case PacketType::kHostAddress:
        HandleHostAddress(d);
        break;
      case PacketType::kSrp:
        HandleSrp(d);
        break;
      case PacketType::kEthernetEncap:
        break;  // broadcast client traffic reaching the CP: ignored
    }
  });
}

void Autopilot::HandleReconfig(const Delivery& d) {
  auto msg = ReconfigMsg::Parse(d.packet->payload);
  if (!msg.has_value() || d.arrival_port < kFirstExternalPort ||
      d.arrival_port >= kPortsPerSwitch) {
    return;
  }
  engine_.OnMessage(d.arrival_port, *msg);
}

void Autopilot::HandleConnectivity(const Delivery& d) {
  auto msg = ConnectivityMsg::Parse(d.packet->payload);
  if (!msg.has_value() || d.arrival_port < kFirstExternalPort ||
      d.arrival_port >= kPortsPerSwitch) {
    return;
  }
  if (msg->kind == ConnectivityMsg::Kind::kProbe) {
    // Reply one hop out the arrival port, echoing the probe.
    ConnectivityMsg reply;
    reply.kind = ConnectivityMsg::Kind::kReply;
    reply.seq = msg->seq;
    reply.sender_uid = node_->uid();
    reply.sender_port = static_cast<std::uint8_t>(d.arrival_port);
    reply.echo_uid = msg->sender_uid;
    reply.echo_port = msg->sender_port;
    reply.echo_seq = msg->seq;
    SendCpPacket(OneHopAddress(d.arrival_port), kAddrLocalCp,
                 PacketType::kConnectivity, reply.Serialize());
  } else {
    OnProbeReply(d.arrival_port, *msg);
  }
}

void Autopilot::HandleHostAddress(const Delivery& d) {
  auto msg = HostAddressMsg::Parse(d.packet->payload);
  if (!msg.has_value() || msg->kind != HostAddressMsg::Kind::kRequest) {
    return;
  }
  if (switch_num_ == 0 || d.arrival_port < kFirstExternalPort) {
    return;  // no configuration yet: the host will retry
  }
  HostAddressMsg reply;
  reply.kind = HostAddressMsg::Kind::kReply;
  reply.host_uid = msg->host_uid;
  reply.switch_uid = node_->uid();
  reply.short_address =
      ShortAddress::FromSwitchPort(switch_num_, d.arrival_port).value();
  reply.epoch = engine_.epoch();
  SendCpPacket(ShortAddress(reply.short_address),
               ShortAddress::FromSwitchPort(switch_num_, kCpPort),
               PacketType::kHostAddress, reply.Serialize());
}

void Autopilot::HandleSrp(const Delivery& d) {
  auto msg = SrpMsg::Parse(d.packet->payload);
  if (!msg.has_value() || d.arrival_port < kFirstExternalPort) {
    return;
  }
  msg->reverse_route.push_back(static_cast<std::uint8_t>(d.arrival_port));
  if (msg->position < msg->route.size()) {
    // Intermediate hop: forward along the source route.
    PortNum out = msg->route[msg->position];
    if (out < kFirstExternalPort || out >= kPortsPerSwitch) {
      return;
    }
    ++msg->position;
    SendCpPacket(OneHopAddress(out), kAddrLocalCp, PacketType::kSrp,
                 msg->Serialize());
    return;
  }
  if (msg->op == SrpMsg::Op::kReply) {
    return;  // a reply that ran out of route here: nothing to do
  }
  // Final hop: serve the request and send the reply back along the
  // recorded reverse path.
  SrpMsg reply;
  reply.request_id = msg->request_id;
  switch (msg->op) {
    case SrpMsg::Op::kEcho:
      reply.body = std::move(msg->body);
      break;
    case SrpMsg::Op::kGetState: {
      SrpState state;
      state.epoch = engine_.epoch();
      state.switch_num = switch_num_;
      state.uid = node_->uid();
      state.reconfig_in_progress = engine_.in_progress();
      for (PortNum p = kFirstExternalPort; p < kPortsPerSwitch; ++p) {
        state.port_states[p - kFirstExternalPort] =
            static_cast<std::uint8_t>(monitors_[p].state);
      }
      reply.body = Encode(state);
      break;
    }
    case SrpMsg::Op::kGetTopology: {
      SrpTopology topo;
      if (topology_.has_value()) {
        topo.records = TopologyToRecords(*topology_);
      }
      reply.body = Encode(topo);
      break;
    }
    case SrpMsg::Op::kGetLog: {
      std::string text;
      const auto& entries = node_->log().entries();
      std::size_t start = entries.size() > 16 ? entries.size() - 16 : 0;
      for (std::size_t i = start; i < entries.size(); ++i) {
        text += entries[i].message;
        text += '\n';
        if (text.size() > 900) {
          break;
        }
      }
      reply.body.assign(text.begin(), text.end());
      break;
    }
    case SrpMsg::Op::kGetStats: {
      // Serves this switch's slice of the metric registry: every instrument
      // under `switch.<name>.`, with that prefix stripped so the reply
      // carries only the local part.  The request body optionally holds a
      // substring filter.  The reply is capped near the GetLog limit so it
      // stays one packet: no entry is added once the entries so far take
      // more than 900 bytes.
      const std::string filter(msg->body.begin(), msg->body.end());
      const std::string prefix = "switch." + node_->name() + ".";
      SrpStats stats;
      ByteWriter taken;  // the entries so far, encoded, for the cap
      auto add = [&](SrpStat s) {
        if (taken.size() > 900 ||
            (!filter.empty() && s.name.find(filter) == std::string::npos)) {
          return;
        }
        SrpStat::Walk(taken, s);
        stats.entries.push_back(std::move(s));
      };
      node_->sim()->metrics().Visit(
          prefix, [&](const obs::MetricRegistry::Entry& e) {
            SrpStat s;
            s.kind = e.kind;
            s.name = e.name.substr(prefix.size());
            s.counter = e.counter.value();
            s.gauge = e.gauge.value();
            s.hist_count = e.histogram.count();
            s.hist_min = e.histogram.Min();
            s.hist_max = e.histogram.Max();
            s.hist_mean = e.histogram.Mean();
            add(std::move(s));
          });
      // Two synthetic counters expose the flight recorder's ring occupancy
      // and wrap-loss so an operator can tell from netmon alone whether a
      // post-mortem timeline is complete or the ring overwrote its tail.
      // They live outside the metric registry (the recorder is not a
      // metric), so they are appended here under the same filter and cap.
      const obs::FlightRing& ring = node_->emitter().ring();
      add({.name = "flight.depth", .counter = ring.depth()});
      add({.name = "flight.truncated", .counter = ring.truncated()});
      reply.body = Encode(stats);
      break;
    }
    case SrpMsg::Op::kReply:
      return;
  }
  reply.op = SrpMsg::Op::kReply;
  reply.route.assign(msg->reverse_route.rbegin(), msg->reverse_route.rend());
  reply.position = 1;  // the first reverse hop is taken by this send
  SendCpPacket(OneHopAddress(reply.route[0]), kAddrLocalCp, PacketType::kSrp,
               reply.Serialize());
}

// --- status sampler (section 6.5.3) ---

void Autopilot::SampleStatus() {
  for (PortNum p = kFirstExternalPort; p < kPortsPerSwitch; ++p) {
    if (!node_->link_unit(p).attached()) {
      continue;
    }
    PortStatus snap = node_->ReadAndClearStatus(p);
    snap.bad_code += monitors_[p].pending_crc_errors;
    monitors_[p].pending_crc_errors = 0;
    SamplePort(p, snap);
  }
  if (++scrub_stride_ >= kScrubSampleStride) {
    scrub_stride_ = 0;
    ScrubTable();
  }
}

// Periodic forwarding-table scrub: software never lets the switch's table
// diverge from the image the control program last loaded, so any mismatch
// is a memory fault in the table RAM and the image is simply reloaded.
// The comparison models the hardware's background parity sweep and costs
// no control-processor time; while the live table still shares the loaded
// image's buffer it is a pointer compare.  Only an actual repair consumes
// the usual table-load cost (and, on the prototype hardware, the reset that
// comes with it — cheaper than forwarding through a corrupt entry
// indefinitely).
void Autopilot::ScrubTable() {
  if (node_->forwarding_table() == expected_table_) {
    return;
  }
  if (m_table_scrub_repairs_ == nullptr) {
    // Lazily registered so clean runs add no instrument (keeps metric
    // snapshots — and the chaos fingerprints over them — byte-identical).
    m_table_scrub_repairs_ = node_->sim()->metrics().GetCounter(
        "switch." + node_->name() + ".autopilot.table_scrub_repairs");
  }
  m_table_scrub_repairs_->Increment();
  node_->log().Logf(node_->now(),
                    "table scrub: live table diverged from loaded image; "
                    "reloading");
  RunOnCpu(config_.cost_table_load, [this] { InstallTable(expected_table_); });
}

void Autopilot::SamplePort(PortNum p, const PortStatus& snap) {
  PortMonitor& m = monitors_[p];
  Tick now = node_->now();

  // Long-term blockage removal: intervals that saw only stop, and intervals
  // with data pending but no forwarding progress.
  if (m.state != PortState::kDead) {
    bool blocked = !snap.xmit_ok && snap.start_seen == 0 &&
                   snap.last_rx_directive == FlowDirective::kStop;
    m.blocked_intervals = blocked ? m.blocked_intervals + 1 : 0;
    bool stuck = snap.fifo_occupancy > 0 && snap.bytes_forwarded == 0;
    m.stuck_intervals = stuck ? m.stuck_intervals + 1 : 0;
    if (m.blocked_intervals >= kBlockedIntervalsToDead) {
      FailPort(p, "long-term stop blockage");
      return;
    }
    if (m.stuck_intervals >= kBlockedIntervalsToDead) {
      FailPort(p, "no forwarding progress");
      return;
    }
  }

  switch (m.state) {
    case PortState::kDead: {
      bool bad = !snap.carrier || snap.bad_code > 0;
      if (bad) {
        m.clean_since = now;
        break;
      }
      if (now - m.clean_since >= m.status_skeptic.RequiredHolddown(now)) {
        TransitionPort(p, PortState::kChecking, "clean holddown served");
      }
      break;
    }
    case PortState::kChecking: {
      if (!snap.carrier || snap.bad_code > 0) {
        FailPort(p, "errors while checking");
        break;
      }
      if (snap.idhy_seen > 0) {
        break;  // neighbor still distrusts the link
      }
      if (snap.is_host) {
        TransitionPort(p, PortState::kHost, "host directive received");
      } else if (snap.bad_syntax > 0) {
        // Constant BadSyntax with no other errors: an alternate host port
        // sending only sync.
        TransitionPort(p, PortState::kHost, "alternate host pattern");
      } else if (snap.xmit_ok) {
        TransitionPort(p, PortState::kSwitchWho, "switch flow control seen");
      }
      break;
    }
    case PortState::kHost: {
      if (!snap.carrier || snap.bad_code > 0) {
        FailPort(p, "host link errors");
        break;
      }
      if (!snap.is_host && snap.bad_syntax == 0 && snap.xmit_ok) {
        // Switch-style flow control with clean syntax contradicts s.host:
        // a genuine host interval carries a host directive (active host)
        // or constant BadSyntax (alternate port), never bare switch flow
        // control.  The state register is lying — most plausibly a memory
        // fault (see CorruptPortState) — so reclassify via s.dead.
        FailPort(p, "switch flow control on host port");
      }
      break;
    }
    case PortState::kSwitchWho:
    case PortState::kSwitchLoop:
    case PortState::kSwitchGood: {
      if (!snap.carrier || snap.bad_code > 0 || snap.bad_syntax > 0) {
        FailPort(p, "switch link errors");
        break;
      }
      if (snap.is_host) {
        // A host directive can never arrive over a switch-to-switch cable;
        // the state register disagrees with the wire evidence (a corrupted
        // register, or the cable was silently re-plugged into a host).
        // Reclassify via s.dead rather than keep routing over it.
        FailPort(p, "host directive on switch port");
      }
      break;
    }
  }
}

void Autopilot::TransitionPort(PortNum p, PortState next, const char* reason) {
  PortMonitor& m = monitors_[p];
  PortState prev = m.state;
  if (prev == next) {
    return;
  }
  // Capture the neighbor identity before the monitor state is cleared: the
  // reconfiguration engine needs it to describe the link delta.
  Uid neighbor_uid = m.neighbor_uid;
  PortNum neighbor_port = m.neighbor_port;

  m.state = next;
  m.state_since = node_->now();
  node_->emitter().Emit({.time = node_->now(),
                         .epoch = engine_.epoch(),
                         .origin = neighbor_uid,
                         .port = static_cast<std::int16_t>(p),
                         .kind = obs::FlightEventKind::kPortTransition,
                         .detail = reason,
                         .from = PortStateName(prev),
                         .to = PortStateName(next)});
  node_->SetPortForceIdhy(p, next == PortState::kDead);
  if (next == PortState::kDead || next == PortState::kChecking) {
    m.probe_outstanding = false;
    m.probe_misses = 0;
    m.good_streak_start = -1;
    m.neighbor_uid = Uid();
    m.neighbor_port = -1;
  }
  bool was_good = prev == PortState::kSwitchGood;
  bool is_good = next == PortState::kSwitchGood;
  if (was_good != is_good) {
    engine_.OnLinkStateChange(p, is_good, neighbor_uid, neighbor_port,
                              reason);
  }
  bool was_host = prev == PortState::kHost;
  bool is_host = next == PortState::kHost;
  if (was_host != is_host && !engine_.in_progress()) {
    PatchLocalTable(reason);
  }
}

void Autopilot::FailPort(PortNum p, const char* reason) {
  PortMonitor& m = monitors_[p];
  if (m.state == PortState::kDead) {
    return;
  }
  ++stats_.port_deaths;
  m.status_skeptic.Penalize(node_->now());
  node_->emitter().Emit({.time = node_->now(),
                         .epoch = engine_.epoch(),
                         .a = 0,  // status skeptic
                         .b = static_cast<std::uint64_t>(
                             m.status_skeptic.level()),
                         .port = static_cast<std::int16_t>(p),
                         .kind = obs::FlightEventKind::kSkepticTrip,
                         .detail = reason});
  m.clean_since = node_->now();
  m.blocked_intervals = 0;
  m.stuck_intervals = 0;
  TransitionPort(p, PortState::kDead, reason);
}

PortVector Autopilot::HostPorts() const {
  PortVector v;
  for (PortNum p = kFirstExternalPort; p < kPortsPerSwitch; ++p) {
    if (monitors_[p].state == PortState::kHost) {
      v.Set(p);
    }
  }
  return v;
}

std::vector<PortNum> Autopilot::GoodPorts() const {
  std::vector<PortNum> v;
  for (PortNum p = kFirstExternalPort; p < kPortsPerSwitch; ++p) {
    if (monitors_[p].state == PortState::kSwitchGood) {
      v.push_back(p);
    }
  }
  return v;
}

// --- connectivity monitor (section 6.5.4) ---

void Autopilot::ProbePorts() {
  Tick now = node_->now();
  for (PortNum p = kFirstExternalPort; p < kPortsPerSwitch; ++p) {
    PortMonitor& m = monitors_[p];
    if (m.state != PortState::kSwitchWho && m.state != PortState::kSwitchLoop &&
        m.state != PortState::kSwitchGood) {
      continue;
    }
    // Time out an outstanding probe.
    if (m.probe_outstanding && now - m.probe_sent_at >= config_.probe_timeout) {
      m.probe_outstanding = false;
      ++m.probe_misses;
      ++stats_.probe_timeouts;
      m.good_streak_start = -1;
      if (m.probe_misses >= kProbeMissesToFail) {
        m.probe_misses = 0;
        m.conn_skeptic.Penalize(now);
        node_->emitter().Emit({.time = now,
                               .epoch = engine_.epoch(),
                               .a = 1,  // connectivity skeptic
                               .b = static_cast<std::uint64_t>(
                                   m.conn_skeptic.level()),
                               .port = static_cast<std::int16_t>(p),
                               .kind = obs::FlightEventKind::kSkepticTrip,
                               .detail = "probe timeouts"});
        if (m.state == PortState::kSwitchGood) {
          TransitionPort(p, PortState::kSwitchWho, "probe timeouts");
        }
      }
    }
    Tick period = m.state == PortState::kSwitchGood
                      ? config_.probe_period_good
                      : config_.probe_period_unknown;
    if (!m.probe_outstanding &&
        (m.last_probe_at < 0 || now - m.last_probe_at >= period)) {
      SendProbe(p);
    }
  }
}

void Autopilot::SendProbe(PortNum p) {
  PortMonitor& m = monitors_[p];
  ConnectivityMsg probe;
  probe.kind = ConnectivityMsg::Kind::kProbe;
  probe.seq = ++m.probe_seq;
  probe.sender_uid = node_->uid();
  probe.sender_port = static_cast<std::uint8_t>(p);
  m.probe_outstanding = true;
  m.probe_sent_at = node_->now();
  m.last_probe_at = node_->now();
  ++stats_.probes_sent;
  // The timeout clock runs from the actual transmission, so a busy
  // control processor does not fabricate probe misses.
  SendCpPacket(OneHopAddress(p), kAddrLocalCp, PacketType::kConnectivity,
               probe.Serialize(), &m.probe_sent_at);
}

void Autopilot::OnProbeReply(PortNum p, const ConnectivityMsg& msg) {
  PortMonitor& m = monitors_[p];
  if (!m.probe_outstanding || msg.echo_seq != m.probe_seq ||
      msg.echo_uid != node_->uid() || msg.echo_port != p) {
    return;  // not the reply we are waiting for
  }
  m.probe_outstanding = false;
  m.probe_misses = 0;
  Tick now = node_->now();

  if (msg.sender_uid == node_->uid()) {
    // Our own probe came back: a looped cable or a reflecting link.
    if (m.state != PortState::kSwitchLoop) {
      TransitionPort(p, PortState::kSwitchLoop, "own uid echoed");
    }
    return;
  }

  Uid uid = msg.sender_uid;
  PortNum rport = msg.sender_port;
  switch (m.state) {
    case PortState::kSwitchGood:
      if (uid != m.neighbor_uid || rport != m.neighbor_port) {
        // The switch at the other end changed identity.
        m.neighbor_uid = uid;
        m.neighbor_port = rport;
        engine_.Trigger("neighbor identity changed");
      }
      break;
    case PortState::kSwitchWho:
    case PortState::kSwitchLoop: {
      if (m.state == PortState::kSwitchLoop) {
        TransitionPort(p, PortState::kSwitchWho, "loop cleared");
      }
      if (m.good_streak_start < 0 || uid != m.neighbor_uid ||
          rport != m.neighbor_port) {
        m.good_streak_start = now;
      }
      m.neighbor_uid = uid;
      m.neighbor_port = rport;
      if (now - m.good_streak_start >=
          m.conn_skeptic.RequiredHolddown(now)) {
        TransitionPort(p, PortState::kSwitchGood, "connectivity verified");
      }
      break;
    }
    default:
      break;
  }
}

// --- forwarding table management ---

void Autopilot::SendReconfig(PortNum p, const ReconfigMsg& msg) {
  SendCpPacket(OneHopAddress(p), kAddrLocalCp, PacketType::kReconfig,
               msg.Serialize());
}

void Autopilot::LoadOneHopTable() {
  RunOnCpu(config_.cost_table_load, [this] {
    expected_table_ = ForwardingTable::OneHopOnly();
    node_->LoadForwardingTable(expected_table_);
  });
}

void Autopilot::ApplyConfig(const NetTopology& topo, int self_index,
                            std::uint64_t epoch) {
  topology_ = topo;
  self_index_ = self_index;
  switch_num_ = topo.switches[self_index].assigned_num;
  node_->emitter().Emit({.time = node_->now(),
                         .epoch = epoch,
                         .a = static_cast<std::uint64_t>(topo.size()),
                         .kind = obs::FlightEventKind::kConfigCompute});
  RunOnCpu(config_.cost_table_compute, [this, epoch] {
    if (!topology_.has_value()) {
      return;
    }
    // Route from the freshest local view of host ports.
    topology_->switches[self_index_].host_ports = HostPorts();
    SpanningTree tree = ComputeSpanningTree(*topology_);
    ForwardingTable table =
        BuildForwardingTable(*topology_, tree, self_index_);
    RunOnCpu(config_.cost_table_load, [this, table = std::move(table), epoch] {
      InstallTable(table);
      node_->log().Logf(node_->now(),
                        "config applied: epoch %llu, switch number %u",
                        static_cast<unsigned long long>(epoch), switch_num_);
    });
  });
}

void Autopilot::PatchLocalTable(const char* reason) {
  if (!topology_.has_value() || engine_.in_progress()) {
    return;
  }
  node_->log().Logf(node_->now(), "local table patch (%s)", reason);
  // Host-port changes are purely local: rebuild this switch's table with
  // the updated host set; no network-wide reconfiguration (Figure 8).
  RunOnCpu(config_.cost_table_compute / 4, [this] {
    if (!topology_.has_value() || engine_.in_progress()) {
      return;
    }
    topology_->switches[self_index_].host_ports = HostPorts();
    SpanningTree tree = ComputeSpanningTree(*topology_);
    ForwardingTable table =
        BuildForwardingTable(*topology_, tree, self_index_);
    RunOnCpu(config_.cost_table_load, [this, table = std::move(table)] {
      if (engine_.in_progress()) {
        return;  // a reconfiguration superseded the patch
      }
      InstallTable(table);
    });
  });
}

void Autopilot::InstallTable(const ForwardingTable& table) {
  node_->LoadForwardingTable(table);
  expected_table_ = table;
  ++stats_.tables_loaded;
  stats_.last_table_load = node_->now();
}

}  // namespace autonet
