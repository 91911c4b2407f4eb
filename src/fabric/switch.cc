#include "src/fabric/switch.h"

#include <cassert>
#include <utility>

namespace autonet {
namespace {

constexpr std::size_t kCpFifoCapacity = 1 << 20;  // control-processor memory
// Receive pipeline + address capture time, from the second address byte
// reaching the FIFO head to the routing request.  Calibrated so the
// idle cut-through transit lands in the paper's 26..32 cycle window.
constexpr Tick kCaptureDelayNs = 1360;

}  // namespace

Switch::Switch(Simulator* sim, Uid uid, std::string name, Config config)
    : sim_(sim),
      uid_(uid),
      name_(std::move(name)),
      config_(config),
      log_(name_),
      emitter_(sim->flight().Ring(name_, uid), &log_, &sim->metrics()),
      sched_(sim, config.fcfs_scheduler) {
  const std::string prefix = "switch." + name_ + ".fabric.";
  obs::MetricRegistry& reg = sim_->metrics();
  m_packets_forwarded_ = reg.GetCounter(prefix + "packets_forwarded");
  m_packets_discarded_ = reg.GetCounter(prefix + "packets_discarded");
  m_bytes_forwarded_ = reg.GetCounter(prefix + "bytes_forwarded");
  m_table_loads_ = emitter_.counter(obs::FlightEventKind::kRouteInstall);
  m_resets_ = reg.GetCounter(prefix + "resets");
  sched_.SetMetrics(reg.GetCounter(prefix + "sched_grants"),
                    reg.GetCounter(prefix + "sched_blocked_cycles"));
  for (PortNum p = 0; p < kPortsPerSwitch; ++p) {
    m_fifo_hwm_[p] = reg.GetGauge(prefix + "port" + std::to_string(p) +
                                  ".fifo_hwm_bytes");
  }
  auto cp = std::make_unique<CpPort>(this, kCpFifoCapacity);
  cp_port_ = cp.get();
  ports_[kCpPort] = std::move(cp);
  for (PortNum p = kFirstExternalPort; p < kPortsPerSwitch; ++p) {
    ports_[p] = std::make_unique<LinkUnit>(this, p, config_.fifo_capacity);
  }
  for (PortNum p = 0; p < kPortsPerSwitch; ++p) {
    forwarders_[p] = std::make_unique<Forwarder>(this, p);
  }
  sched_.SetHooks([this] { return FreeOutputPorts(); },
                  [this](const SchedulerEngine::Request& request,
                         PortVector ports) { Grant(request, ports); });
}

Switch::Switch(Simulator* sim, Uid uid, std::string name)
    : Switch(sim, uid, std::move(name), Config()) {}

Switch::~Switch() {
  for (PortNum p = kFirstExternalPort; p < kPortsPerSwitch; ++p) {
    static_cast<LinkUnit*>(ports_[p].get())->DetachLink();
  }
}

void Switch::AttachLink(PortNum port, Link* link, Link::Side side) {
  link_unit(port).AttachLink(link, side);
}

void Switch::DetachLink(PortNum port) { link_unit(port).DetachLink(); }

void Switch::SetCpHandler(CpPort::DeliveryHandler handler) {
  cp_port_->SetDeliveryHandler(std::move(handler));
}

void Switch::CpSend(const PacketRef& packet) { cp_port_->InjectPacket(packet); }

PortStatus Switch::ReadAndClearStatus(PortNum port) {
  return link_unit(port).ReadAndClearStatus();
}

void Switch::SetPortForceIdhy(PortNum port, bool force) {
  link_unit(port).SetForceIdhy(force);
}

void Switch::SendPanic(PortNum port) { link_unit(port).SendPanicPulse(); }

void Switch::LoadForwardingTable(const ForwardingTable& table) {
  table_ = table;
  // The switch does not know the reconfiguration epoch; the post-mortem
  // reconstructor attributes the install to the latest epoch-join at or
  // before this time on the same ring.  a: 0 = one-hop bootstrap, 1 = full
  // (a table compare, so only while recording).
  emitter_.Emit({.time = sim_->now(),
                 .a = emitter_.armed() &&
                      !(table == ForwardingTable::OneHopOnly()),
                 .b = config_.reset_on_table_load,
                 .kind = obs::FlightEventKind::kRouteInstall});
  if (!config_.reset_on_table_load) {
    return;
  }
  // Loading the table resets the switch, destroying every packet in it
  // (section 7): abort all crossbar connections, flush all FIFOs, drop all
  // pending requests and staged control-processor packets.
  m_resets_->Increment();
  sched_.Clear();
  for (PortNum p = 0; p < kPortsPerSwitch; ++p) {
    StopInput(p);
  }
  cp_port_->Reset();
  for (PortNum p = kFirstExternalPort; p < kPortsPerSwitch; ++p) {
    ports_[p]->fifo().Clear();
    link_unit(p).UpdateOutgoingFlow();
  }
}

PortVector Switch::FreeOutputPorts() const {
  PortVector free;
  for (PortNum p = 0; p < kPortsPerSwitch; ++p) {
    if (!ports_[p]->tx_busy()) {
      free.Set(p);
    }
  }
  return free;
}

Switch::Stats Switch::stats() const {
  Stats s;
  s.packets_forwarded = m_packets_forwarded_->value();
  s.packets_discarded = m_packets_discarded_->value();
  s.bytes_forwarded = m_bytes_forwarded_->value();
  s.table_loads = m_table_loads_->value();
  s.resets = m_resets_->value();
  return s;
}

void Switch::OnXmitOkChange(PortNum p) {
  for (auto& fwd : forwarders_) {
    if (fwd->active() && fwd->outports().Test(p)) {
      fwd->OnThrottleChange();
    }
  }
}

void Switch::StopInput(PortNum p) {
  if (capture_event_[p].valid()) {
    sim_->Cancel(capture_event_[p]);
    capture_event_[p] = {};
  }
  // A port has a queued request or an active forwarder, never both.
  sched_.Remove(p);
  Forwarder& fwd = *forwarders_[p];
  if (fwd.active()) {
    fwd.Abort();
    fwd.outports().ForEach(
        [&](PortNum out) { ports_[out]->set_tx_busy(false); });
    sched_.Kick();
  }
  SetIdle(p);
}

void Switch::OnPortReceiveReset(PortNum p) {
  StopInput(p);
  MaybeCapture(p);
}

void Switch::MaybeCapture(PortNum p) {
  if (in_state_[p] != InState::kIdle || !ports_[p]->fifo().HeadCaptureReady()) {
    return;
  }
  in_state_[p] = InState::kCapturePending;
  capture_event_[p] = sim_->ScheduleAfter(kCaptureDelayNs, [this, p] {
    capture_event_[p] = {};
    DoCapture(p);
  });
  if (p >= kFirstExternalPort) {
    // Until the forwarder starts, a landing byte only fills the FIFO.
    link_unit(p).GrantUntilForwarding();
  }
}

void Switch::SetIdle(PortNum p) {
  in_state_[p] = InState::kIdle;
  if (p >= kFirstExternalPort) {
    // An idle port captures on its next packet's second byte.
    link_unit(p).RevokeDeferral();
  }
}

void Switch::DoCapture(PortNum p) {
  assert(in_state_[p] == InState::kCapturePending);
  PortFifo& fifo = ports_[p]->fifo();
  if (!fifo.HasHead()) {
    SetIdle(p);
    return;
  }
  ForwardingTable::Entry entry = table_.Lookup(p, fifo.head().capture_addr);
  if (entry.IsDiscard()) {
    // Drain and discard the packet.
    StartForwarder(p, PortVector(), false);
    return;
  }
  in_state_[p] = InState::kRequested;
  sched_.Enqueue(p, entry.ports, entry.broadcast);
}

void Switch::Grant(const SchedulerEngine::Request& request, PortVector ports) {
  assert(in_state_[request.inport] == InState::kRequested);
  StartForwarder(request.inport, ports, request.broadcast);
}

void Switch::StartForwarder(PortNum inport, PortVector outports,
                            bool broadcast) {
  in_state_[inport] = InState::kForwarding;
  outports.ForEach([&](PortNum p) { ports_[p]->set_tx_busy(true); });
  forwarders_[inport]->Start(outports, broadcast);
}

void Switch::OnForwarderDone(PortNum inport, bool discarded,
                             std::size_t bytes_moved) {
  forwarders_[inport]->outports().ForEach(
      [&](PortNum out) { ports_[out]->set_tx_busy(false); });
  in_state_[inport] = InState::kIdle;
  if (discarded) {
    m_packets_discarded_->Increment();
  } else {
    m_packets_forwarded_->Increment();
    m_bytes_forwarded_->Increment(bytes_moved);
  }
  sched_.Kick();
  sim_->ScheduleAfter(0, [this, inport] { MaybeCapture(inport); });
}

}  // namespace autonet
