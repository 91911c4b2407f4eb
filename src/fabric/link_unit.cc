#include "src/fabric/link_unit.h"

#include "src/fabric/switch.h"

namespace autonet {

LinkUnit::LinkUnit(Switch* owner, PortNum port_num, std::size_t fifo_capacity)
    : Port(fifo_capacity),
      owner_(owner),
      port_num_(port_num),
      fifo_hwm_(&owner->fifo_hwm_bytes(port_num)) {
  obs::MetricRegistry& reg = owner_->sim()->metrics();
  const std::string prefix = "switch." + owner_->name() + ".link.";
  m_flow_stops_ = reg.GetCounter(prefix + "flow_stops");
  m_stop_interval_ns_ = reg.GetHistogram(prefix + "stop_interval_ns");
}

void LinkUnit::AttachLink(Link* link, Link::Side side) {
  link_ = link;
  side_ = side;
  link_->Attach(side, this);
  status_.carrier = link_->CarrierAt(side_);
  UpdateOutgoingFlow();
}

void LinkUnit::DetachLink() {
  if (link_ != nullptr) {
    link_->RevokeDeferral(side_);
    link_->Detach(side_);
    link_ = nullptr;
  }
  status_.carrier = false;
}

PortStatus LinkUnit::ReadAndClearStatus() {
  Settle();
  PortStatus snapshot = status_;
  snapshot.is_host = last_rx_directive_ == FlowDirective::kHost;
  snapshot.xmit_ok = DirectiveAllowsTransmit(last_rx_directive_);
  snapshot.in_packet = tx_in_packet_;
  snapshot.carrier = link_ != nullptr && link_->CarrierAt(side_);
  snapshot.last_rx_directive = last_rx_directive_;
  snapshot.fifo_occupancy = fifo_.occupancy();
  if (link_ != nullptr) {
    // Flow slots that carried sync instead of a directive (alternate host
    // port attached) surface as BadSyntax, which is how the status sampler
    // recognises an alternate host port (section 6.5.3).
    std::int64_t missed =
        link_->MissedDirectiveSlots(side_, last_status_read_);
    snapshot.bad_syntax += static_cast<std::uint32_t>(
        missed > 0xFFFF ? 0xFFFF : missed);
  }
  last_status_read_ = link_ != nullptr ? link_->sim()->now() : last_status_read_;
  Simulator* sim = owner_->sim();
  sim->MixDataDigest(static_cast<std::uint64_t>(sim->now()));
  sim->MixDataDigest(owner_->uid().value() << 8 | port_num_);
  sim->MixDataDigest(snapshot.fifo_occupancy << 32 | snapshot.bad_code);
  sim->MixDataDigest(snapshot.bytes_forwarded);
  sim->MixDataDigest(std::uint64_t{snapshot.bad_syntax} << 32 |
                     snapshot.overflow);
  // Clear the accumulated counters; keep the currents.
  status_ = PortStatus{};
  status_.carrier = snapshot.carrier;
  return snapshot;
}

void LinkUnit::SetForceIdhy(bool force) {
  if (force_idhy_ == force) {
    return;
  }
  Settle();
  force_idhy_ = force;
  UpdateOutgoingFlow();
}

void LinkUnit::SendPanicPulse() {
  if (link_ == nullptr) {
    return;
  }
  link_->SetFlowDirective(side_, FlowDirective::kPanic);
  // Resume normal flow control after one flow-slot period.
  link_->sim()->ScheduleAfter(kFlowSlotPeriod * kSlotNs, [this] {
    Settle();
    UpdateOutgoingFlow();
  });
}

bool LinkUnit::CanTransmitNow() const {
  return DirectiveAllowsTransmit(last_rx_directive_);
}

void LinkUnit::SendBegin(const PacketRef& packet) {
  tx_in_packet_ = true;
  if (link_ != nullptr) {
    link_->TransmitBegin(side_, packet);
  }
}

void LinkUnit::SendEnd(EndFlags flags) {
  tx_in_packet_ = false;
  if (link_ != nullptr) {
    link_->TransmitEnd(side_, flags);
  }
}

void LinkUnit::OnPacketBegin(const PacketRef& packet) {
  if (fifo_.receiving()) {
    // begin inside a packet: improper framing.
    ++status_.bad_syntax;
    bool was_half = fifo_.MoreThanHalfFull();
    fifo_.AbortIncoming();
    AfterPush(was_half);
  }
  fifo_.PushBegin(packet);
}

void LinkUnit::OnDataBytes(std::uint32_t first_offset, std::uint32_t n,
                           std::uint32_t corrupt_count) {
  (void)first_offset;
  if (!fifo_.receiving()) {
    status_.bad_syntax += n;  // data outside a packet
    return;
  }
  if (corrupt_count != 0) {
    status_.bad_code += corrupt_count;
    fifo_.MarkIncomingCorrupt();
  }
  if (fifo_.occupancy() + n <= QuietLimit()) {
    // No byte of the run can flip the directive, move the gauge or
    // overflow, and the switch only re-checks what n single pushes would
    // have left it to find: one push, one activity call.
    fifo_.PushBytes(n);
    owner_->OnFifoActivity(port_num_);
    return;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    bool was_half = fifo_.MoreThanHalfFull();
    if (!fifo_.PushByte()) {
      ++status_.overflow;
    }
    AfterPush(was_half);
    owner_->OnFifoActivity(port_num_);
  }
}

void LinkUnit::OnPacketEnd(EndFlags flags) {
  if (!fifo_.receiving()) {
    ++status_.bad_syntax;
    return;
  }
  bool was_half = fifo_.MoreThanHalfFull();
  fifo_.PushEnd(flags);
  AfterPush(was_half);
  owner_->OnFifoActivity(port_num_);
}

void LinkUnit::OnFlowDirective(FlowDirective directive) {
  Settle();
  switch (directive) {
    case FlowDirective::kStart:
    case FlowDirective::kHost:
      ++status_.start_seen;
      break;
    case FlowDirective::kIdhy:
      ++status_.idhy_seen;
      break;
    case FlowDirective::kPanic:
      ++status_.panic_seen;
      // Panic resets the link unit so reconfiguration packets get through.
      ResetReceiveSide();
      break;
    case FlowDirective::kStop:
    case FlowDirective::kNone:
      break;
  }
  bool could_transmit = DirectiveAllowsTransmit(last_rx_directive_);
  last_rx_directive_ = directive;
  if (DirectiveAllowsTransmit(directive) != could_transmit) {
    owner_->OnXmitOkChange(port_num_);
  }
}

void LinkUnit::OnCarrierChange(bool carrier_up) {
  // Losing the carrier may push an end mark no grant counted on.
  RevokeDeferral();
  status_.carrier = carrier_up;
  if (!carrier_up) {
    if (fifo_.receiving()) {
      ++status_.bad_syntax;  // packet truncated by loss of signal
      bool was_half = fifo_.MoreThanHalfFull();
      fifo_.AbortIncoming();
      AfterPush(was_half);
      owner_->OnFifoActivity(port_num_);
    }
    // Loss of signal shows up as code violations at the TAXI receiver.
    ++status_.bad_code;
  }
}

void LinkUnit::NoteDirectiveTransition(FlowDirective d) {
  Tick now = owner_->now();
  if (d == FlowDirective::kStop) {
    m_flow_stops_->Increment();
    stop_began_ = now;
  } else if (last_tx_directive_ == FlowDirective::kStop && stop_began_ >= 0) {
    m_stop_interval_ns_->Add(static_cast<double>(now - stop_began_));
    stop_began_ = -1;
  }
  last_tx_directive_ = d;
}

void LinkUnit::ResetReceiveSide() {
  fifo_.Clear();
  owner_->OnPortReceiveReset(port_num_);
  UpdateOutgoingFlow();
}

}  // namespace autonet
