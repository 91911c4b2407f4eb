#include "src/fabric/forwarder.h"

#include "src/fabric/switch.h"
#include "src/link/slots.h"

namespace autonet {

Forwarder::Forwarder(Switch* owner, PortNum inport)
    : owner_(owner), inport_(inport), in_port_(&owner->port(inport)) {
  if (inport_ >= kFirstExternalPort) {
    in_unit_ = &owner_->link_unit(inport_);
  }
}

Forwarder::~Forwarder() {
  if (pump_event_.valid()) {
    owner_->sim()->Cancel(pump_event_);
  }
}

void Forwarder::Start(PortVector outports, bool broadcast) {
  outports_ = outports;
  broadcast_ = broadcast;
  outputs_allow_ = OutputsAllowTransmit();
  fast_out_ = nullptr;
  if (outports_.Count() == 1 && outports_.Lowest() >= kFirstExternalPort) {
    fast_out_ = &owner_->link_unit(outports_.Lowest());
  }
  begun_ = false;
  bytes_moved_ = 0;
  active_ = true;
  SchedulePump();
}

bool Forwarder::OutputsAllowTransmit() const {
  bool ok = true;
  outports_.ForEach([&](PortNum p) {
    if (!owner_->port(p).CanTransmitNow()) {
      ok = false;
    }
  });
  return ok;
}

bool Forwarder::StalledByFlowControl() const {
  if (drain_only()) {
    return false;
  }
  if (!begun_) {
    // Transmission must begin under a start (or host) directive on every
    // chosen output port.
    return !outputs_allow_;
  }
  if (broadcast_ && owner_->config().broadcast_ignores_stop) {
    return false;  // section 6.6.6 fix: ignore stop until end of packet
  }
  return !outputs_allow_;
}

void Forwarder::SchedulePump() {
  if (pump_event_.valid() || !active_) {
    return;
  }
  // One train per streaming burst: each PumpStep re-anchors the single
  // queue entry at the next data slot and ends the train when the forwarder
  // parks.
  Tick when = NextDataSlotAfter(owner_->now());
  pump_event_ = owner_->sim()->ScheduleTrainRawAt(
      when, 0,
      [](void* self, std::uint64_t) {
        return static_cast<Forwarder*>(self)->PumpStep();
      },
      this, 0);
}

void Forwarder::OnThrottleChange() {
  outputs_allow_ = OutputsAllowTransmit();
  if (active_ && !StalledByFlowControl()) {
    SchedulePump();
  }
}

Simulator::TrainStep Forwarder::PumpAgain() {
  Tick next = NextDataSlotAfter(owner_->now());
  if (in_unit_ != nullptr) {
    in_unit_->GrantDeferral(next);
  }
  return Simulator::TrainStep::At(next);
}

Simulator::TrainStep Forwarder::PumpStop() {
  // The revoke applies the bytes that landed before this firing while the
  // train is still live, so their FIFO activity does not restart it.
  if (in_unit_ != nullptr) {
    in_unit_->RevokeDeferral();
  }
  pump_event_ = {};
  return Simulator::TrainStep::Done();
}

Simulator::TrainStep Forwarder::PumpStep() {
  if (!active_) {
    return PumpStop();
  }
  if (StalledByFlowControl()) {
    return PumpStop();  // resume on OnThrottleChange
  }
  PortFifo& fifo = in_port_->fifo();
  // Look at the input link — apply the bytes that landed before this
  // firing — only to decide begin, end or underflow, or when the head
  // packet has no applied byte left to pop.  Popping an applied byte
  // without looking is exact: under the grant the FIFO's true occupancy
  // stays at or below half full, so the directive recomputed after the pop
  // is start either way.
  if (in_unit_ != nullptr && !(begun_ && fifo.HeadByteReady())) {
    in_unit_->Settle();
  }
  if (!begun_) {
    // Transmit the begin command (one slot), then stream bytes.
    if (!fifo.HasHead()) {
      return PumpStop();  // reset raced us; owner cleans up
    }
    const PacketRef& packet = fifo.head().packet;
    if (outports_.Test(kCpPort)) {
      owner_->NoteCpArrivalPort(inport_);
    }
    outports_.ForEach(
        [&](PortNum p) { owner_->port(p).SendBegin(packet); });
    begun_ = true;
    return PumpAgain();
  }
  if (auto offset = fifo.PopByte()) {
    if (fast_out_ != nullptr) {
      fast_out_->SendByte(*offset);
    } else {
      outports_.ForEach([&](PortNum p) { owner_->port(p).SendByte(*offset); });
    }
    ++bytes_moved_;
    owner_->AfterFifoPop(inport_);
    return PumpAgain();
  }
  if (auto end = fifo.TryPopEnd()) {
    owner_->AfterFifoPop(inport_);
    pump_event_ = {};
    Finish(*end);
    return Simulator::TrainStep::Done();
  }
  // Mid-packet with nothing buffered: the upstream transmitter has been
  // stopped somewhere behind us.  The Underflow status condition.
  owner_->port(inport_).RecordUnderflow();
  // Resume when bytes arrive (OnFifoActivity).
  return PumpStop();
}

void Forwarder::Halt() {
  active_ = false;
  if (pump_event_.valid()) {
    owner_->sim()->Cancel(pump_event_);
    pump_event_ = {};
  }
  if (in_unit_ != nullptr) {
    in_unit_->RevokeDeferral();
  }
}

void Forwarder::Finish(EndFlags flags) {
  Halt();
  outports_.ForEach([&](PortNum p) { owner_->port(p).SendEnd(flags); });
  owner_->OnForwarderDone(inport_, drain_only(), bytes_moved_);
}

void Forwarder::Abort() {
  if (!active_) {
    return;
  }
  Halt();
  if (begun_) {
    // The packet loses its tail; downstream sees a truncated end.
    outports_.ForEach([&](PortNum p) {
      owner_->port(p).SendEnd(EndFlags{.truncated = true, .corrupted = true});
    });
  }
}

}  // namespace autonet
