#include "src/fabric/forwarder.h"

#include <algorithm>
#include <cassert>

#include "src/fabric/switch.h"
#include "src/link/slots.h"

namespace autonet {

Forwarder::Forwarder(Switch* owner, PortNum inport)
    : owner_(owner),
      inport_(inport),
      in_port_(&owner->port(inport)),
      pump_order_(Simulator::PumpOrder(owner->sim()->NewOwner())) {
  in_port_->set_reader(this);
  if (inport_ >= kFirstExternalPort) {
    in_unit_ = &owner_->link_unit(inport_);
  }
  owner_->sim()->AddOffQueueWork(this);
}

Forwarder::~Forwarder() {
  owner_->sim()->RemoveOffQueueWork(this);
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

void Forwarder::SchedulePump(Tick when) {
  if (pump_event_.valid() || !active_) {
    return;
  }
  // One train per streaming burst: each PumpStep re-anchors the single
  // queue entry at its next firing and ends the train when the forwarder
  // parks.
  if (when == 0) {
    when = NextDataSlotAfter(owner_->now());
  }
  pump_event_ = owner_->sim()->ScheduleTrainRawAt(
      when, pump_order_,
      [](void* self, std::uint64_t) {
        return static_cast<Forwarder*>(self)->PumpStep();
      },
      this, 0);
}

void Forwarder::OnThrottleChange() {
  CutRun();
  outputs_allow_ = OutputsAllowTransmit();
  if (active_ && !StalledByFlowControl()) {
    SchedulePump();
  }
}

Simulator::TrainStep Forwarder::PumpAgain(Tick next) {
  if (in_unit_ != nullptr) {
    in_unit_->GrantDeferral(next, run_slot_, run_left_);
  }
  return Simulator::TrainStep::At(next, pump_order_);
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

std::uint32_t Forwarder::CountPassedPops() const {
  const Simulator* sim = owner_->sim();
  const Tick now = sim->now();
  const std::int64_t ahead = FirstSlotAfter(now, sim->Passed(now, pump_order_));
  if (ahead <= run_slot_) {
    return 0;
  }
  return static_cast<std::uint32_t>(std::min<std::int64_t>(
      run_left_, DataSlotsBetween(run_slot_, ahead)));
}

void Forwarder::ApplyPassedPops() {
  PortFifo& fifo = in_port_->fifo();
  // A settle of the input link may be part way through landing the bytes.
  const std::uint32_t n =
      std::min(CountPassedPops(), fifo.HeadBytesBuffered());
  if (n == 0) {
    return;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    run_slot_ = NextDataSlotIndex(run_slot_);
  }
  run_left_ -= n;
  fifo.PopBytes(n);
  bytes_moved_ += n;
  if (in_unit_ != nullptr) {
    in_unit_->NoteBytesForwarded(n);
  }
  if (run_left_ == 0 && run_link_ != nullptr) {
    run_link_->ReleaseRun(run_side_);
  }
}

void Forwarder::CutRun() {
  if (run_left_ == 0) {
    return;
  }
  if (in_unit_ != nullptr) {
    in_unit_->Settle();  // lands the bytes the passed pops take
  }
  SettleRun();
  if (run_left_ == 0) {
    return;
  }
  const std::uint32_t left = run_left_;
  run_left_ = 0;
  if (run_link_ != nullptr) {
    run_link_->WithdrawTail(run_side_, left);
  } else {
    owner_->cp_port().WithdrawRun(left);
  }
  if (active_ && pump_event_.valid()) {
    owner_->sim()->Cancel(pump_event_);
    pump_event_ = {};
    SchedulePump(SlotStart(run_slot_));
  }
}

Tick Forwarder::CommitRun(std::uint32_t offset) {
  const Tick next = NextDataSlotAfter(owner_->now());
  if (!owner_->sim()->off_queue_allowed() ||
      !(in_unit_ != nullptr ? in_unit_->PopsAreQuiet()
                            : owner_->cp_port().StagingIdle())) {
    return next;
  }
  Link* out = nullptr;
  if (fast_out_ != nullptr) {
    out = fast_out_->link();
    if (out == nullptr || !out->CanCarryRun(fast_out_->side())) {
      return next;
    }
  } else if (outports_.Count() != 1 || !outports_.Test(kCpPort) ||
             in_unit_ == nullptr) {
    return next;
  }
  const PortFifo& fifo = in_port_->fifo();
  const std::uint32_t ready = fifo.HeadBytesBuffered();
  Tick landed[Link::kMaxRun];
  std::size_t inbound = 0;
  if (in_unit_ != nullptr && fifo.HeadArriving()) {
    inbound = in_unit_->link()->InboundBytes(in_unit_->side(), owner_->now(),
                                             landed, Link::kMaxRun);
  }
  // Pop n + 1 of the run happens in `slot`: from the FIFO while it lasts,
  // then the inbound bytes, each once it has landed.
  const std::int64_t first = next / kSlotNs;
  std::uint32_t n = 0;
  std::int64_t slot = first;
  while (n + 1 < Link::kMaxRun) {
    if (n >= ready &&
        (n - ready >= inbound || landed[n - ready] > SlotStart(slot))) {
      break;
    }
    ++n;
    slot = NextDataSlotIndex(slot);
  }
  if (n == 0) {
    return next;
  }
  run_link_ = out;
  run_slot_ = first;
  run_left_ = n;
  if (out != nullptr) {
    run_side_ = fast_out_->side();
    out->TransmitRun(run_side_, offset + 1, n, first, this);
  } else {
    owner_->cp_port().SendRun(n);
  }
  return SlotStart(slot);
}

Simulator::TrainStep Forwarder::PumpStep() {
  // Look at the input: apply the bytes that landed before this firing, in
  // one run, and the pops of the run that ends here.
  if (in_unit_ != nullptr) {
    in_unit_->Settle();
  }
  SettleRun();
  assert(run_left_ == 0);
  if (!active_) {
    return PumpStop();
  }
  if (StalledByFlowControl()) {
    return PumpStop();  // resume on OnThrottleChange
  }
  PortFifo& fifo = in_port_->fifo();
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
    return PumpAgain(NextDataSlotAfter(owner_->now()));
  }
  if (auto offset = fifo.PopByte()) {
    if (fast_out_ != nullptr) {
      fast_out_->SendByte(*offset);
    } else {
      outports_.ForEach([&](PortNum p) { owner_->port(p).SendByte(*offset); });
    }
    ++bytes_moved_;
    owner_->AfterFifoPop(inport_);
    return PumpAgain(CommitRun(*offset));
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
  CutRun();
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
