#include "src/link/link.h"

#include "src/link/slots.h"

namespace autonet {

const char* FlowDirectiveName(FlowDirective d) {
  switch (d) {
    case FlowDirective::kNone:
      return "none";
    case FlowDirective::kStart:
      return "start";
    case FlowDirective::kStop:
      return "stop";
    case FlowDirective::kHost:
      return "host";
    case FlowDirective::kIdhy:
      return "idhy";
    case FlowDirective::kPanic:
      return "panic";
  }
  return "?";
}

Link::Link(Simulator* sim, double length_km, std::uint64_t corruption_seed)
    : sim_(sim),
      length_km_(length_km),
      propagation_delay_(PropagationDelayNs(length_km)),
      corruption_rng_(corruption_seed) {
  sim_->AddOffQueueWork(this);
  const std::uint32_t owner = sim_->NewOwner();
  for (Side from : {Side::kA, Side::kB}) {
    for (Side to : {Side::kA, Side::kB}) {
      int index = ChannelIndex(from, to);
      Tick delay = (from == to ? 2 : 1) * propagation_delay_;
      channels_[index].order = Simulator::ArrivalOrder(
          delay, 4 * owner + static_cast<std::uint32_t>(index));
    }
  }
}

Link::~Link() {
  CutRuns();
  sim_->RemoveOffQueueWork(this);
  // Channel trains and directive deliveries capture `this`.
  for (Channel& ch : channels_) {
    sim_->Cancel(ch.train);
  }
  for (TxState& tx : tx_) {
    sim_->Cancel(tx.pending_directive);
  }
}

void Link::Attach(Side side, LinkEndpoint* endpoint) {
  CutRuns();
  endpoints_[static_cast<int>(side)] = endpoint;
  NotifyCarrier();
  RedeliverDirectives();
}

void Link::Detach(Side side) {
  CutRuns();
  endpoints_[static_cast<int>(side)] = nullptr;
  NotifyCarrier();
}

bool Link::CarrierAt(Side rx_side) const {
  switch (mode_) {
    case LinkMode::kNormal:
      return EndpointAt(Other(rx_side)) != nullptr;
    case LinkMode::kCut:
      return false;
    case LinkMode::kReflectA:
      return rx_side == Side::kA && EndpointAt(Side::kA) != nullptr;
    case LinkMode::kReflectB:
      return rx_side == Side::kB && EndpointAt(Side::kB) != nullptr;
  }
  return false;
}

void Link::AnchorTrain(int index, const Flit& flit) {
  Channel& ch = channels_[index];
  if (ch.train.valid()) {
    return;
  }
  ch.train = sim_->ScheduleTrainRawAt(
      flit.arrive, ch.order,
      [](void* self, std::uint64_t index) {
        return static_cast<Link*>(self)->DeliverStep(static_cast<int>(index));
      },
      this, static_cast<std::uint64_t>(index));
}

void Link::Apply(Channel& ch, const Flit& f) {
  switch (f.kind) {
    case Flit::Kind::kBegin:
      f.ep->OnPacketBegin(ch.begin_packets.pop_front());
      break;
    case Flit::Kind::kByte:
    case Flit::Kind::kDeferredByte:
      f.ep->OnDataBytes(f.offset, 1, f.corrupt ? 1 : 0);
      break;
    case Flit::Kind::kEnd:
      f.ep->OnPacketEnd(f.flags);
      break;
  }
}

// One train firing at the channel's first undeferred flit: deliver every
// flit that lands by this tick, deferred bytes ahead of it included (they
// all share this firing's position or precede it), then re-anchor the
// train at the next undeferred flit — or end it if none is left.  Each
// flit is popped before its callback runs, so an endpoint reacting by
// transmitting (which appends to some channel) sees consistent state.
Simulator::TrainStep Link::DeliverStep(int index) {
  Channel& ch = channels_[index];
  Side to = static_cast<Side>(index & 1);
  if (index == ChannelIndex(to, to)) {
    // A reflected symbol reaches a receiver that may hold deferred bytes
    // from its cross channel; those due before it go first.
    Settle(to);
  }
  const Tick now = sim_->now();
  ch.firing = true;
  while (!ch.inflight.empty() && ch.inflight.front().arrive <= now) {
    if (ch.inflight.front().deferred()) {
      ApplyDeferred(ch, now);
    } else {
      Apply(ch, ch.inflight.pop_front());
    }
  }
  ch.firing = false;
  for (std::size_t i = 0; i < ch.inflight.size(); ++i) {
    const Flit& next = ch.inflight[i];
    if (!next.deferred()) {
      return Simulator::TrainStep::At(next.arrive, ch.order);
    }
  }
  ch.train = Simulator::EventId{};  // the next undeferred flit starts one
  return Simulator::TrainStep::Done();
}

// Deferred flits are all data bytes for the receiver holding the grant (a
// revoke turns every one back into a train flit), and begin and end flits
// are never deferred, so a run of them lies inside one packet.  The run is
// popped before the receiver's callback runs.
void Link::ApplyDeferred(Channel& ch, Tick limit) {
  while (ch.deferred != 0) {
    const Flit& head = ch.inflight.front();
    // An undeferred head is the train's anchor.
    if (!head.deferred() || head.arrive > limit) {
      return;
    }
    LinkEndpoint* ep = head.ep;
    std::uint32_t first = head.offset;
    std::uint32_t n = 1;
    std::uint32_t corrupt = head.corrupt ? 1 : 0;
    for (; n < ch.deferred; ++n) {
      const Flit& f = ch.inflight[n];
      if (!f.deferred() || f.offset != first + n || f.arrive > limit) {
        break;
      }
      corrupt += f.corrupt ? 1 : 0;
    }
    ch.inflight.drop_front(n);
    ch.deferred -= n;
    ep->OnDataBytes(first, n, corrupt);
  }
}

void Link::RevokeDeferral(Side rx) {
  int index = ChannelIndex(Other(rx), rx);
  Channel& ch = channels_[index];
  ch.horizon = std::numeric_limits<Tick>::max();
  ch.headroom = 0;
  ch.arrived = 0;
  ch.drain_count = 0;
  ApplyDeferred(ch, DueLimit(ch));
  if (ch.deferred == 0) {
    return;
  }
  // Every remaining flit is due after the dispatch position; hand them all
  // to the train.  If it is queued at a later undeferred flit, re-anchor it
  // at the head.
  bool queued = ch.inflight.size() != ch.deferred && !ch.firing;
  bool head_deferred = ch.inflight.front().deferred();
  for (std::size_t i = 0; i < ch.inflight.size(); ++i) {
    if (ch.inflight[i].deferred()) {
      ch.inflight[i].kind = Flit::Kind::kByte;
    }
  }
  ch.deferred = 0;
  if (queued && head_deferred) {
    sim_->Cancel(ch.train);
    ch.train = Simulator::EventId{};
  }
  if (!queued || head_deferred) {
    AnchorTrain(index, ch.inflight.front());
  }
}

void Link::Requeue() {
  CutRuns();
  RevokeDeferral(Side::kA);
  RevokeDeferral(Side::kB);
}

void Link::CutRuns() {
  for (RunHolder*& holder : run_holder_) {
    if (holder != nullptr) {
      RunHolder* cut = holder;
      holder = nullptr;
      cut->CutRun();
    }
  }
}

void Link::TransmitRun(Side from, std::uint32_t first_offset, std::uint32_t n,
                       std::int64_t first_slot, RunHolder* holder) {
  const Side rx = Other(from);
  run_holder_[static_cast<int>(from)] = holder;
  Flit flit{};
  flit.ep = EndpointAt(rx);
  flit.kind = Flit::Kind::kByte;
  std::int64_t slot = first_slot;
  for (std::uint32_t i = 0; i < n; ++i) {
    flit.arrive = SlotStart(slot) + propagation_delay_;
    flit.offset = first_offset + i;
    PushByte(ChannelIndex(from, rx), flit);
    slot = NextDataSlotIndex(slot);
  }
}

void Link::WithdrawTail(Side from, std::size_t n) {
  run_holder_[static_cast<int>(from)] = nullptr;
  Channel& ch = channels_[ChannelIndex(from, Other(from))];
  for (std::size_t i = 0; i < n; ++i) {
    if (ch.inflight.back().deferred()) {
      --ch.deferred;
    }
    ch.inflight.drop_back(1);
  }
  // The train waits at the first undeferred flit; if none is left, that
  // one was withdrawn.
  if (ch.inflight.size() == ch.deferred && ch.train.valid() && !ch.firing) {
    sim_->Cancel(ch.train);
    ch.train = Simulator::EventId{};
  }
}

std::size_t Link::InboundBytes(Side rx, Tick sent_before, Tick* arrivals,
                               std::size_t max) const {
  const Channel& ch = channels_[ChannelIndex(Other(rx), rx)];
  std::size_t n = 0;
  for (; n < max && n < ch.inflight.size(); ++n) {
    const Flit& f = ch.inflight[n];
    if ((f.kind != Flit::Kind::kByte && !f.deferred()) ||
        f.arrive - propagation_delay_ >= sent_before) {
      break;
    }
    arrivals[n] = f.arrive;
  }
  return n;
}

void Link::TransmitBegin(Side from, const PacketRef& packet) {
  tx_[static_cast<int>(from)].in_packet = true;
  Side rx;
  Tick delay;
  if (!DeliveryTarget(from, &rx, &delay)) {
    return;
  }
  LinkEndpoint* ep = EndpointAt(rx);
  if (ep == nullptr) {
    return;
  }
  Flit flit{};
  flit.arrive = sim_->now() + delay;
  flit.ep = ep;
  flit.kind = Flit::Kind::kBegin;
  int index = ChannelIndex(from, rx);
  channels_[index].begin_packets.push_back(packet);
  PushFlit(index, flit);
}

void Link::TransmitEnd(Side from, EndFlags flags) {
  tx_[static_cast<int>(from)].in_packet = false;
  Side rx;
  Tick delay;
  if (!DeliveryTarget(from, &rx, &delay)) {
    return;
  }
  LinkEndpoint* ep = EndpointAt(rx);
  if (ep == nullptr) {
    return;
  }
  Flit flit{};
  flit.arrive = sim_->now() + delay;
  flit.ep = ep;
  flit.kind = Flit::Kind::kEnd;
  flit.flags = flags;
  PushFlit(ChannelIndex(from, rx), flit);
}

// Out-of-line slow half of SetFlowDirective: the inline wrapper has already
// established that `directive` differs from the latched value.
void Link::SetFlowDirectiveChanged(Side from, FlowDirective directive) {
  TxState& tx = tx_[static_cast<int>(from)];
  tx.directive = directive;
  tx.directive_since = sim_->now();
  // A change that is still waiting for its flow slot is superseded: the
  // wire only ever carries the latest latched value, so delivering the
  // older one too would double-deliver (and could re-order).
  if (tx.pending_directive.valid()) {
    sim_->Cancel(tx.pending_directive);
    tx.pending_directive = Simulator::EventId{};
  }
  if (directive == FlowDirective::kNone) {
    // Absence of directives generates no event; the receiving side keeps
    // acting on the last directive it received (the design oversight noted
    // in section 6.2) and the status sampler observes the missing slots via
    // MissedDirectiveSlots().
    return;
  }
  ScheduleDirective(from, directive);
}

// Schedules delivery of `directive` in the next flow-control slot, replacing
// any still-undelivered previous scheduling for this side.
void Link::ScheduleDirective(Side from, FlowDirective directive) {
  Side rx;
  Tick delay;
  if (!DeliveryTarget(from, &rx, &delay)) {
    return;
  }
  LinkEndpoint* ep = EndpointAt(rx);
  if (ep == nullptr) {
    return;
  }
  TxState& tx = tx_[static_cast<int>(from)];
  if (tx.pending_directive.valid()) {
    sim_->Cancel(tx.pending_directive);
  }
  // The change is transmitted in the next flow-control slot.
  Tick when = NextFlowSlotAt(sim_->now()) + delay;
  tx.pending_directive =
      sim_->ScheduleAt(when, [this, from, ep, directive] {
        tx_[static_cast<int>(from)].pending_directive = Simulator::EventId{};
        ep->OnFlowDirective(directive);
      });
}

void Link::SetMode(LinkMode mode) {
  if (mode_ == mode) {
    return;
  }
  CutRuns();
  mode_ = mode;
  faulted_ = faulted_ || mode != LinkMode::kNormal;
  NotifyCarrier();
  RedeliverDirectives();
  // Any physical transition glitches the receivers that still hear a
  // carrier (e.g. a cable coming unterminated and starting to reflect).
  for (Side side : {Side::kA, Side::kB}) {
    if (CarrierAt(side)) {
      if (LinkEndpoint* ep = EndpointAt(side)) {
        ep->OnCodeViolation();
      }
    }
  }
}

// Directives are transmitted continuously in the real hardware, so a mode
// change or endpoint attachment makes the (unchanged) latched directive of
// the now-audible transmitter reach the receiver within one flow-slot
// period.  ScheduleDirective cancels any still-pending delivery for the
// side, so a redelivery racing an in-flight change cannot double-deliver.
void Link::RedeliverDirectives() {
  for (Side from : {Side::kA, Side::kB}) {
    const TxState& tx = tx_[static_cast<int>(from)];
    if (tx.directive == FlowDirective::kNone) {
      continue;
    }
    ScheduleDirective(from, tx.directive);
  }
}

void Link::NotifyCarrier() {
  for (Side side : {Side::kA, Side::kB}) {
    bool carrier = CarrierAt(side);
    bool& last = last_carrier_[static_cast<int>(side)];
    if (carrier != last) {
      last = carrier;
      if (LinkEndpoint* ep = EndpointAt(side)) {
        ep->OnCarrierChange(carrier);
      }
    }
  }
}

std::int64_t Link::MissedDirectiveSlots(Side rx_side, Tick since) const {
  // Who is the effective transmitter heard by rx_side?
  Side tx_side;
  switch (mode_) {
    case LinkMode::kNormal:
      tx_side = Other(rx_side);
      break;
    case LinkMode::kReflectA:
    case LinkMode::kReflectB:
      tx_side = rx_side;
      break;
    case LinkMode::kCut:
      return 0;  // silence, not sync: shows up as BadCode instead
  }
  if (!CarrierAt(rx_side)) {
    return 0;
  }
  const TxState& tx = tx_[static_cast<int>(tx_side)];
  if (tx.directive != FlowDirective::kNone) {
    return 0;
  }
  Tick from = since > tx.directive_since ? since : tx.directive_since;
  Tick period = kFlowSlotPeriod * kSlotNs;
  Tick now = sim_->now();
  if (now <= from) {
    return 0;
  }
  return now / period - from / period;
}

}  // namespace autonet
