#include "src/host/controller.h"

#include <algorithm>

#include "src/link/slots.h"

namespace autonet {

HostController::HostController(Simulator* sim, Uid uid, std::string name,
                               Config config)
    : sim_(sim),
      uid_(uid),
      name_(std::move(name)),
      config_(config),
      log_(name_),
      pump_order_(Simulator::PumpOrder(sim->NewOwner())) {
  ports_[0].Init(this, 0);
  ports_[1].Init(this, 1);
}

HostController::HostController(Simulator* sim, Uid uid, std::string name)
    : HostController(sim, uid, std::move(name), Config()) {}

HostController::~HostController() {
  DetachPort(0);
  DetachPort(1);
}

void HostController::AttachPort(int which, Link* link, Link::Side side) {
  NetPort& port = ports_[which];
  port.link = link;
  port.side = side;
  link->Attach(side, &port);
  port.carrier = link->CarrierAt(side);
  port.GrantDeferral();
  UpdatePortDirectives();
}

void HostController::DetachPort(int which) {
  NetPort& port = ports_[which];
  if (port.link != nullptr) {
    port.link->RevokeDeferral(port.side);
    port.link->Detach(port.side);
    port.link = nullptr;
  }
}

void HostController::SelectPort(int which) {
  if (active_ == which) {
    return;
  }
  CutRun();
  active_ = which;
  // Abandon any packet mid-transmission on the old port: it arrives
  // truncated and the destination discards it.
  if (tx_begun_) {
    NetPort& old_port = ports_[1 - which];
    if (old_port.link != nullptr) {
      old_port.link->TransmitEnd(old_port.side,
                                 EndFlags{.truncated = true, .corrupted = true});
    }
    tx_begun_ = false;
    tx_offset_ = 0;
  }
  UpdatePortDirectives();
  SchedulePump();
}

void HostController::UpdatePortDirectives() {
  for (int i = 0; i < 2; ++i) {
    NetPort& port = ports_[i];
    if (port.link == nullptr) {
      continue;
    }
    FlowDirective d;
    if (i == active_) {
      d = FlowDirective::kHost;  // hosts send host in place of start
    } else {
      d = config_.host_directive_on_alternate ? FlowDirective::kHost
                                              : FlowDirective::kNone;
    }
    port.link->SetFlowDirective(port.side, d);
  }
}

bool HostController::Send(const PacketRef& packet) {
  std::size_t size = packet->WireSize();
  if (tx_queued_bytes_ + size > config_.tx_buffer_bytes) {
    ++stats_.tx_rejected_full;
    return false;
  }
  tx_queue_.push_back(packet);
  tx_queued_bytes_ += size;
  SchedulePump();
  return true;
}

bool HostController::CanTransmitNow() const {
  const NetPort& port = ports_[active_];
  if (port.link == nullptr) {
    return false;
  }
  // Broadcast transmissions ignore stop once begun (section 6.6.6).
  if (tx_begun_ && tx_broadcast_) {
    return true;
  }
  return DirectiveAllowsTransmit(port.last_rx_directive);
}

void HostController::SchedulePump(Tick when) {
  if (pump_event_.valid() || tx_queue_.empty()) {
    return;
  }
  // One train per transmit burst: PumpStep re-anchors the single queue
  // entry at each next firing and ends it when the queue drains or flow
  // control stops us.
  if (when == 0) {
    when = NextDataSlotAfter(sim_->now());
  }
  pump_event_ = sim_->ScheduleTrainRawAt(
      when, pump_order_,
      [](void* self, std::uint64_t) {
        return static_cast<HostController*>(self)->PumpStep();
      },
      this, 0);
}

void HostController::OnThrottleChange() {
  CutRun();
  if (!tx_queue_.empty() && CanTransmitNow()) {
    SchedulePump();
  }
}

void HostController::CutRun() {
  if (run_left_ != 0) {
    // Skip the bytes in slots the dispatch position has passed: they went.
    const Tick now = sim_->now();
    const std::int64_t ahead =
        FirstSlotAfter(now, sim_->Passed(now, pump_order_));
    if (ahead > run_slot_) {
      const auto passed = static_cast<std::uint32_t>(std::min<std::int64_t>(
          run_left_, DataSlotsBetween(run_slot_, ahead)));
      run_left_ -= passed;
      run_slot_ = AdvanceDataSlots(run_slot_, passed);
    }
  }
  if (run_left_ == 0) {
    if (run_link_ != nullptr) {
      run_link_->ReleaseRun(run_side_);
      run_link_ = nullptr;
    }
    return;
  }
  const std::uint32_t left = run_left_;
  run_left_ = 0;
  run_link_->WithdrawTail(run_side_, left);
  run_link_ = nullptr;
  tx_offset_ -= left;
  if (pump_event_.valid()) {
    sim_->Cancel(pump_event_);
    pump_event_ = {};
    SchedulePump(SlotStart(run_slot_));
  }
}

Simulator::TrainStep HostController::PumpStep() {
  CutRun();  // every byte of a run is due: this only ends it
  if (tx_queue_.empty()) {
    pump_event_ = {};
    return Simulator::TrainStep::Done();
  }
  if (!CanTransmitNow()) {
    pump_event_ = {};
    return Simulator::TrainStep::Done();  // resume on flow-directive change
  }
  NetPort& port = ports_[active_];
  if (!tx_begun_) {
    const PacketRef& packet = tx_queue_.front();
    port.link->TransmitBegin(port.side, packet);
    tx_begun_ = true;
    tx_broadcast_ = packet->dest.IsBroadcast();
    tx_size_ = packet->WireSize();
    tx_offset_ = 0;
    return PumpAgain();
  }
  if (tx_offset_ < tx_size_) {
    port.link->TransmitByte(port.side, tx_offset_++);
    // The rest of the packet, as a run, when the cable can carry one.
    const Tick next = NextDataSlotAfter(sim_->now());
    std::uint32_t n = static_cast<std::uint32_t>(std::min<std::size_t>(
        tx_size_ - tx_offset_, Link::kMaxRun - 1));
    if (n == 0 || !port.link->CanCarryRun(port.side)) {
      return PumpAgain(next);
    }
    const std::int64_t first = next / kSlotNs;
    port.link->TransmitRun(port.side, tx_offset_, n, first, this);
    run_link_ = port.link;
    run_side_ = port.side;
    run_slot_ = first;
    run_left_ = n;
    tx_offset_ += n;
    return PumpAgain(SlotStart(AdvanceDataSlots(first, n)));
  }
  port.link->TransmitEnd(port.side, EndFlags{});
  ++stats_.packets_sent;
  tx_queued_bytes_ -= tx_size_;
  tx_queue_.pop_front();
  tx_begun_ = false;
  tx_offset_ = 0;
  if (tx_queue_.empty()) {
    pump_event_ = {};
    return Simulator::TrainStep::Done();
  }
  return PumpAgain();
}

Simulator::TrainStep HostController::PumpAgain(Tick next) {
  if (next == 0) {
    next = NextDataSlotAfter(sim_->now());
  }
  return Simulator::TrainStep::At(next, pump_order_);
}

bool HostController::link_error_on_active() const {
  const NetPort& port = ports_[active_];
  return port.link == nullptr || !port.carrier;
}

// --- receive path ---

void HostController::NetPort::OnPacketBegin(const PacketRef& packet) {
  GrantDeferral();
  rx_packet = packet;
  rx_bytes = 0;
  rx_corrupted = false;
}

void HostController::NetPort::OnDataBytes(std::uint32_t first_offset,
                                          std::uint32_t n,
                                          std::uint32_t corrupt_count) {
  (void)first_offset;
  if (corrupt_count != 0) {
    rx_corrupted = true;
  }
  rx_bytes += n;
}

void HostController::NetPort::OnPacketEnd(EndFlags flags) {
  if (index_ != owner_->active_) {
    // The alternate port's receiver is ignored by the host.
    rx_packet = nullptr;
    return;
  }
  owner_->FinishReceive(*this, flags);
}

void HostController::NetPort::OnFlowDirective(FlowDirective directive) {
  last_rx_directive = directive;
  if (index_ == owner_->active_) {
    owner_->OnThrottleChange();
  }
}

void HostController::NetPort::OnCarrierChange(bool carrier_up) {
  if (link != nullptr) {
    link->Settle(side);
  }
  carrier = carrier_up;
  if (!carrier_up) {
    rx_packet = nullptr;
  }
}

void HostController::FinishReceive(NetPort& port, EndFlags flags) {
  if (port.rx_packet == nullptr) {
    return;
  }
  Delivery delivery;
  delivery.packet = port.rx_packet;
  delivery.corrupted = flags.corrupted || port.rx_corrupted;
  delivery.truncated =
      flags.truncated || port.rx_bytes != port.rx_packet->WireSize();
  delivery.arrival_port = &port == &ports_[0] ? 0 : 1;
  delivery.delivered_at = sim_->now();
  port.rx_packet = nullptr;

  if (delivery.corrupted) {
    ++stats_.rx_crc_errors;
  }
  if (delivery.truncated) {
    ++stats_.rx_truncated;
  }

  std::size_t size = delivery.packet->WireSize();
  if (rx_queued_bytes_ + size > config_.rx_buffer_bytes) {
    ++stats_.rx_discarded_full;  // slow host: discard, never stop the net
    return;
  }
  rx_queue_.push_back(std::move(delivery));
  rx_queued_bytes_ += size;
  DrainRxQueue();
}

void HostController::DrainRxQueue() {
  if (rx_draining_ || rx_queue_.empty()) {
    return;
  }
  Delivery delivery = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  rx_queued_bytes_ -= delivery.packet->WireSize();

  Tick cost = config_.rx_process_ns_per_packet;
  if (cost == 0) {
    ++stats_.packets_received;
    if (handler_) {
      handler_(std::move(delivery));
    }
    if (!rx_queue_.empty()) {
      DrainRxQueue();
    }
    return;
  }
  rx_draining_ = true;
  sim_->ScheduleAfter(cost, [this, d = std::move(delivery)]() mutable {
    rx_draining_ = false;
    ++stats_.packets_received;
    if (handler_) {
      handler_(std::move(d));
    }
    DrainRxQueue();
  });
}

}  // namespace autonet
