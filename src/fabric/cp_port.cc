#include "src/fabric/cp_port.h"

#include "src/fabric/switch.h"

namespace autonet {

CpPort::CpPort(Switch* owner, std::size_t fifo_capacity)
    : Port(fifo_capacity), owner_(owner) {}

void CpPort::InjectPacket(const PacketRef& packet) {
  pending_.push_back(packet);
  TryStagePending();
}

void CpPort::TryStagePending() {
  while (!pending_.empty()) {
    const PacketRef& packet = pending_.front();
    std::size_t need = packet->WireSize() + 1;  // bytes + end mark
    if (fifo_.occupancy() + need > fifo_.capacity()) {
      return;  // wait until the crossbar drains the FIFO
    }
    fifo_.PushBegin(packet);
    fifo_.PushBytes(static_cast<std::uint32_t>(packet->WireSize()));
    fifo_.PushEnd(EndFlags{});
    pending_.pop_front();
    owner_->OnFifoActivity(kCpPort);
  }
}

void CpPort::Reset() {
  pending_.clear();
  fifo_.Clear();
  rx_packet_ = nullptr;
  rx_bytes_ = 0;
}

void CpPort::SendBegin(const PacketRef& packet) {
  rx_packet_ = packet;
  rx_bytes_ = 0;
}

void CpPort::SendByte(std::uint32_t offset) {
  (void)offset;
  ++rx_bytes_;
}

void CpPort::SendEnd(EndFlags flags) {
  if (rx_packet_ != nullptr && handler_) {
    Delivery delivery;
    delivery.packet = rx_packet_;
    delivery.corrupted = flags.corrupted;
    delivery.truncated =
        flags.truncated || rx_bytes_ != rx_packet_->WireSize();
    delivery.arrival_port = arrival_port_;
    delivery.delivered_at = owner_->now();
    handler_(std::move(delivery));
  }
  rx_packet_ = nullptr;
  rx_bytes_ = 0;
}

}  // namespace autonet
