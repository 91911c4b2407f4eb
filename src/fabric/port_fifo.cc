#include "src/fabric/port_fifo.h"

#include <utility>

namespace autonet {

PortFifo::PortFifo(std::size_t capacity) : capacity_(capacity) {}

void PortFifo::PushBegin(const PacketRef& packet) {
  PacketRecord record;
  record.packet = packet;
  record.capture_addr = packet->dest;
  records_.push_back(std::move(record));
  receiving_ = true;
  discarding_tail_ = false;
}

void PortFifo::MarkIncomingCorrupt() {
  if (!records_.empty() && receiving_) {
    records_.back().corrupted = true;
  }
}

void PortFifo::PushEnd(EndFlags flags) {
  receiving_ = false;
  if (records_.empty()) {
    return;
  }
  PacketRecord& record = records_.back();
  record.end_in_fifo = true;
  record.corrupted = record.corrupted || flags.corrupted;
  record.truncated = record.truncated || flags.truncated;
  Account(+1);  // the end mark occupies a FIFO slot
}

void PortFifo::AbortIncoming() {
  if (!receiving_) {
    return;
  }
  PushEnd(EndFlags{.truncated = true, .corrupted = true});
}

bool PortFifo::HeadCaptureReady() const {
  if (records_.empty()) {
    return false;
  }
  const PacketRecord& record = records_.front();
  if (record.bytes_consumed > 0) {
    return false;  // already being forwarded
  }
  return record.bytes_entered >= 2 || record.end_in_fifo;
}

std::optional<EndFlags> PortFifo::TryPopEnd() {
  if (!HeadEndReady()) {
    return std::nullopt;
  }
  PacketRecord record = records_.pop_front();
  Account(-1);
  return EndFlags{.truncated = record.truncated, .corrupted = record.corrupted};
}

void PortFifo::Clear() {
  records_.clear();
  occupancy_ = 0;
  discarding_tail_ = discarding_tail_ || receiving_;
  receiving_ = false;
}

}  // namespace autonet
