#include "src/host/ethernet.h"

#include <algorithm>

namespace autonet {

EthernetSegment::EthernetSegment(Simulator* sim, double mbps)
    : sim_(sim), mbps_(mbps) {}

void EthernetSegment::DetachStation(EthernetStation* station) {
  stations_.erase(std::remove(stations_.begin(), stations_.end(), station),
                  stations_.end());
}

void EthernetSegment::Transmit(const EthernetStation* sender,
                               EthernetFrame frame) {
  queue_.push_back(Pending{sender, std::move(frame)});
  if (!busy_) {
    StartNext();
  }
}

void EthernetSegment::StartNext() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Pending pending = std::move(queue_.front());
  queue_.pop_front();
  // Serialization time at the segment's bit rate plus the 9.6 us interframe
  // gap of 10 Mbit/s Ethernet.
  double bits = static_cast<double>(pending.frame.WireSize()) * 8.0;
  Tick duration = static_cast<Tick>(bits / mbps_ * 1000.0) + 9600;
  sim_->ScheduleAfter(duration, [this, pending = std::move(pending)] {
    for (EthernetStation* station : stations_) {
      if (station != pending.sender) {
        station->Deliver(pending.frame);
      }
    }
    StartNext();
  });
}

EthernetStation::EthernetStation(EthernetSegment* segment, Uid uid,
                                 std::string name)
    : segment_(segment), uid_(uid), name_(std::move(name)) {
  segment_->AttachStation(this);
}

EthernetStation::~EthernetStation() { segment_->DetachStation(this); }

bool EthernetStation::Send(EthernetFrame frame) {
  frame.src_uid = uid_;
  return SendPreservingSource(std::move(frame));
}

bool EthernetStation::SendPreservingSource(EthernetFrame frame) {
  if (frame.data.size() > kMaxBridgedData) {
    return false;  // oversize for Ethernet
  }
  segment_->Transmit(this, std::move(frame));
  return true;
}

void EthernetStation::Deliver(const EthernetFrame& frame) {
  if (!promiscuous_ && !frame.IsBroadcast() && frame.dest_uid != uid_) {
    return;
  }
  if (handler_) {
    handler_(frame);
  }
}

}  // namespace autonet
