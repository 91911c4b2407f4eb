// The receive FIFO of a switch port (section 5.1): a 4096-slot buffer of
// 9-bit symbols holding data bytes and packet end marks.  Cut-through means
// a packet can be entering at the tail while leaving at the head; the FIFO
// therefore tracks per-packet byte counts instead of storing payload bytes
// (packet contents travel by reference; only *timing* and *occupancy* are
// byte-exact).
//
// Flow-control coupling: the owning link unit consults MoreThanHalfFull()
// to choose between start and stop directives (section 6.2).
#ifndef SRC_FABRIC_PORT_FIFO_H_
#define SRC_FABRIC_PORT_FIFO_H_

#include <cassert>
#include <cstdint>
#include <optional>

#include "src/common/ids.h"
#include "src/common/packet.h"
#include "src/common/ring.h"
#include "src/link/link.h"

namespace autonet {

class PortFifo {
 public:
  // The default 4096-byte capacity is what Autonet shipped with; 1024 is
  // enough for non-broadcast traffic at 2 km (section 6.2) and is what the
  // FIFO-sizing bench sweeps.
  explicit PortFifo(std::size_t capacity = 4096);

  struct PacketRecord {
    PacketRef packet;
    // The destination address as the router will capture it.  Normally the
    // packet's own destination; fault injection may override it to model a
    // corrupted address (section 6.6.4).
    ShortAddress capture_addr;
    std::uint32_t bytes_entered = 0;   // pushed so far
    std::uint32_t bytes_consumed = 0;  // popped so far
    bool end_in_fifo = false;
    bool corrupted = false;
    bool truncated = false;

    std::uint32_t bytes_buffered() const {
      return bytes_entered - bytes_consumed;
    }
  };

  // --- enqueue side (link unit receive path) ---
  void PushBegin(const PacketRef& packet);
  // Returns false (and records an overflow) if the FIFO is full; the byte is
  // lost and the incoming packet marked corrupted.  Inline: runs once per
  // payload byte on the forwarding hot path.
  bool PushByte() {
    assert(receiving_ && "byte outside packet");
    if (records_.empty()) {
      return false;
    }
    PacketRecord& record = records_.back();
    if (occupancy_ >= capacity_) {
      ++overflow_count_;
      record.corrupted = true;  // a lost byte destroys the packet
      return false;
    }
    ++record.bytes_entered;
    Account(+1);
    return true;
  }
  // Pushes n bytes at once; the caller has checked they fit (occupancy +
  // n <= capacity), so none overflows.
  void PushBytes(std::uint32_t n) {
    assert(receiving_ && !records_.empty() && occupancy_ + n <= capacity_);
    records_.back().bytes_entered += n;
    Account(static_cast<std::ptrdiff_t>(n));
  }
  void MarkIncomingCorrupt();
  void PushEnd(EndFlags flags);
  // Carrier vanished mid-packet: terminate the incoming packet as truncated.
  void AbortIncoming();
  bool receiving() const { return receiving_; }

  // --- head side (crossbar feed) ---
  bool HasHead() const { return !records_.empty(); }
  const PacketRecord& head() const { return records_.front(); }
  // The router can capture the address once the first two bytes of the head
  // packet are buffered (or the whole runt packet has arrived).
  bool HeadCaptureReady() const;
  // Pops one data byte of the head packet; returns its offset, or nullopt if
  // no byte is buffered.  Inline: runs once per payload byte on the
  // forwarding hot path.
  std::optional<std::uint32_t> PopByte() {
    if (records_.empty()) {
      return std::nullopt;
    }
    PacketRecord& record = records_.front();
    if (record.bytes_buffered() == 0) {
      return std::nullopt;
    }
    std::uint32_t offset = record.bytes_consumed++;
    Account(-1);
    return offset;
  }
  // True when the head packet has a data byte to pop.
  bool HeadByteReady() const {
    return !records_.empty() && records_.front().bytes_buffered() != 0;
  }
  // True when the head packet's end mark is next (all bytes consumed).
  bool HeadEndReady() const {
    if (records_.empty()) {
      return false;
    }
    const PacketRecord& record = records_.front();
    return record.end_in_fifo && record.bytes_buffered() == 0;
  }
  std::optional<EndFlags> TryPopEnd();

  // --- occupancy / statistics ---
  std::size_t occupancy() const { return occupancy_; }
  std::size_t capacity() const { return capacity_; }
  bool MoreThanHalfFull() const { return occupancy_ > capacity_ / 2; }
  std::size_t max_occupancy() const { return max_occupancy_; }
  std::uint64_t overflow_count() const { return overflow_count_; }
  bool empty() const { return records_.empty(); }

  void Clear();

 private:
  void Account(std::ptrdiff_t delta) {
    occupancy_ = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(occupancy_) + delta);
    if (occupancy_ > max_occupancy_) {
      max_occupancy_ = occupancy_;
    }
  }

  std::size_t capacity_;
  std::size_t occupancy_ = 0;  // buffered data bytes + end marks
  std::size_t max_occupancy_ = 0;
  std::uint64_t overflow_count_ = 0;
  bool receiving_ = false;  // a packet is currently arriving
  // Cut-through keeps this at one or two records, but its head and tail are
  // touched once per payload byte on the forwarding hot path.
  Ring<PacketRecord> records_;
};

}  // namespace autonet

#endif  // SRC_FABRIC_PORT_FIFO_H_
