// A minimal Ethernet substrate (the network Autonet replaced and bridges
// to, sections 5.5, 6.8.2): a 10 Mbit/s shared broadcast segment.  Every
// frame is serialized onto the single medium (aggregate bandwidth == link
// bandwidth — the limitation motivating Autonet) and heard by every
// station; stations filter by destination UID, except promiscuous ones
// (bridges observe all traffic to learn host locations).
#ifndef SRC_HOST_ETHERNET_H_
#define SRC_HOST_ETHERNET_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/packet.h"
#include "src/common/time.h"
#include "src/sim/simulator.h"

namespace autonet {

// The broadcast destination UID (all-ones 48-bit address).
inline constexpr std::uint64_t kEthernetBroadcastUid = Uid::kMask;

struct EthernetFrame {
  Uid dest_uid;
  Uid src_uid;
  std::uint16_t ether_type = 0;
  std::vector<std::uint8_t> data;  // up to 1500 bytes

  bool IsBroadcast() const { return dest_uid.value() == kEthernetBroadcastUid; }
  std::size_t WireSize() const { return 14 + data.size() + 4; }  // hdr + FCS
};

class EthernetStation;

class EthernetSegment {
 public:
  explicit EthernetSegment(Simulator* sim, double mbps = 10.0);

  Simulator* sim() { return sim_; }

  // Queues a frame for transmission; the segment serializes access (an
  // idealized CSMA/CD without collision loss).  The sending station does
  // not hear its own transmission.
  void Transmit(const EthernetStation* sender, EthernetFrame frame);

  std::size_t queue_depth() const { return queue_.size(); }

 private:
  friend class EthernetStation;
  void AttachStation(EthernetStation* station) {
    stations_.push_back(station);
  }
  void DetachStation(EthernetStation* station);
  void StartNext();

  struct Pending {
    const EthernetStation* sender;
    EthernetFrame frame;
  };

  Simulator* sim_;
  double mbps_;
  std::vector<EthernetStation*> stations_;
  std::deque<Pending> queue_;
  bool busy_ = false;
};

class EthernetStation {
 public:
  using ReceiveHandler = std::function<void(const EthernetFrame&)>;

  EthernetStation(EthernetSegment* segment, Uid uid, std::string name);
  ~EthernetStation();

  EthernetStation(const EthernetStation&) = delete;
  EthernetStation& operator=(const EthernetStation&) = delete;

  Uid uid() const { return uid_; }
  const std::string& name() const { return name_; }

  // Sends a frame, stamping this station's UID as the source.
  bool Send(EthernetFrame frame);
  // Sends a frame with its source fields untouched (transparent bridging).
  bool SendPreservingSource(EthernetFrame frame);

  // Frames addressed to this station's UID or to broadcast; a promiscuous
  // station (a bridge) receives everything.
  void SetReceiveHandler(ReceiveHandler handler) {
    handler_ = std::move(handler);
  }
  void SetPromiscuous(bool promiscuous) { promiscuous_ = promiscuous; }

 private:
  friend class EthernetSegment;
  void Deliver(const EthernetFrame& frame);

  EthernetSegment* segment_;
  Uid uid_;
  std::string name_;
  bool promiscuous_ = false;
  ReceiveHandler handler_;
};

}  // namespace autonet

#endif  // SRC_HOST_ETHERNET_H_
