// LocalNet, the generic-LAN abstraction of host software (sections 3.11,
// 6.8): presents UID-addressed Ethernet datagrams to clients and hides
// whether an Autonet or an Ethernet carries them.  For Autonet transmission
// it supplies the short addresses using the UID cache and the learning/ARP
// algorithm of section 6.8.1; with StartForwarding() the host becomes an
// Autonet-to-Ethernet bridge (section 6.8.2).
#ifndef SRC_HOST_LOCALNET_H_
#define SRC_HOST_LOCALNET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/event_log.h"
#include "src/common/ids.h"
#include "src/common/packet.h"
#include "src/host/crypto.h"
#include "src/host/driver.h"
#include "src/host/ethernet.h"
#include "src/host/uid_cache.h"
#include "src/obs/metrics.h"
#include "src/sim/timer.h"

namespace autonet {

// A UID-addressed Ethernet datagram, the client-visible unit.
struct Datagram {
  Uid dest_uid;
  Uid src_uid;
  std::uint16_t ether_type = 0;
  std::vector<std::uint8_t> data;
  bool encrypted = false;   // Autonet-only capability (section 3.10)
  std::uint32_t key_id = 0; // which controller key encrypts/decrypts it
};

inline constexpr std::uint16_t kEtherTypeArp = 0x0806;

class LocalNet {
 public:
  struct Stats {
    std::uint64_t sent_unicast = 0;
    std::uint64_t sent_broadcast_addr = 0;  // fell back to broadcast address
    std::uint64_t arp_requests = 0;
    std::uint64_t arp_replies = 0;
    std::uint64_t received = 0;
    std::uint64_t forwarded_to_ethernet = 0;
    std::uint64_t forwarded_to_autonet = 0;
    std::uint64_t forward_refused = 0;  // encrypted or oversize
    std::uint64_t discarded_oversize_unknown = 0;
    std::uint64_t undecryptable = 0;    // encrypted with an unknown key
  };

  // Client receive callback: the datagram and the network it arrived on.
  using ReceiveHandler = std::function<void(NetworkId, const Datagram&)>;

  explicit LocalNet(Simulator* sim, Uid host_uid, std::string name);

  // Attach the physical networks (either or both).
  void AttachAutonet(AutonetDriver* driver);
  void AttachEthernet(EthernetStation* station);

  // Sends a UID-addressed datagram on the given network.
  bool Send(NetworkId net, Datagram datagram);

  void SetReceiveHandler(ReceiveHandler handler) {
    handler_ = std::move(handler);
  }

  // StartForwarding (Figure 4): act as an Autonet-to-Ethernet bridge.
  // Forwarding costs model the Firefly's two dedicated CPUs (one per
  // driver thread, section 6.8.2).
  struct BridgeConfig {
    Tick cpu_per_packet = 800 * kMicrosecond;  // CPU-bound small packets
    Tick bus_per_byte = 570;                   // 14 Mbit/s Q-bus
  };
  void StartForwarding();
  void StartForwarding(BridgeConfig config);
  bool forwarding() const { return forwarding_; }

  UidCache& cache() { return cache_; }
  // The controller's key table (section 3.10); both ends of an encrypted
  // conversation must install the same key under the same id.
  KeyTable& keys() { return keys_; }
  const Stats& stats() const { return stats_; }
  Uid uid() const { return uid_; }

 private:
  void OnAutonetDelivery(const Delivery& delivery);
  void OnEthernetFrame(const EthernetFrame& frame);
  bool TransmitOnAutonet(const Datagram& datagram, ShortAddress dest);
  void SendArpRequest(Uid target, ShortAddress to);
  void SendArpReply(Uid target_uid, NetworkId via);
  void HandleArp(NetworkId net, const Datagram& datagram);
  void ScheduleArpCheck(Uid uid);

  // Bridging.
  void BridgeToEthernet(const Datagram& datagram, bool encrypted);
  void BridgeToAutonet(const Datagram& datagram);
  void RunOnBridgeCpu(NetworkId direction, Tick cost,
                      std::function<void()> fn);

  Simulator* sim_;
  Uid uid_;
  std::string name_;
  EventLog log_;
  AutonetDriver* driver_ = nullptr;
  EthernetStation* station_ = nullptr;
  ReceiveHandler handler_;
  UidCache cache_;
  KeyTable keys_;
  std::uint64_t next_iv_ = 1;
  Stats stats_;

  bool forwarding_ = false;
  BridgeConfig bridge_config_;
  Tick bridge_busy_until_[2] = {0, 0};

  // UID-cache effectiveness (`host.<name>.uidcache.{hit,miss}` in the
  // simulator's registry): a miss is a send that had to fall back to the
  // broadcast short address because the destination UID was unknown.
  obs::Counter* m_cache_hit_;
  obs::Counter* m_cache_miss_;
};

// ARP body serialization (requests and replies carry the target UID; the
// Autonet header's source fields carry the binding being advertised).
struct ArpBody {
  enum class Op : std::uint8_t { kRequest = 1, kReply = 2 };
  Op op = Op::kRequest;
  Uid target_uid;

  template <class Io, class M>
  static void Walk(Io& io, M& m) {
    io.Enum(m.op, Op::kRequest, Op::kReply);
    io.Id(m.target_uid);
  }
  std::vector<std::uint8_t> Serialize() const;
  static std::optional<ArpBody> Parse(const std::vector<std::uint8_t>& data);
};

}  // namespace autonet

#endif  // SRC_HOST_LOCALNET_H_
