#include "src/host/localnet.h"

#include "src/common/serialize.h"

namespace autonet {

namespace {
constexpr Tick kArpFreshness = 2 * kSecond;  // section 6.8.1's two seconds
}  // namespace

std::vector<std::uint8_t> ArpBody::Serialize() const { return Encode(*this); }

std::optional<ArpBody> ArpBody::Parse(const std::vector<std::uint8_t>& data) {
  return Decode<ArpBody>(data);
}

LocalNet::LocalNet(Simulator* sim, Uid host_uid, std::string name)
    : sim_(sim), uid_(host_uid), name_(std::move(name)), log_(name_) {
  const std::string prefix = "host." + name_ + ".uidcache.";
  m_cache_hit_ = sim_->metrics().GetCounter(prefix + "hit");
  m_cache_miss_ = sim_->metrics().GetCounter(prefix + "miss");
}

void LocalNet::AttachAutonet(AutonetDriver* driver) {
  driver_ = driver;
  driver_->SetReceiveHandler(
      [this](Delivery d) { OnAutonetDelivery(d); });
  // When this host's short address changes, broadcast an ARP response so
  // other hosts update their caches immediately (section 6.8.1).
  driver_->SetAddressChangeHandler([this](ShortAddress) {
    SendArpReply(uid_, NetworkId::kAutonet);
  });
}

void LocalNet::AttachEthernet(EthernetStation* station) {
  station_ = station;
  station_->SetReceiveHandler(
      [this](const EthernetFrame& frame) { OnEthernetFrame(frame); });
}

// --- transmission (section 6.8.1's algorithm) ---

bool LocalNet::Send(NetworkId net, Datagram datagram) {
  datagram.src_uid = uid_;
  if (net == NetworkId::kEthernet) {
    if (station_ == nullptr || datagram.encrypted) {
      return false;  // encryption is an Autonet-only capability
    }
    EthernetFrame frame;
    frame.dest_uid = datagram.dest_uid;
    frame.ether_type = datagram.ether_type;
    frame.data = std::move(datagram.data);
    return station_->Send(std::move(frame));
  }

  if (driver_ == nullptr || !driver_->HasAddress()) {
    return false;
  }
  Tick now = sim_->now();
  if (datagram.dest_uid.value() == kEthernetBroadcastUid) {
    ++stats_.sent_broadcast_addr;
    return TransmitOnAutonet(datagram, kAddrBroadcastHosts);
  }

  UidCache::Entry& entry =
      cache_.FindOrCreate(datagram.dest_uid, kAddrBroadcastHosts, now);
  bool fresh = now - entry.updated_at <= kArpFreshness;
  ShortAddress dest = entry.short_address;
  (dest.IsBroadcast() ? m_cache_miss_ : m_cache_hit_)->Increment();

  if (dest.IsBroadcast() &&
      datagram.data.size() > kMaxBridgedData) {
    // Oversize packet with unknown destination: discard it and send an ARP
    // request in its place (section 6.8.1).
    ++stats_.discarded_oversize_unknown;
    SendArpRequest(datagram.dest_uid, kAddrBroadcastHosts);
    return false;
  }

  bool ok = TransmitOnAutonet(datagram, dest);
  if (dest.IsBroadcast()) {
    ++stats_.sent_broadcast_addr;
  } else {
    ++stats_.sent_unicast;
  }
  if (!fresh) {
    // Stale entry: confirm it (usually by directed ARP to the last known
    // address) and fall back to broadcast if no update follows.
    SendArpRequest(datagram.dest_uid, dest);
    ScheduleArpCheck(datagram.dest_uid);
  }
  return ok;
}

bool LocalNet::TransmitOnAutonet(const Datagram& datagram, ShortAddress dest) {
  Packet p;
  p.dest = dest;
  p.type = PacketType::kEthernetEncap;
  p.dest_uid = datagram.dest_uid;
  p.src_uid = uid_;
  p.ether_type = datagram.ether_type;
  p.payload = datagram.data;
  p.encrypted = datagram.encrypted;
  if (datagram.encrypted) {
    // The controller's encryption pipeline: keystream applied at wire
    // speed, no added latency (section 3.10).
    if (!keys_.Has(datagram.key_id)) {
      return false;  // no such key installed
    }
    p.key_id = datagram.key_id;
    p.crypto_iv = next_iv_++;
    PacketCipher::Apply(keys_.Get(p.key_id), p.crypto_iv, &p.payload);
  }
  p.created_at = sim_->now();
  return driver_->Send(std::move(p));
}

void LocalNet::SendArpRequest(Uid target, ShortAddress to) {
  ++stats_.arp_requests;
  Datagram arp;
  arp.dest_uid = Uid(kEthernetBroadcastUid);
  arp.ether_type = kEtherTypeArp;
  arp.data = ArpBody{ArpBody::Op::kRequest, target}.Serialize();
  TransmitOnAutonet(arp, to);
}

void LocalNet::SendArpReply(Uid advertised_uid, NetworkId via) {
  ++stats_.arp_replies;
  if (via == NetworkId::kAutonet && driver_ != nullptr &&
      driver_->HasAddress()) {
    // The reply's Autonet source fields carry the binding: (advertised UID,
    // this controller's short address).  A bridge impersonates hosts on its
    // other network this way (section 6.8.2).
    Packet p;
    p.dest = kAddrBroadcastHosts;
    p.type = PacketType::kEthernetEncap;
    p.dest_uid = Uid(kEthernetBroadcastUid);
    p.src_uid = advertised_uid;
    p.ether_type = kEtherTypeArp;
    p.payload = ArpBody{ArpBody::Op::kReply, advertised_uid}.Serialize();
    driver_->Send(std::move(p));
  }
}

void LocalNet::ScheduleArpCheck(Uid uid) {
  Tick used_at = sim_->now();
  sim_->ScheduleAfter(kArpFreshness, [this, uid, used_at] {
    const UidCache::Entry* entry = cache_.Find(uid);
    if (entry != nullptr && entry->updated_at <= used_at) {
      // No response within two seconds: revert to broadcast, which is
      // equivalent to removing the entry (section 6.8.1).
      cache_.Invalidate(uid, kAddrBroadcastHosts);
    }
  });
}

// --- reception ---

void LocalNet::OnAutonetDelivery(const Delivery& delivery) {
  if (!delivery.intact() ||
      delivery.packet->type != PacketType::kEthernetEncap) {
    return;
  }
  const Packet& p = *delivery.packet;
  if (driver_->HasAddress() && p.src == driver_->short_address()) {
    return;  // our own broadcast came back down the spanning tree
  }
  Tick now = sim_->now();
  // Learn the (source UID -> source short address) correspondence.
  if (!p.src_uid.IsNil() && p.src.IsAssignable()) {
    cache_.Learn(p.src_uid, p.src, NetworkId::kAutonet, now);
  }

  // "If the packet was sent to the broadcast short address, but was
  // addressed to the UID of the receiving host, the sending host no longer
  // knows the receiver's short address": answer immediately.
  if (p.dest.IsBroadcast() && p.dest_uid == uid_) {
    SendArpReply(uid_, NetworkId::kAutonet);
  }

  Datagram datagram;
  datagram.dest_uid = p.dest_uid;
  datagram.src_uid = p.src_uid;
  datagram.ether_type = p.ether_type;
  datagram.data = p.payload;
  datagram.encrypted = p.encrypted;
  datagram.key_id = p.key_id;
  if (p.encrypted) {
    // The receiving controller decides whether it can decrypt the packet.
    if (keys_.Has(p.key_id)) {
      PacketCipher::Apply(keys_.Get(p.key_id), p.crypto_iv, &datagram.data);
    } else {
      ++stats_.undecryptable;  // delivered as ciphertext; clients reject it
    }
  }

  if (p.ether_type == kEtherTypeArp) {
    HandleArp(NetworkId::kAutonet, datagram);
    return;
  }

  bool for_me = p.dest_uid == uid_ ||
                p.dest_uid.value() == kEthernetBroadcastUid;
  if (for_me) {
    ++stats_.received;
    if (handler_) {
      handler_(NetworkId::kAutonet, datagram);
    }
  }
  if (forwarding_ && p.dest_uid != uid_) {
    // Broadcasts cross the bridge; so do packets sent to the bridge's
    // short address on behalf of a host on the other network.
    const UidCache::Entry* entry = cache_.Find(p.dest_uid);
    bool other_side = entry == nullptr ||
                      entry->location == NetworkId::kEthernet ||
                      p.dest_uid.value() == kEthernetBroadcastUid;
    if (other_side) {
      BridgeToEthernet(datagram, p.encrypted);
    }
  }
}

void LocalNet::OnEthernetFrame(const EthernetFrame& frame) {
  Tick now = sim_->now();
  if (!frame.src_uid.IsNil()) {
    // Ethernet-side hosts are located by observing their client packets.
    cache_.Learn(frame.src_uid, kAddrBroadcastHosts, NetworkId::kEthernet,
                 now);
  }
  Datagram datagram;
  datagram.dest_uid = frame.dest_uid;
  datagram.src_uid = frame.src_uid;
  datagram.ether_type = frame.ether_type;
  datagram.data = frame.data;

  if (frame.ether_type == kEtherTypeArp) {
    HandleArp(NetworkId::kEthernet, datagram);
    return;
  }
  bool for_me =
      frame.dest_uid == uid_ || frame.IsBroadcast();
  if (for_me) {
    ++stats_.received;
    if (handler_) {
      handler_(NetworkId::kEthernet, datagram);
    }
  }
  if (forwarding_ && frame.dest_uid != uid_) {
    const UidCache::Entry* entry = cache_.Find(frame.dest_uid);
    bool other_side = entry == nullptr ||
                      entry->location == NetworkId::kAutonet ||
                      frame.IsBroadcast();
    if (other_side) {
      BridgeToAutonet(datagram);
    }
  }
}

void LocalNet::HandleArp(NetworkId net, const Datagram& datagram) {
  auto body = ArpBody::Parse(datagram.data);
  if (!body.has_value()) {
    return;
  }
  if (body->op == ArpBody::Op::kRequest) {
    if (body->target_uid == uid_) {
      SendArpReply(uid_, net);
      return;
    }
    if (forwarding_ && net == NetworkId::kAutonet) {
      // Proxy-answer for hosts known to live on the Ethernet; ARP requests
      // themselves are never forwarded to the Ethernet (section 6.8.2).
      const UidCache::Entry* entry = cache_.Find(body->target_uid);
      if (entry != nullptr && entry->location == NetworkId::kEthernet) {
        SendArpReply(body->target_uid, NetworkId::kAutonet);
      }
    }
  }
  // Replies carry their information in the source fields, already learned.
}

// --- bridging (section 6.8.2) ---

void LocalNet::StartForwarding() { StartForwarding(BridgeConfig()); }

void LocalNet::StartForwarding(BridgeConfig config) {
  forwarding_ = true;
  bridge_config_ = config;
  if (station_ != nullptr) {
    station_->SetPromiscuous(true);
  }
}

void LocalNet::RunOnBridgeCpu(NetworkId direction, Tick cost,
                              std::function<void()> fn) {
  Tick& busy = bridge_busy_until_[static_cast<int>(direction)];
  Tick start = std::max(sim_->now(), busy);
  busy = start + cost;
  sim_->ScheduleAt(busy, std::move(fn));
}

void LocalNet::BridgeToEthernet(const Datagram& datagram, bool encrypted) {
  if (encrypted || datagram.data.size() > kMaxBridgedData) {
    ++stats_.forward_refused;
    return;
  }
  if (station_ == nullptr) {
    return;
  }
  Tick cost = bridge_config_.cpu_per_packet +
              bridge_config_.bus_per_byte *
                  static_cast<Tick>(datagram.data.size());
  RunOnBridgeCpu(NetworkId::kEthernet, cost, [this, datagram] {
    ++stats_.forwarded_to_ethernet;
    EthernetFrame frame;
    frame.dest_uid = datagram.dest_uid;
    frame.src_uid = datagram.src_uid;  // preserved: bridges are transparent
    frame.ether_type = datagram.ether_type;
    frame.data = datagram.data;
    station_->SendPreservingSource(std::move(frame));
  });
}

void LocalNet::BridgeToAutonet(const Datagram& datagram) {
  if (driver_ == nullptr || !driver_->HasAddress() ||
      datagram.data.size() > kMaxBridgedData) {
    ++stats_.forward_refused;
    return;
  }
  Tick cost = bridge_config_.cpu_per_packet +
              bridge_config_.bus_per_byte *
                  static_cast<Tick>(datagram.data.size());
  RunOnBridgeCpu(NetworkId::kAutonet, cost, [this, datagram] {
    const UidCache::Entry* entry = cache_.Find(datagram.dest_uid);
    ShortAddress dest = kAddrBroadcastHosts;
    if (datagram.dest_uid.value() != kEthernetBroadcastUid &&
        entry != nullptr && entry->location == NetworkId::kAutonet) {
      dest = entry->short_address;
    }
    ++stats_.forwarded_to_autonet;
    Packet p;
    p.dest = dest;
    p.type = PacketType::kEthernetEncap;
    p.dest_uid = datagram.dest_uid;
    p.src_uid = datagram.src_uid;  // preserved across the bridge
    p.ether_type = datagram.ether_type;
    p.payload = datagram.data;
    p.from_ethernet = true;  // marks "no encryption / no long packets"
    p.created_at = sim_->now();
    driver_->Send(std::move(p));
  });
}

}  // namespace autonet
