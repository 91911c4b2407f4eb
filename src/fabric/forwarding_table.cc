#include "src/fabric/forwarding_table.h"

namespace autonet {

ForwardingTable::ForwardingTable() {
  static const std::shared_ptr<Image> kDiscard = [] {
    auto image = std::make_shared<Image>();
    image->fill(Pack(Entry::Discard()));
    return image;
  }();
  entries_ = kDiscard;
}

void ForwardingTable::Unshare() {
  entries_ = std::make_shared<Image>(*entries_);
}

void ForwardingTable::Clear() { *this = ForwardingTable(); }

void ForwardingTable::SetForAllInports(ShortAddress addr, Entry entry) {
  for (PortNum p = 0; p < kPortsPerSwitch; ++p) {
    Set(p, addr, entry);
  }
}

void ForwardingTable::AddOneHopEntries() {
  for (PortNum out = kFirstExternalPort; out < kPortsPerSwitch; ++out) {
    ShortAddress addr = OneHopAddress(out);
    // From the control processor: transmit on the named local port.
    Set(kCpPort, addr, Entry::Alternatives(PortVector::Single(out)));
    // From any external port: deliver to the control processor.
    for (PortNum in = kFirstExternalPort; in < kPortsPerSwitch; ++in) {
      Set(in, addr, Entry::Alternatives(PortVector::Single(kCpPort)));
    }
  }
  // Address 0x000 from any external port reaches the local control
  // processor (hosts use it to discover their short address).
  for (PortNum in = kFirstExternalPort; in < kPortsPerSwitch; ++in) {
    Set(in, kAddrLocalCp, Entry::Alternatives(PortVector::Single(kCpPort)));
  }
}

ForwardingTable ForwardingTable::OneHopOnly() {
  static const ForwardingTable kOneHop = [] {
    ForwardingTable table;
    table.AddOneHopEntries();
    return table;
  }();
  return kOneHop;
}

}  // namespace autonet
