// The switch forwarding table (section 6.3, Figure 6): 2-byte entries
// indexed by the receiving port number concatenated with the packet's
// destination short address.  Each entry holds a 13-bit port vector and a
// 1-bit broadcast flag:
//
//   broadcast == 0: the vector lists *alternative* ports; the switch uses
//                   the first free one (lowest number wins on ties).
//   broadcast == 1: the vector lists ports that must all forward the packet
//                   simultaneously; an all-zero vector means "discard".
//
// Indexing by receiving port differentiates the up and down phases of
// broadcast flooding, supports one-hop port-addressed packets, and lets a
// switch discard packets whose corrupted address would violate the
// up*/down* rule (section 6.6.4).
//
// A table is 13 x 2048 entries (52 KiB), and most copies of one are
// identical: the switch's live table and Autopilot's image of what it last
// loaded, the one-hop bootstrap table of every switch, the tables a
// consistency check collects.  So copies share one entry buffer, copied only
// when written (copy-on-write).  Copying, loading and comparing two copies
// of one image never touch the entries.  The all-discard and one-hop images
// are built once per process and shared by every table on every thread; the
// buffer's reference count is atomic, and a shared buffer is never written.
#ifndef SRC_FABRIC_FORWARDING_TABLE_H_
#define SRC_FABRIC_FORWARDING_TABLE_H_

#include <array>
#include <cstdint>
#include <memory>

#include "src/common/ids.h"
#include "src/common/port_vector.h"

namespace autonet {

class ForwardingTable {
 public:
  struct Entry {
    PortVector ports;
    bool broadcast = false;

    bool IsDiscard() const { return ports.empty(); }
    static Entry Discard() { return Entry{PortVector(), true}; }
    static Entry Alternatives(PortVector v) { return Entry{v, false}; }
    static Entry Broadcast(PortVector v) { return Entry{v, true}; }
  };

  // Tables start out discarding everything.
  ForwardingTable();

  Entry Lookup(PortNum inport, ShortAddress addr) const {
    return Unpack((*entries_)[Index(inport, addr)]);
  }
  void Set(PortNum inport, ShortAddress addr, Entry entry) {
    Mutable()[Index(inport, addr)] = Pack(entry);
  }
  void SetForAllInports(ShortAddress addr, Entry entry);
  // Back to discarding everything (shares the all-discard image).
  void Clear();

  // The constant part of every table (section 6.7): one-hop addresses
  // 0x001..0x00F go out the named port when sent by the control processor
  // and to the control processor when received from any external port, and
  // address 0x000 reaches the local control processor from any external
  // port.  This is the table loaded during step 1 of reconfiguration and the
  // reason SRP packets keep working while routing is down.  Every call
  // returns a copy of the one shared image.
  static ForwardingTable OneHopOnly();

  // Adds the constant one-hop part to this table.
  void AddOneHopEntries();

  // A shared buffer compares equal at once; only distinct buffers are
  // compared entry by entry.
  bool operator==(const ForwardingTable& other) const {
    return entries_ == other.entries_ || *entries_ == *other.entries_;
  }

  // Fault-injection surface (see src/adversary/): XORs raw bits into one
  // packed entry, modeling a memory fault in the table RAM.  Unlike Set this
  // can produce encodings no software path writes.
  void CorruptBits(PortNum inport, ShortAddress addr, std::uint16_t xor_mask) {
    Mutable()[Index(inport, addr)] ^= xor_mask;
  }

 private:
  static constexpr std::size_t kEntries =
      static_cast<std::size_t>(kPortsPerSwitch) * (ShortAddress::kMask + 1);
  using Image = std::array<std::uint16_t, kEntries>;

  // The buffer, made this table's own first if any other table shares it.
  // A use count of 1 means no other table can reach the buffer; the shared
  // images are also held by a static, so they always count 2 or more.
  Image& Mutable() {
    if (entries_.use_count() != 1) {
      Unshare();
    }
    return *entries_;
  }
  void Unshare();

  static std::size_t Index(PortNum inport, ShortAddress addr) {
    return static_cast<std::size_t>(inport) * (ShortAddress::kMask + 1) +
           addr.value();
  }
  static std::uint16_t Pack(Entry e) {
    return static_cast<std::uint16_t>(e.ports.bits() |
                                      (e.broadcast ? 0x2000 : 0));
  }
  static Entry Unpack(std::uint16_t bits) {
    return Entry{PortVector(static_cast<std::uint16_t>(bits & 0x1FFF)),
                 (bits & 0x2000) != 0};
  }

  std::shared_ptr<Image> entries_;
};

}  // namespace autonet

#endif  // SRC_FABRIC_FORWARDING_TABLE_H_
