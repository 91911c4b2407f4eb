// Fundamental identifier types of the Autonet design: 48-bit UIDs, 11-bit
// short addresses with the switch-number/port-number split of section 6.3 of
// the Autonet paper, and port numbers.
#ifndef SRC_COMMON_IDS_H_
#define SRC_COMMON_IDS_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace autonet {

// Number of ports on a switch, including the internal control-processor port.
// Port 0 is always the control processor; ports 1..12 terminate external
// links (section 3.4: 12 full-duplex ports plus the 13th crossbar position).
inline constexpr int kPortsPerSwitch = 13;
inline constexpr int kCpPort = 0;
inline constexpr int kFirstExternalPort = 1;

// A port number on a switch or a host controller.  Hosts have 2 ports.
using PortNum = int;

// A switch number assigned by the root during reconfiguration (section
// 6.6.3).  Short addresses are formed as (switch number << 4) | port.
// 0 means "not assigned".
using SwitchNum = std::uint16_t;

// 48-bit unique identifier burned into every switch and host controller ROM
// (section 3.7).  Value 0 is reserved as "nil".
class Uid {
 public:
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << 48) - 1;

  constexpr Uid() = default;
  explicit constexpr Uid(std::uint64_t value) : value_(value & kMask) {}

  constexpr std::uint64_t value() const { return value_; }
  constexpr bool IsNil() const { return value_ == 0; }

  friend constexpr auto operator<=>(Uid a, Uid b) = default;

  std::string ToString() const;

 private:
  std::uint64_t value_ = 0;
};

// An 11-bit short address (section 6.3).  The paper writes addresses as four
// hex digits but prototype switches interpret only the low-order 11 bits; we
// follow the prototype.  The address space layout mirrors the paper's table:
//
//   0x000          from a host: control processor of the local switch
//   0x001..0x00F   one-hop switch-to-switch packets (outbound port number)
//   0x010..0x7EF   a particular host or switch (switch number . port number)
//   0x7F0..0x7FB   reserved; packets discarded
//   0x7FC          loopback (reflected out the receiving port)
//   0x7FD          broadcast: every switch and every host
//   0x7FE          broadcast: every switch
//   0x7FF          broadcast: every host
class ShortAddress {
 public:
  static constexpr std::uint16_t kMask = 0x7FF;
  static constexpr int kPortBits = 4;

  constexpr ShortAddress() = default;
  explicit constexpr ShortAddress(std::uint16_t value) : value_(value & kMask) {}

  static constexpr ShortAddress FromSwitchPort(SwitchNum sw, PortNum port) {
    return ShortAddress(static_cast<std::uint16_t>((sw << kPortBits) |
                                                   (port & 0xF)));
  }

  constexpr std::uint16_t value() const { return value_; }
  constexpr SwitchNum switch_num() const {
    return static_cast<SwitchNum>(value_ >> kPortBits);
  }
  constexpr PortNum port() const { return value_ & 0xF; }

  constexpr bool IsLocalCp() const { return value_ == 0; }
  constexpr bool IsOneHop() const { return value_ >= 0x001 && value_ <= 0x00F; }
  constexpr bool IsAssignable() const {
    return value_ >= 0x010 && value_ <= 0x7EF;
  }
  constexpr bool IsReserved() const {
    return value_ >= 0x7F0 && value_ <= 0x7FB;
  }
  constexpr bool IsLoopback() const { return value_ == 0x7FC; }
  constexpr bool IsBroadcastAll() const { return value_ == 0x7FD; }
  constexpr bool IsBroadcastSwitches() const { return value_ == 0x7FE; }
  constexpr bool IsBroadcastHosts() const { return value_ == 0x7FF; }
  constexpr bool IsBroadcast() const { return value_ >= 0x7FD; }

  friend constexpr auto operator<=>(ShortAddress a, ShortAddress b) = default;

  std::string ToString() const;

 private:
  std::uint16_t value_ = 0;
};

inline constexpr ShortAddress kAddrLocalCp{0x000};
inline constexpr ShortAddress kAddrLoopback{0x7FC};
inline constexpr ShortAddress kAddrBroadcastAll{0x7FD};
inline constexpr ShortAddress kAddrBroadcastSwitches{0x7FE};
inline constexpr ShortAddress kAddrBroadcastHosts{0x7FF};

constexpr ShortAddress OneHopAddress(PortNum port) {
  return ShortAddress(static_cast<std::uint16_t>(port & 0xF));
}

// Highest switch number representable in an 11-bit short address while
// staying inside the assignable range 0x010..0x7EF.
inline constexpr SwitchNum kMaxSwitchNum = 0x7E;
inline constexpr SwitchNum kFirstSwitchNum = 1;

}  // namespace autonet

template <>
struct std::hash<autonet::Uid> {
  std::size_t operator()(autonet::Uid uid) const noexcept {
    return std::hash<std::uint64_t>{}(uid.value());
  }
};

template <>
struct std::hash<autonet::ShortAddress> {
  std::size_t operator()(autonet::ShortAddress a) const noexcept {
    return std::hash<std::uint16_t>{}(a.value());
  }
};

#endif  // SRC_COMMON_IDS_H_
