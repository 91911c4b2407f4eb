// Simulated-time base types shared by every module.  Time is a signed 64-bit
// count of nanoseconds; one link symbol slot is 80 ns (section 5.1: "Most of
// the switch runs on a single 80 ns clock").
#ifndef SRC_COMMON_TIME_H_
#define SRC_COMMON_TIME_H_

#include <cstdint>
#include <string>

namespace autonet {

using Tick = std::int64_t;  // nanoseconds of simulated time

inline constexpr Tick kMicrosecond = 1000;
inline constexpr Tick kMillisecond = 1000 * kMicrosecond;
inline constexpr Tick kSecond = 1000 * kMillisecond;

// One symbol slot on a 100 Mbit/s link: one 9-bit symbol per 80 ns.
inline constexpr Tick kSlotNs = 80;

// Every 256th slot on a channel is a flow-control slot (section 6.1).
inline constexpr int kFlowSlotPeriod = 256;

// The scheduling engine makes one forwarding decision every 6 clock cycles
// (480 ns), giving the 2 M packets/second forwarding rate (section 5.1).
inline constexpr Tick kRouterCycleNs = 6 * kSlotNs;

// Propagation delay: W = 64.1 slots per km (section 6.2), i.e. 5128 ns/km.
constexpr Tick PropagationDelayNs(double km) {
  return static_cast<Tick>(64.1 * km * static_cast<double>(kSlotNs));
}

// Time literals, the one form every line grammar (scenarios, workloads,
// adversaries) and reproducer line uses: a non-negative number with a unit
// suffix ns/us/ms/s ("250ms", "1.5s", "100us").
//
// FormatTime prints the largest unit that divides the value exactly ("2s",
// "250ms", "0ns"); ParseTime reads any literal back, rounding to the
// nearest ns.  ParseTime returns false on a missing number or unit, a sign,
// or an unknown unit.
std::string FormatTime(Tick t);
bool ParseTime(const std::string& literal, Tick* out);

}  // namespace autonet

#endif  // SRC_COMMON_TIME_H_
