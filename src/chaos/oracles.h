// Invariant oracles for chaos campaigns: checkers evaluated once the fault
// script has finished and the control plane has had a chance to settle.
// Each oracle inspects the Network and returns an empty string when its
// invariant holds, or a one-line diagnosis when it is violated; the campaign
// runner turns a diagnosis into a Violation carrying a reproducer line.
//
// The standard battery (StandardOracles) covers the paper's claims:
//   convergence    the control plane reaches a consistent configuration
//                  within a diameter-scaled deadline (liveness, §6.6.5's
//                  "function of the maximum switch-to-switch distance").
//                  Consistent is Network::CheckConsistency, the one judge
//                  of each physical component (Network::HealthyComponents):
//                  its switches agree on the epoch (§6.6.2), topology and
//                  switch numbers; its loaded forwarding tables deliver
//                  every (origin, destination) pair legally, loop-free,
//                  with broadcasts reaching every station exactly once
//                  (§6.6.4); and their channel-dependency graph is acyclic,
//                  so the flow-controlled fabric cannot wedge (§4.2).  A
//                  run that does not converge gets one violation for all of
//                  these, carrying CheckConsistency's first failure.
//   delivery       after convergence, fresh client traffic flows intact
//                  between every pair of registered hosts that share a
//                  component ("whatever physical configuration is
//                  available" actually carries packets)
//   ports          port classifications match physical truth: healthy
//                  switch-to-switch cables are s.switch.good at both ends
//                  and faulted ones are not in the configuration — the
//                  skeptic hold-down sanity check (no healthy link is held
//                  down forever, no dead link is trusted)
//   epoch          the highest live epoch grew by at most a small linear
//                  budget in the faults the run applied: a corrupted epoch
//                  value that escaped the CRC moved no register outright
//                  (the epoch-burn hole)
//   host-address   every registered host on a live switch holds the short
//                  address of its actual attachment point (a stale or
//                  damaged reply re-addressed no host for good)
//   fifo           no switch receive FIFO overflowed on a link that never
//                  had a cut, reflection or corruption injected: flow
//                  control (section 6.2) stops every sender in time on a
//                  healthy link, so a fault-free overflow is lost data
#ifndef SRC_CHAOS_ORACLES_H_
#define SRC_CHAOS_ORACLES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/network.h"

namespace autonet {
namespace chaos {

struct OracleContext {
  Network* net = nullptr;
  // Absolute sim-time deadline for convergence; the runner sets it from
  // the topology diameter (chaos::ConvergenceDeadline).
  Tick deadline = 0;
  // Filled in by the convergence oracle for the report.
  Tick converged_at = -1;
  // The epoch oracle's baseline: the highest live epoch when the fault
  // script started, and the faults applied since (one per scripted action,
  // one per adversary body or register write).  Left at zero, the oracle
  // judges the growth since power-on against the fixed allowance alone.
  std::uint64_t start_epoch = 0;
  int faults = 0;
};

class Oracle {
 public:
  virtual ~Oracle() = default;
  virtual std::string name() const = 0;
  // Empty string when the invariant holds.  Oracles run in battery order;
  // the convergence oracle advances simulated time, the rest are pure
  // inspections.
  virtual std::string Check(OracleContext& ctx) = 0;
};

// The standard battery, in evaluation order (convergence first — it brings
// the network to the quiescence point the others inspect).
std::vector<std::unique_ptr<Oracle>> StandardOracles();

// Maximum switch-to-switch hop distance within any component of the
// healthy topology (0 for a single switch or an empty network): a
// partitioned network is judged by its widest surviving part.
int HealthyDiameter(const Network& net);

// The highest epoch held by a live switch (0 when none is alive).
std::uint64_t MaxLiveEpoch(Network& net);

// The epoch oracle's budget: growth allowed over `faults` applied faults.
inline constexpr std::uint64_t kEpochBurnBase = 16;
inline constexpr std::uint64_t kEpochBurnPerFault = 4;

// --- individual oracles (exposed for targeted tests) ---
std::unique_ptr<Oracle> MakeConvergenceOracle();
std::unique_ptr<Oracle> MakeDeliveryOracle();
std::unique_ptr<Oracle> MakePortSanityOracle();
std::unique_ptr<Oracle> MakeEpochOracle();
std::unique_ptr<Oracle> MakeHostAddressOracle();
std::unique_ptr<Oracle> MakeFifoOracle();

}  // namespace chaos
}  // namespace autonet

#endif  // SRC_CHAOS_ORACLES_H_
