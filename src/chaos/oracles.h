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
#ifndef SRC_CHAOS_ORACLES_H_
#define SRC_CHAOS_ORACLES_H_

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

// --- individual oracles (exposed for targeted tests) ---
std::unique_ptr<Oracle> MakeConvergenceOracle();
std::unique_ptr<Oracle> MakeDeliveryOracle();
std::unique_ptr<Oracle> MakePortSanityOracle();

}  // namespace chaos
}  // namespace autonet

#endif  // SRC_CHAOS_ORACLES_H_
