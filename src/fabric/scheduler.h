// The first-come, first-considered scheduling engine (section 6.4,
// Figure 7).  Forwarding requests — one outstanding per receive port, since
// head-of-line blocking means only the packet at the FIFO head is considered
// — are held in arrival order.  Each engine cycle (480 ns, the 6-clock
// decision period giving 2 M requests/second) a vector of free transmit
// ports is matched against the queue, oldest request first:
//
//   * an alternatives request captures any one matching free port (lowest
//     port number on ties) and is granted;
//   * a broadcast request *accumulates* matching free ports, holding them
//     reserved, and is granted once its whole set is captured.  Reserved
//     ports are withheld from younger requests, so a broadcast request's
//     effective priority rises until it is served — the paper's starvation-
//     freedom argument.
//
// Queue jumping: younger requests may be granted ports useless to older
// ones.  A `fcfs` baseline mode (strict in-order service, used by the E9
// bench) shows why that matters.
#ifndef SRC_FABRIC_SCHEDULER_H_
#define SRC_FABRIC_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/ids.h"
#include "src/common/port_vector.h"
#include "src/common/time.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace autonet {

class SchedulerEngine {
 public:
  struct Request {
    PortNum inport = -1;
    PortVector want;
    bool broadcast = false;
    PortVector reserved;  // broadcast accumulation (internal)
  };

  // Returns the ports currently free for assignment (not busy transmitting).
  using FreePortsFn = std::function<PortVector()>;
  // Called when a request is granted.  `ports` is the single chosen port for
  // an alternatives request or the full set for a broadcast request.
  using GrantFn = std::function<void(const Request&, PortVector ports)>;

  // `fcfs` selects the baseline: only the oldest request is considered.
  SchedulerEngine(Simulator* sim, bool fcfs) : sim_(sim), fcfs_(fcfs) {}

  void SetHooks(FreePortsFn free_ports, GrantFn grant) {
    free_ports_ = std::move(free_ports);
    grant_ = std::move(grant);
  }

  void Enqueue(PortNum inport, PortVector want, bool broadcast);
  bool HasRequest(PortNum inport) const;
  // Removes a pending request (switch reset / link-unit reset), releasing
  // any broadcast reservations.
  void Remove(PortNum inport);
  void Clear();

  // An output port was freed: make sure a matching cycle will run.
  void Kick();

  // Registry instruments, owned by the registry; set by the owning switch.
  // `blocked_cycles` counts engine cycles that ran with a non-empty queue
  // but granted nothing — every request was blocked on busy crossbar slots.
  void SetMetrics(obs::Counter* grants, obs::Counter* blocked_cycles) {
    grants_metric_ = grants;
    blocked_cycles_metric_ = blocked_cycles;
  }

  std::uint64_t grants() const { return grants_; }

 private:
  void EnsureCycleScheduled();
  void RunCycle();

  Simulator* sim_;
  bool fcfs_;
  FreePortsFn free_ports_;
  GrantFn grant_;
  std::vector<Request> queue_;  // index 0 = oldest
  PortVector reserved_total_;
  bool cycle_scheduled_ = false;
  std::uint64_t grants_ = 0;
  obs::Counter* grants_metric_ = nullptr;
  obs::Counter* blocked_cycles_metric_ = nullptr;
};

}  // namespace autonet

#endif  // SRC_FABRIC_SCHEDULER_H_
