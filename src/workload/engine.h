// The application workload engine: drives structured traffic with
// dependency semantics over a Network and feeds per-flow SLO accounting.
//
// Three workload kinds (src/workload/spec.h):
//
//   rpc        closed-loop request/response fleet.  Each flow keeps `window`
//              requests outstanding; the destination's engine answers every
//              request with a response, and a completion immediately issues
//              the next request — saturating, self-clocked load.  Requests
//              unanswered for `timeout` are retried under a fresh sequence
//              number (the old response, if it straggles in, is dropped as
//              stale).
//   allreduce  ring collective: every host sends one chunk to its ring
//              neighbour per step, and the next step starts only when ALL
//              chunks of the current step have been delivered — a barrier,
//              so one slow flow stalls the whole step (the MPI pattern).
//              Step times land in a histogram.
//   streams    open-loop periodic frames with a per-frame delivery deadline
//              (the time-sensitive traffic of §4's small-FIFO argument).
//
// Packets are tagged: the first 8 payload bytes carry (magic, class, flow,
// seq) under a dedicated ether type, so the engine's delivery hook can
// match completions exactly even under loss and reordering, and so the
// chaos delivery oracle's probe traffic (plain 0x0800) is never confused
// with workload traffic.
//
// The engine is phase-aware (steady / fault / recovery) and excuses outage
// time while a flow is physically unserviceable — an endpoint off the
// network, or the two endpoints in different components of the healthy
// topology — matching the delivery oracle's serviceability test.  Everything
// is deterministic: no randomness, all work rides one self-rescheduling
// simulator tick.
#ifndef SRC_WORKLOAD_ENGINE_H_
#define SRC_WORKLOAD_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/network.h"
#include "src/obs/metrics.h"
#include "src/workload/slo.h"
#include "src/workload/spec.h"

namespace autonet {
namespace workload {

// Reserved ether type for workload traffic (never used by the baseline
// harness, so runs without a workload are byte-identical to before).  It is
// the Network's hook-only type: workload packets go to the delivery hook and
// never pollute the per-host inboxes that tests and oracles read.
inline constexpr std::uint16_t kWorkloadEtherType = kHookOnlyEtherType;

class WorkloadEngine {
 public:
  // The budget is resolved against `diameter` (healthy topology diameter at
  // workload start; the chaos runner passes HealthyDiameter(net)).
  WorkloadEngine(Network* net, const Spec& spec,
                 const SloBudgetConfig& budget_config, int diameter);
  ~WorkloadEngine();

  WorkloadEngine(const WorkloadEngine&) = delete;
  WorkloadEngine& operator=(const WorkloadEngine&) = delete;

  // Builds the flow set, installs the delivery hook, sends the initial
  // window, and starts the engine tick.  Phase starts at kSteady.
  void Start();
  void SetPhase(Phase phase);
  Phase phase() const { return phase_; }

  // Stops issuing new work; in-flight ops keep completing (and counting).
  void Stop();
  // True once no offered work is outstanding (drain complete).
  bool Drained() const;

  // Closes the books and returns the report.  Call once, after Stop() and
  // a drain period; detaches from the Network.
  SloReport Finalize();

  int flow_count() const { return static_cast<int>(flows_.size()); }
  std::uint64_t ops_completed() const { return ops_completed_; }

 private:
  struct Op {
    std::uint32_t seq = 0;
    Tick sent_at = 0;
    Phase phase = Phase::kSteady;
    bool accepted = false;             // driver took the packet
    bool serviceable_at_send = false;  // flow was serviceable when sent
    bool missed = false;               // stream frame already counted missed
  };

  struct Flow {
    int src = -1;
    int dst = -1;
    std::uint16_t id = 0;
    FlowSlo slo;
    std::vector<Op> outstanding;
    std::uint32_t next_seq = 1;
    Tick next_emit = -1;     // streams: next frame emission
    bool step_done = false;  // allreduce: chunk delivered this step
    // Remote counters, registered under the source host's switch so netmon
    // can read them over SRP GetStats.
    obs::Counter* ops_counter = nullptr;
    obs::Counter* timeout_counter = nullptr;
    obs::Counter* miss_counter = nullptr;
    Histogram* op_ms = nullptr;
  };

  void OnTick();
  void OnDelivery(int host, const Delivery& delivery);

  void TickRpc(Flow& flow, Tick now, bool serviceable);
  void TickStreams(Flow& flow, Tick now, bool serviceable);
  void TickAllreduce(Flow& flow, Tick now, bool serviceable);
  void StartStep(Tick now);

  bool SendOp(Flow& flow, Op& op, std::uint8_t cls, std::size_t bytes);
  void CompleteOp(Flow& flow, std::uint32_t seq);

  // Serviceability: both endpoints attached to alive switches in the same
  // component of the healthy topology (Network::HostComponent, the delivery
  // oracle's test), read against the snapshot RefreshComponents takes.
  void RefreshComponents();
  bool Serviceable(const Flow& flow) const;

  Network* net_;
  Spec spec_;
  SloBudget budget_;

  Phase phase_ = Phase::kSteady;
  bool running_ = false;    // Start() called, Finalize() not yet
  bool stopped_ = false;    // no new work
  bool finalized_ = false;
  Tick last_tick_ = 0;
  Simulator::EventId tick_id_{};
  bool tick_armed_ = false;

  std::vector<Flow> flows_;

  // Allreduce step state.
  std::uint32_t step_seq_ = 0;
  Tick step_start_ = 0;
  Histogram step_ms_;
  std::uint64_t steps_completed_ = 0;

  std::uint64_t ops_completed_ = 0;
  std::uint64_t damaged_ = 0;
  std::uint64_t recovery_lost_ = 0;

  // Network::HealthyComponents() snapshot, retaken when the Network's
  // fault generation moves.
  std::uint64_t comp_generation_ = ~0ull;
  std::vector<int> components_;
};

}  // namespace workload
}  // namespace autonet

#endif  // SRC_WORKLOAD_ENGINE_H_
