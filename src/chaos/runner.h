// The chaos campaign runner: sweeps scenarios x seeds x topologies across a
// std::thread worker pool, one fully independent deterministic Simulator/
// Network per run, evaluates the invariant-oracle battery at each run's
// quiescence point, and aggregates verdicts, reconfiguration timings, and
// merged metric snapshots into a JSON campaign report.
//
// Every run is a pure function of (scenario, topology, seed): a violation is
// reported with a one-line reproducer (`chaosrun --scenario S --topo T
// --seed N`) that replays exactly that run.  Workers accumulate into
// worker-local registries and merge after joining, so runs never contend on
// a lock.
#ifndef SRC_CHAOS_RUNNER_H_
#define SRC_CHAOS_RUNNER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/chaos/oracles.h"
#include "src/chaos/scenario.h"
#include "src/common/histogram.h"
#include "src/core/network.h"
#include "src/obs/metrics.h"
#include "src/topo/spec.h"
#include "src/workload/slo.h"

namespace autonet {
namespace obs {
class PostMortem;
}  // namespace obs

namespace chaos {

struct Violation {
  std::string oracle;
  std::string detail;
  std::string reproducer;  // a command line replaying this run
  // Flight-recorder forensics for the failed run (same for every violation
  // of the run): the blame chain of the last reconfiguration epoch and the
  // full per-epoch timeline with phase breakdowns (src/obs/postmortem.h).
  std::string blame;
  std::string timeline;
};

struct TopologyCase {
  std::string name;
  TopoSpec spec;
};

// The one registry of named topologies, for reproducer lines and schedule
// ids alike.  Unknown names leave *error set.
// StandardTopologyNames() is the default campaign matrix; AllTopologyNames()
// adds the larger fabrics and the 2-4 switch ones sized for exhaustive
// interleaving exploration.
TopoSpec TopologyByName(const std::string& name, std::string* error);
std::vector<std::string> StandardTopologyNames();
std::vector<std::string> AllTopologyNames();

struct CampaignConfig {
  std::vector<Scenario> scenarios;
  std::vector<TopologyCase> topologies;
  std::vector<std::uint64_t> seeds;
  int jobs = 0;  // worker threads; 0 = hardware concurrency

  // Campaign-level application workload (src/workload/): when enabled, every
  // run drives it across the fault script and is additionally judged by the
  // SLO oracles.  A scenario-level `workload` line overrides this.  Disabled
  // by default so baseline campaigns stay byte-identical.
  workload::Spec workload;
  // Campaign-level adversary (src/adversary/): when enabled, every run arms
  // the feedback-driven fault engine at script start and is driven until the
  // engine retires.  A scenario-level `adversary` line overrides this.
  // Disabled by default so baseline campaigns stay byte-identical.
  adversary::Spec adversary;
  // Workload phase lengths: steady-state before the script (the latency
  // baseline), recovery after quiescence (the post-reconfiguration sample),
  // and the drain grace for in-flight ops before the books close.
  Tick slo_steady = 400 * kMillisecond;
  Tick slo_recovery = 1200 * kMillisecond;
  Tick slo_drain = 2 * kSecond;

  // Oracle battery factory; default StandardOracles.  Tests substitute
  // deliberately broken oracles here to prove violations are caught.
  std::function<std::vector<std::unique_ptr<Oracle>>()> oracles;
  // Runs every link byte as an event of its own
  // (Simulator::SetPerByteReference); tests and chaosrun's
  // --per-byte-reference compare such runs with the default ones.
  bool per_byte_reference = false;
};

struct RunResult {
  std::string scenario;
  std::string topology;
  std::uint64_t seed = 0;
  bool ok = false;
  std::vector<Violation> violations;
  double converge_ms = -1;  // sim time from script start to consistency
  double reconfig_ms = -1;  // duration of the last reconfiguration wave
  std::uint64_t log_hash = 0;      // FNV-1a over the merged event log
  std::uint64_t metrics_hash = 0;  // FNV-1a over the metrics JSON snapshot
  // What the data plane showed its observers: Simulator::data_digest().
  // The per-byte reference differential compares it.
  std::uint64_t data_hash = 0;
  double wall_ms = 0;              // host wall clock for this run
  std::vector<std::string> resolved_actions;

  // Adversary results; `adversary` is empty when the run had none.  The
  // transcript is one line per observation/move and its FNV-1a hash is
  // byte-identical across replays of the same (scenario, topology, seed).
  std::string adversary;
  std::vector<std::string> adversary_transcript;
  std::uint64_t adversary_hash = 0;
  int adversary_moves = 0;

  // Workload / SLO results; `workload` is empty when the run had none.
  std::string workload;
  std::string slo_json;  // full workload::SloReport::ToJson()
  double slo_max_outage_ms = -1;
  double slo_steady_p999_ms = -1;
  double slo_recovery_p999_ms = -1;
  std::uint64_t slo_ops = 0;
  std::uint64_t slo_recovery_lost = 0;
  int slo_outage_windows = 0;
};

struct CampaignReport {
  std::vector<RunResult> runs;
  int passed = 0;
  int failed = 0;
  int jobs = 1;
  double wall_ms = 0;
  // Set by the CLI when it re-runs the campaign single-threaded to record
  // the parallel speedup in the report; negative = not measured.
  double jobs1_wall_ms = -1;

  Histogram reconfig_ms;   // per-run last-wave durations, campaign-wide
  Histogram converge_ms;   // per-run script-to-consistency times
  Histogram run_wall_ms;   // per-run host wall clock
  Histogram slo_outage_ms;  // per-run worst flow outage (workload runs only)
  obs::MetricRegistry metrics;  // all runs' registries, merged

  bool AllPassed() const { return failed == 0; }
  // The one-line reproducers of every violation, in run order.
  std::vector<std::string> ReproducerLines() const;
  std::string ToJson() const;
  bool WriteJson(const std::string& path) const;
};

// Executes a single (scenario, topology, seed) run — the reproducer path.
// When `merge_metrics` is non-null the run's full metric registry is merged
// into it before the Network is torn down; when `postmortem` is non-null it
// receives the run's flight-recorder reconstruction, pass or fail.
RunResult RunOne(const CampaignConfig& config, const Scenario& scenario,
                 const TopologyCase& topo, std::uint64_t seed,
                 obs::MetricRegistry* merge_metrics = nullptr,
                 obs::PostMortem* postmortem = nullptr);

CampaignReport RunCampaign(const CampaignConfig& config);

// --- the run harness ---
//
// Every judged run is the same three steps around its own fault plan:
//
//   1. BootToBaseline   arm the flight recorder, boot, and wait for a
//                       consistent configuration and registered hosts;
//   2. Judge            run the oracle battery at quiescence, convergence
//                       bounded by ConvergenceDeadline;
//   3. AttachPostMortem stamp the violations with the flight recorder's
//                       blame chain and epoch timeline.
//
// RunOne (chaosrun, postmortem; the adversary's strategies, `fuzz`
// included, run inside it) and check::RunSchedule (protocheck --sweep and
// --replay, postmortem --schedule) are built from them.

// The convergence budget: base + per hop of the healthy topology's
// diameter, following the paper's conjecture that reconfiguration time is a
// function of the maximum switch-to-switch distance (section 6.6.5,
// cross-checked by bench E2).
inline constexpr Tick kConvergenceBase = 30 * kSecond;
inline constexpr Tick kConvergencePerHop = 2 * kSecond;

// Now plus the convergence budget for `net`'s healthy topology.
Tick ConvergenceDeadline(Network& net);

// Step 1.  Empty when the network reached a consistent configuration by
// ConvergenceDeadline, else the bootstrap violation's detail.
std::string BootToBaseline(Network& net);

// Step 2.  Runs `oracles` in order; every failure is appended to
// *violations with `reproducer`.  `start_epoch` and `faults` are the epoch
// oracle's baseline (OracleContext).  Returns when the convergence oracle
// saw a consistent configuration, or -1 if it never did.
Tick Judge(Network& net, const std::vector<std::unique_ptr<Oracle>>& oracles,
           const std::string& reproducer, std::uint64_t start_epoch,
           int faults, std::vector<Violation>* violations);

// Step 3.  Stamps every violation with the blame chain of the last epoch
// and the full timeline, and stores the reconstruction in *postmortem when
// non-null.  Builds nothing when there is neither.
void AttachPostMortem(Network& net, std::vector<Violation>* violations,
                      obs::PostMortem* postmortem);

// FNV-1a over the merged event log: the run's log fingerprint.
std::uint64_t HashMergedLog(const Network& net);

// The worker pool of RunCampaign and check::Explore.  ResolveJobs maps a
// `jobs` knob (0 = hardware concurrency) to a worker count of at least 1;
// ParallelFor calls fn(worker, i) for every i in [0, n) on min(jobs, n)
// threads, handing out indices in order.  Workers share nothing but the
// index counter, so fn must write only to slot i or to worker-local state.
int ResolveJobs(int jobs);
void ParallelFor(std::size_t n, int jobs,
                 const std::function<void(int worker, std::size_t i)>& fn);

double WallMsSince(std::chrono::steady_clock::time_point t0);

}  // namespace chaos
}  // namespace autonet

#endif  // SRC_CHAOS_RUNNER_H_
