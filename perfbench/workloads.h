// The benchmark's three workloads.  Each repetition ("rep") builds its own
// inputs-determined simulation, runs it, checks its outputs, and returns
// what it measured.  Every simulated quantity in a RepResult is a pure
// function of the workload and seed; only the CPU and wall times vary.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/probes.h"
#include "src/chaos/runner.h"

namespace perfbench {

struct RepResult {
  // The measured phase: process CPU seconds, simulated seconds advanced,
  // and operations completed (delivered packets, chaos runs, RPC ops).
  double cpu_s = 0;
  double sim_s = 0;
  double ops = 0;
  double payload_bytes = 0;
  // CPU per step: one chaos run, or one simulated millisecond of traffic.
  std::vector<double> step_cpu_ms;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // failed output checks, one line each

  // Deterministic results: modeled metrics and per-layer counts.  Equal
  // across reps, passes and runs of one seed.
  std::map<std::string, double> model;
  std::map<std::string, double> counts;
  // CPU milliseconds of probed calls (oracles, boot steps, exports).
  std::map<std::string, double> probe_ms;

  // chaos_baseline: each run's identity and fingerprints, in corpus order.
  struct ChaosRun {
    std::string scenario;
    std::string topology;
    std::uint64_t seed = 0;
    bool ok = false;
    std::uint64_t log_hash = 0;
    std::uint64_t metrics_hash = 0;
  };
  std::vector<ChaosRun> chaos_runs;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One set-up as a user of the workload pays it, timed by the caller: a
  // network constructed, booted to a consistent configuration and with
  // every host registered, or for chaos_baseline (where boot is per-run
  // work) the campaign's run list.
  virtual void SetUp() = 0;
  // One repetition; spans go to `tracer` when it is non-null and enabled.
  virtual RepResult Rep(Tracer* tracer) = 0;
  // Wall time of one rep on the machine the benchmark was tuned on (4-core
  // x86-64 VM).  A run's rep count is its --seconds over this, so the
  // amount of work measured never depends on how fast the machine is.
  virtual double nominal_rep_seconds() const = 0;
};

// Returns nullptr for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

// routing.table_build_us.<topology> for every topology any workload uses:
// AssignSwitchNumbers + ComputeSpanningTree + BuildForwardingTable for every
// switch, median of repeated builds.
std::map<std::string, double> RoutingProbes(Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
