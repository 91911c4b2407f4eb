// The bounded interleaving explorer (protocol correctness harness, part 2).
//
// A run of the simulator is deterministic, so the only schedule freedom the
// real network has that the simulator normally hides is the ordering of
// *same-tick* events — exactly the races a hardware network would resolve
// arbitrarily.  The explorer drives the timing wheel's tie-break decisions
// through Simulator::SetTieChooser: around an epoch transition (a scripted
// fault, an optional second fault at a swept offset) it systematically
// permutes same-tick orderings and checks the chaos invariant battery after
// each schedule.
//
// A schedule is named by a ScheduleId — topology, fault, fault-offset index,
// and a set of (decision index, branch choice) deviations from the baseline
// order — and every run is a pure function of its id:
//
//     small3:cut0+restore:o3:d12.1
//
// replays as `protocheck --replay small3:cut0+restore:o3:d12.1`.  The sweep
// enumerates, for each fault x offset, the baseline schedule plus every
// single deviation at each recorded decision point (the classic one-change
// delay-bounded search), within an overall schedule budget.
#ifndef SRC_CHECK_EXPLORE_H_
#define SRC_CHECK_EXPLORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/runner.h"
#include "src/common/time.h"
#include "src/core/network.h"
#include "src/topo/spec.h"

namespace autonet {
namespace check {

// The fault matrix explored on a topology: every single cable cut, cut plus
// restore, switch crash, crash plus restart, and ordered double cut.
std::vector<std::string> FaultMatrix(const TopoSpec& spec);

// The grid of primary-to-secondary fault offsets swept by the explorer.
const std::vector<Tick>& DefaultOffsets();

struct ScheduleId {
  std::string topo;
  std::string fault;     // e.g. "cut0", "crash1+restart", "cut0+cut2"
  int offset_index = 0;  // into the offsets grid
  // Deviations from the baseline order: at decision point `first`, take
  // same-tick branch `second` instead of branch 0.
  std::vector<std::pair<int, std::uint32_t>> deviations;

  // `topo:fault:o<idx>:<devs>` with devs `-` or `d<i>.<c>+d<i>.<c>`.
  std::string ToString() const;
  static std::optional<ScheduleId> FromString(const std::string& text);
};

struct ExploreConfig {
  std::string topo = "small3";  // a chaos::TopologyByName name
  int budget = 50000;           // total schedules (baselines + deviations)
  int max_decision_points = 64; // decision points recorded per schedule
  int jobs = 0;                 // worker threads; 0 = hardware concurrency
  std::vector<Tick> offsets;    // empty = DefaultOffsets()
  Tick chooser_window = 2 * kSecond;  // how long ties stay under our control
};

struct ScheduleResult {
  std::string id;
  bool ok = false;
  std::vector<chaos::Violation> violations;
  // Decision points encountered while the chooser was installed, and the
  // branch factor observed at each recorded one (the deviation space).
  int decision_points = 0;
  int dropped_decisions = 0;  // beyond max_decision_points, not recorded
  std::vector<std::uint32_t> branch_factors;
  std::uint64_t log_hash = 0;  // FNV-1a over the merged event log
  double wall_ms = 0;
};

struct ExploreReport {
  std::string topo;
  std::vector<ScheduleResult> runs;
  int passed = 0;
  int failed = 0;
  int baselines = 0;
  // Deviation schedules the baselines exposed vs. what the budget allowed.
  std::uint64_t deviations_possible = 0;
  std::uint64_t schedules_skipped = 0;
  // Decision points dropped because a schedule exceeded max_decision_points
  // (their branches were never explored — raise --max-points to cover them).
  std::uint64_t dropped_decisions = 0;
  int jobs = 1;
  double wall_ms = 0;

  bool AllPassed() const { return failed == 0; }
  std::vector<std::string> ReproducerLines() const;
  std::string ToJson() const;
  bool WriteJson(const std::string& path) const;
};

// Executes one schedule — the `--replay` path.  Pure function of the id
// (plus the explore tuning in `config`).  Boots and judges through the chaos
// run harness; when `postmortem` is non-null it receives the schedule's
// flight-recorder reconstruction, pass or fail.
ScheduleResult RunSchedule(const ExploreConfig& config, const ScheduleId& id,
                           obs::PostMortem* postmortem = nullptr);

// The sweep: baselines over FaultMatrix x offsets, then every single
// deviation each baseline exposed, across a worker pool, within budget.
ExploreReport Explore(const ExploreConfig& config);

}  // namespace check
}  // namespace autonet

#endif  // SRC_CHECK_EXPLORE_H_
