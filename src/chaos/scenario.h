// Declarative fault scenarios for the chaos campaign engine.
//
// A Scenario is a timed script of fault actions — cut/restore cables, crash/
// restart switches, periodic link flapping, symbol corruption, reflecting
// (unterminated-coax) mode, host-link failover events, and correlated
// multi-fault bursts — executed against an autonet::Network through its
// fault-injection API.  Scenarios are written in a small text format (one
// corpus file can hold many scenarios; see ParseScenarios).
//
// Targets are topology-generic: a numeric cable/switch/host index is taken
// modulo the run topology's count, and a `?name` target is resolved to a
// random valid index once per (scenario, topology, seed) — every action in
// the scenario that names the same `?name` hits the same victim, so
// "cut cable ?a ... restore cable ?a" works, and sweeping seeds sweeps
// victims.  This is what lets one committed corpus run unchanged across the
// whole topology matrix.
#ifndef SRC_CHAOS_SCENARIO_H_
#define SRC_CHAOS_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/adversary/spec.h"
#include "src/common/time.h"
#include "src/workload/spec.h"

namespace autonet {
namespace chaos {

// Sentinel target: "pick one at random for this run" (the anonymous form of
// a `?name` pick; distinct anonymous picks are independent).
inline constexpr int kRandomTarget = -1;

struct Action {
  enum class Kind : std::uint8_t {
    kCutCable,        // cut `target` at `at`
    kRestoreCable,    // restore `target` at `at`
    kCrashSwitch,     // power off switch `target`
    kRestartSwitch,   // power switch `target` back on (fresh ROM boot)
    kCutHostLink,     // cut host `target`'s link `which` (0 primary, 1 alt)
    kRestoreHostLink,
    kCorruptCable,    // set per-byte corruption probability `rate`
    kReflectCable,    // unterminated coax: side `which` hears itself
    kFlapCable,       // cut/restore `target` every `period` until `until`
    kBurstCables,     // cut `count` distinct random cables; restore at `until`
    kBurstSwitches,   // crash `count` distinct random switches; restart at
                      // `until` (until < at means never)
  };

  Kind kind = Kind::kCutCable;
  Tick at = 0;
  int target = kRandomTarget;
  std::string pick;   // non-empty: named random pick, stable within the run
  int which = 0;      // host-link selector or reflect side (0 = A, 1 = B)
  double rate = 0.0;  // corruption probability (kCorruptCable)
  Tick period = 0;    // flap half-period
  Tick until = 0;     // flap end / burst restore time
  int count = 1;      // burst width
};

struct Scenario {
  std::string name;
  std::vector<Action> actions;
  // Optional application workload to run while the script executes (see
  // src/workload/).  kNone (the default) keeps the run byte-identical to a
  // workload-free run; a scenario-level workload overrides any
  // campaign-level one.
  workload::Spec workload;
  // Optional feedback-driven adversary armed at script start (see
  // src/adversary/).  kNone (the default) keeps the run byte-identical to
  // an adversary-free run; a scenario-level adversary overrides any
  // campaign-level one.
  adversary::Spec adversary;

  // The last instant at which this script can act (including flap ends and
  // burst restores).  The campaign runner simulates at least this far before
  // judging the run.
  Tick ScriptEnd() const;
};

// Parses a scenario corpus.  Grammar (one statement per line, '#' comments):
//
//   scenario <name>
//     workload rpc|allreduce|streams [key value ...]
//     adversary <strategy> [key value ...]     (see adversary::ParseSpec)
//     at <time> cut cable <target>
//     at <time> restore cable <target>
//     at <time> crash switch <target>
//     at <time> restart switch <target>
//     at <time> cut hostlink <host> primary|alternate
//     at <time> restore hostlink <host> primary|alternate
//     at <time> corrupt cable <target> rate <p>
//     at <time> reflect cable <target> side a|b
//     flap cable <target> period <time> from <time> until <time>
//     at <time> burst cables <count> until <time>
//     at <time> burst switches <count> [until <time>]
//
// <time> is a time literal (src/common/time.h: 250ms, 1.5s) and
// <target> is an index, `random`, or a named pick `?a`.  Returns the parsed
// scenarios, or an empty vector with *error set to "line N: why".
std::vector<Scenario> ParseScenarios(const std::string& text,
                                     std::string* error);

}  // namespace chaos
}  // namespace autonet

#endif  // SRC_CHAOS_SCENARIO_H_
