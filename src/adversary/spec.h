// Adversary specification for the feedback-driven fault adversary: which
// attack strategy to run against the network under test and its knobs.  A
// Spec has a text form — "root-chase moves 3 duration 6s period 100ms" —
// that round-trips through ParseSpec, so a chaos scenario can carry its
// adversary inline and a reproducer line fully reproduces the attack.
#ifndef SRC_ADVERSARY_SPEC_H_
#define SRC_ADVERSARY_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace autonet {
namespace adversary {

enum class Strategy : std::uint8_t {
  kNone,           // adversary disabled
  kRootChase,      // cut the link nearest the elected root once a tree settles
  kPhaseSnipe,     // cut a cable precisely during a chosen reconfig phase
  kStorm,          // Byzantine control-message floods into live CPs
  kFlapResonance,  // re-cut a cable the moment the skeptic re-admits it
  kCorruptTable,   // flip forwarding-table bits in a running switch
  kCorruptSkeptic, // overwrite skeptic level/event registers out of range
  kCorruptPort,    // overwrite a port-state register with a wrong state
  kCorruptEpoch,   // overwrite the epoch register (forward, behind, runaway)
  kFuzz,           // mutated control bodies into switch CPs and host parsers
};

const char* StrategyName(Strategy strategy);

struct Spec {
  Strategy strategy = Strategy::kNone;
  int moves = 4;                 // attack moves before the adversary retires
  Tick duration = 4 * kSecond;   // attack window measured from arming
  Tick period = 0;               // state-poll cadence; 0 = strategy default
  std::string phase = "compute"; // phase-snipe target:
                                 //   monitor|tree|fanin|compute|install
  int burst = 4;                 // storm, fuzz: Byzantine packets per move
  std::uint64_t amount = 3;      // corrupt-epoch: forward distance;
                                 //   0 = runaway beyond kMaxEpochJump

  bool enabled() const { return strategy != Strategy::kNone; }

  // The poll cadence actually used: `period` if set, otherwise a
  // per-strategy default (snipes and resonance need a fine trigger).
  Tick effective_period() const;

  // The text form, omitting knobs the strategy does not use.  Round-trips
  // through ParseSpecText.
  std::string ToText() const;
};

// Parses `tokens[start..]` as `<strategy> [key value]...` where keys are
// moves/duration/period/phase/burst/amount and times take unit suffixes
// (ns/us/ms/s).  Returns false with *error set on a bad token.
bool ParseSpec(const std::vector<std::string>& tokens, std::size_t start,
               Spec* out, std::string* error);

// Convenience: splits `text` with SplitTokens and calls ParseSpec.
bool ParseSpecText(const std::string& text, Spec* out, std::string* error);

}  // namespace adversary
}  // namespace autonet

#endif  // SRC_ADVERSARY_SPEC_H_
