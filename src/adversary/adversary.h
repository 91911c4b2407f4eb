// The feedback-driven fault adversary (the "adaptive attacker" the chaos
// corpus cannot script): runs inside a chaos run and reads *live* network
// state — the elected spanning-tree root, current epochs, the reconfig phase
// each switch is in (from its flight ring), skeptic levels and port
// classifications — to decide its next move.  Strategies:
//
//   root-chase       the moment the tree stabilizes, cut a cable adjacent to
//                    the elected root (and heal the previous cut), so every
//                    election is immediately invalidated
//   phase-snipe      cut a cable precisely while some switch is inside a
//                    chosen reconfiguration phase (monitor/tree/fanin/
//                    compute/install, the post-mortem vocabulary)
//   storm            floods a live control processor with Byzantine
//                    tree-position packets crafted near the victim's real
//                    epoch (the CRC-escape injection path)
//   fuzz             the structure-aware message fuzzer (src/check/fuzz.h)
//                    as an attacker: bodies from GenerateValidBody + Mutate
//                    delivered CRC-escaped into switch control processors,
//                    or fabric-forwarded to registered hosts' driver and
//                    SRP-client parsers
//   flap-resonance   watches one cable's endpoint classifications and
//                    re-cuts the instant the skeptic re-admits the link —
//                    a flap oscillating at the hold-down period, whatever
//                    the hold-down currently is
//   corrupt-*        memory faults in a running switch: forwarding-table
//                    bits, skeptic level/event registers, port-state
//                    registers, the epoch register (forward, behind, or
//                    runaway past kMaxEpochJump).  Recovery must be
//                    Dolev-style self-stabilization: the run's invariant +
//                    SLO oracles must still go green within the
//                    diameter-scaled deadline.
//
// Every move is appended to a deterministic transcript (a pure function of
// scenario, topology, and seed) that the campaign report carries per run, so
// any adversarial finding replays from its reproducer line.  The engine
// tracks the cables it cut and heals them when it retires: lasting damage
// must come from what the *network* got wrong, not from an unfinished
// script.
#ifndef SRC_ADVERSARY_ADVERSARY_H_
#define SRC_ADVERSARY_ADVERSARY_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/adversary/spec.h"
#include "src/core/network.h"
#include "src/host/srp_client.h"
#include "src/sim/random.h"
#include "src/sim/timer.h"

namespace autonet {
namespace adversary {

class Engine {
 public:
  // The engine reads and attacks `net`; its randomness is derived from
  // `seed` and the strategy, so one seed produces one attack sequence.
  Engine(Network* net, Spec spec, std::uint64_t seed);

  // Starts polling at `start` (absolute sim time, >= now).  The attack
  // window is [start, start + spec.duration]; the engine restores its own
  // cable cuts when it retires.
  void Arm(Tick start);

  // Absolute sim time by which the engine has retired (the run must be
  // driven at least this far so the final heal executes).
  Tick end() const { return end_; }

  const Spec& spec() const { return spec_; }
  int moves_made() const { return moves_; }
  // Faults applied so far: one per Byzantine body (storm, fuzz), one per
  // register write or cable cut (the other strategies).  The epoch oracle's
  // burn budget scales with it.
  int faults() const;

  // One line per observation/move, e.g.
  //   "t=412ms root-chase: cut cable 2 at root s1 (epoch 9)".
  const std::vector<std::string>& transcript() const { return transcript_; }
  // FNV-1a over the transcript lines; byte-identical across replays of the
  // same (scenario, topology, seed).
  std::uint64_t TranscriptHash() const;

 private:
  void Poll();
  void Finish();

  void StepRootChase();
  void StepPhaseSnipe();
  void StepStorm();
  void StepFlapResonance();
  void StepCorruptTable();
  void StepCorruptSkeptic();
  void StepCorruptPort();
  void StepCorruptEpoch();
  void StepFuzz();

  // --- state-read surface ---
  // All alive switches quiescent and agreeing on epoch and root.
  bool StableNow() const;
  // Index of the switch that believes itself root (-1 if none/dead).
  int FindRootSwitch() const;
  // The reconfiguration phase `sw` is in, from its flight ring's newest
  // event ("monitor" when no reconfiguration is in progress).
  const char* PhaseOf(int sw) const;
  std::vector<int> AliveSwitches() const;
  // Spec cable indices adjacent to `sw`, uncut, with both endpoints alive.
  std::vector<int> CandidateCablesAt(int sw) const;
  // Attached external ports of `sw`.
  std::vector<PortNum> AttachedPorts(int sw) const;

  void CutNow(int cable);
  void RestoreNow(int cable);
  void RestoreAllCuts(const char* why);
  void Note(const char* fmt, ...);
  // Tags the victim's flight ring so post-mortem timelines show the move
  // (detail must be a static-lifetime string).
  void MarkFlight(int sw, const char* detail);

  Network* net_;
  Spec spec_;
  mutable Rng rng_;
  PeriodicTask poll_;

  Tick armed_at_ = 0;
  Tick end_ = 0;
  int moves_ = 0;
  bool finished_ = false;

  std::set<int> cuts_;      // cables this engine cut and has not healed
  Tick last_cut_at_ = -1;
  int flap_cable_ = -1;     // flap-resonance's chosen victim
  // fuzz: one SRP client per host, chained onto its driver so kSrp bodies
  // also reach the client parser.
  std::vector<std::unique_ptr<SrpClient>> srp_clients_;

  std::vector<std::string> transcript_;
};

}  // namespace adversary
}  // namespace autonet

#endif  // SRC_ADVERSARY_ADVERSARY_H_
