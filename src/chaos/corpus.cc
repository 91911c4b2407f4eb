#include "src/chaos/corpus.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace autonet {
namespace chaos {

// Conventions the corpus must respect:
//
//  * Scenarios that raise a cable's corruption rate heal it (rate 0) before
//    the script ends.  The consistency check compares against the healthy
//    topology, which has no notion of a marginal-but-connected cable; the
//    skeptic may legitimately hold a flaky link out of the configuration
//    forever.  Reflecting mode is different: it marks the cable cut, so it
//    may persist.
//
//  * Fault times are topology-generic.  Numeric targets wrap modulo the
//    domain size; `?name` picks resolve per (scenario, topology, seed), so
//    sweeping seeds sweeps victims.
const std::string& DefaultCorpusText() {
  static const std::string kText = R"(# Default chaos corpus: one scenario per fault family, then compounds.

# -- single cable faults ----------------------------------------------------

scenario cable-cut-restore
  at 100ms cut cable ?a
  at 1s restore cable ?a

scenario cable-cut-permanent
  # The network must reconfigure around the missing cable and stay consistent
  # (on a line topology this partitions the network; oracles judge each
  # surviving component on its own).
  at 100ms cut cable ?a

scenario double-cable-cut
  at 100ms cut cable ?a
  at 300ms cut cable ?b
  at 1200ms restore cable ?a
  at 1400ms restore cable ?b

# -- switch faults ----------------------------------------------------------

scenario switch-crash-restart
  at 100ms crash switch ?s
  at 1500ms restart switch ?s

scenario switch-crash-permanent
  at 100ms crash switch ?s

scenario rolling-restarts
  at 100ms crash switch ?s
  at 700ms restart switch ?s
  at 1s crash switch ?t
  at 1600ms restart switch ?t

# -- marginal links (section 6.6.2 skeptic territory) -----------------------

scenario link-flap
  flap cable ?a period 150ms from 100ms until 1300ms

scenario marginal-cable
  at 100ms corrupt cable ?a rate 0.005
  at 1s corrupt cable ?a rate 0

scenario reflecting-cable
  # Unterminated coax: side A hears its own transmissions (section 6.6.3).
  at 100ms reflect cable ?a side a

# -- host connectivity (section 3.9 dual-homing) ----------------------------

scenario host-failover
  at 100ms cut hostlink 0 primary
  at 1500ms restore hostlink 0 primary

# -- correlated multi-fault bursts ------------------------------------------

scenario burst-cables
  at 100ms burst cables 3 until 1200ms

scenario burst-switches
  at 100ms burst switches 2 until 1500ms

# -- compounds --------------------------------------------------------------

scenario flap-under-crash
  flap cable ?a period 200ms from 100ms until 1100ms
  at 300ms crash switch ?s
  at 1300ms restart switch ?s
)";
  return kText;
}

std::vector<Scenario> DefaultCorpus() {
  std::string error;
  std::vector<Scenario> scenarios = ParseScenarios(DefaultCorpusText(), &error);
  if (scenarios.empty()) {
    std::fprintf(stderr, "built-in chaos corpus failed to parse: %s\n",
                 error.c_str());
    std::abort();
  }
  return scenarios;
}

// The SLO corpus keeps fault scripts short (the runner adds steady-state and
// recovery phases around the script) and payloads small: saturating closed
// loops generate load by windowing, not by byte count, and the whole corpus
// must stay cheap enough for CI to sweep on every push.
const std::string& SloCorpusText() {
  static const std::string kText = R"(# SLO corpus: application workloads across faults, judged on app impact.

scenario slo-steady
  # No faults: the baseline.  Any outage window at all is a violation here
  # (CI asserts zero), and the steady p999 anchors the latency budget.
  workload rpc bytes 256 response 32 window 2

scenario slo-cable-cut
  workload rpc bytes 256 response 32 window 2
  at 100ms cut cable ?a
  at 1200ms restore cable ?a

scenario slo-switch-crash
  workload rpc bytes 256 response 32 window 2
  at 100ms crash switch ?s
  at 1400ms restart switch ?s

scenario slo-link-flap
  workload rpc bytes 256 response 32 window 2
  flap cable ?a period 150ms from 100ms until 1s

scenario slo-allreduce-cut
  # The barrier couples every flow: the cut stalls the step until the
  # reconfiguration heals the path, then steps must resume.
  workload allreduce bytes 512
  at 100ms cut cable ?a
  at 1200ms restore cable ?a

scenario slo-streams-cut
  # Deadline misses are legal only during the fault window.
  workload streams bytes 256 period 5ms deadline 25ms
  at 100ms cut cable ?a
  at 1200ms restore cable ?a
)";
  return kText;
}

std::vector<Scenario> SloCorpus() {
  std::string error;
  std::vector<Scenario> scenarios = ParseScenarios(SloCorpusText(), &error);
  if (scenarios.empty()) {
    std::fprintf(stderr, "built-in SLO corpus failed to parse: %s\n",
                 error.c_str());
    std::abort();
  }
  return scenarios;
}

// Adversary corpus conventions:
//
//  * The engine heals every cable it cut when it retires, and the phase-snipe
//    scenarios seed a scripted cut/restore pair so there is a reconfiguration
//    wave to snipe — lasting damage must come from what the *network* got
//    wrong, never from an unfinished attack script.
//
//  * The corrupted-state scenarios are the self-stabilization battery: after
//    arbitrary register damage the run must still pass the full oracle
//    battery within the diameter-scaled deadline.  `adv-regress-*` scenarios
//    pin weaknesses the adversary actually found (see DESIGN.md).
const std::string& AdversaryCorpusText() {
  static const std::string kText = R"(# Adversarial corpus: the feedback-driven attacker vs the hardened protocol.

# -- reactive attack strategies ---------------------------------------------

scenario adv-root-chase
  # Cut a root-adjacent cable the moment each election settles.
  adversary root-chase moves 3 duration 5s

scenario adv-phase-snipe-tree
  # Cut precisely while some switch is mid tree-position exchange.
  adversary phase-snipe phase tree moves 2 duration 5s
  at 100ms cut cable ?a
  at 1s restore cable ?a

scenario adv-phase-snipe-install
  # Cut precisely during table installation — the worst moment: half the
  # network is already loading the new configuration.  (The compute phase is
  # a zero-width event in sim time and cannot be caught by polling.)
  adversary phase-snipe phase install moves 2 duration 5s period 100us
  at 100ms cut cable ?a
  at 1s restore cable ?a

scenario adv-storm
  # Byzantine tree-position floods crafted near the victim's live epoch.
  adversary storm moves 6 burst 8 duration 3s

scenario adv-storm-under-load
  workload rpc bytes 256 response 32 window 2
  adversary storm moves 4 burst 6 duration 3s

scenario adv-fuzz
  # Mutated control bodies that escaped the CRC: into switch control
  # processors, and into registered hosts' driver and SRP-client parsers.
  adversary fuzz moves 6 burst 8 duration 3s

scenario adv-flap-resonance
  # Re-cut the instant the skeptic re-admits the link: a flap oscillating at
  # whatever the hold-down currently is.
  adversary flap-resonance moves 4 duration 6s

# -- corrupted-state recovery (self-stabilization battery) ------------------

scenario adv-corrupt-table
  adversary corrupt-table moves 4 duration 3s

scenario adv-corrupt-skeptic
  adversary corrupt-skeptic moves 3 duration 3s

scenario adv-corrupt-port
  adversary corrupt-port moves 3 duration 3s

scenario adv-corrupt-epoch
  # Forward epoch skew, with a scripted wave so the damage must wash out
  # through a real reconfiguration.
  adversary corrupt-epoch moves 3 amount 3 duration 4s
  at 500ms cut cable ?a
  at 1500ms restore cable ?a

# -- regressions for weaknesses the adversary found -------------------------

scenario adv-regress-epoch-runaway
  # A runaway epoch register (past kMaxEpochJump) used to freeze the victim
  # out of every future reconfiguration: neighbors dropped its implausible
  # epoch and it dropped theirs as stale.  The stale-resync path now convicts
  # the local register after repeated implausibly-stale sightings.
  adversary corrupt-epoch moves 1 amount 0 duration 4s
  at 500ms cut cable ?a
  at 1500ms restore cable ?a

scenario adv-regress-table-scrub
  # Silently corrupted forwarding-table bits used to persist until a packet
  # strayed; the autopilot's background scrub now reloads the image.
  adversary corrupt-table moves 6 duration 3s
)";
  return kText;
}

std::vector<Scenario> AdversaryCorpus() {
  std::string error;
  std::vector<Scenario> scenarios =
      ParseScenarios(AdversaryCorpusText(), &error);
  if (scenarios.empty()) {
    std::fprintf(stderr, "built-in adversary corpus failed to parse: %s\n",
                 error.c_str());
    std::abort();
  }
  return scenarios;
}

bool LoadScenarios(const std::string& corpus_file,
                   std::vector<Scenario>* out, std::string* error) {
  if (corpus_file.empty()) {
    *out = DefaultCorpus();
    for (const std::vector<Scenario>& extra : {SloCorpus(), AdversaryCorpus()}) {
      out->insert(out->end(), extra.begin(), extra.end());
    }
    return true;
  }
  std::ifstream in(corpus_file);
  if (!in) {
    *error = "cannot read " + corpus_file;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  *out = ParseScenarios(text.str(), error);
  if (out->empty()) {
    *error = corpus_file + ": " + *error;
    return false;
  }
  return true;
}

std::vector<Scenario> FilterScenarios(const std::vector<Scenario>& scenarios,
                                      const std::vector<std::string>& names) {
  std::vector<Scenario> kept;
  for (const Scenario& s : scenarios) {
    for (const std::string& name : names) {
      if (s.name == name) {
        kept.push_back(s);
        break;
      }
    }
  }
  return kept;
}

}  // namespace chaos
}  // namespace autonet
