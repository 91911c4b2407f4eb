// The committed scenario corpus: the default fault-script battery that
// chaosrun executes and CI sweeps.  Kept as source (one text constant) so
// the corpus is versioned with the engine that interprets it; `chaosrun
// --dump-corpus` prints it and `--corpus FILE` substitutes an external one.
#ifndef SRC_CHAOS_CORPUS_H_
#define SRC_CHAOS_CORPUS_H_

#include <string>
#include <vector>

#include "src/chaos/scenario.h"

namespace autonet {
namespace chaos {

// The corpus text, in the ParseScenarios grammar.
const std::string& DefaultCorpusText();

// The parsed corpus.  The text is committed and covered by tests, so this
// cannot fail; it aborts if the corpus ever stops parsing.
std::vector<Scenario> DefaultCorpus();

// The SLO corpus: scenarios that run an application workload (saturating
// RPC, ring allreduce, periodic streams) across a fault and judge the run
// on application impact — outage windows vs the diameter-scaled budget,
// post-quiescence tail latency, lost-forever ops, deadline misses.  CI's
// slo-smoke job sweeps this corpus.
const std::string& SloCorpusText();
std::vector<Scenario> SloCorpus();

// The adversarial corpus: every strategy of the feedback-driven fault
// adversary (src/adversary/), including the corrupted-state families that
// demand Dolev-style self-stabilization, plus the regression scenarios for
// weaknesses the adversary found.  CI's adversary-smoke job sweeps this
// corpus; it must run clean post-hardening.
const std::string& AdversaryCorpusText();
std::vector<Scenario> AdversaryCorpus();

// The scenarios a reproducer line can name: every built-in corpus merged
// (default, SLO, adversary), or the scenarios parsed from `corpus_file` when
// it is non-empty.  False with *error set when the file cannot be read or
// parsed.  chaosrun and postmortem both look scenarios up here.
bool LoadScenarios(const std::string& corpus_file,
                   std::vector<Scenario>* out, std::string* error);

// The scenarios whose name is in `names`, in corpus order.
std::vector<Scenario> FilterScenarios(const std::vector<Scenario>& scenarios,
                                      const std::vector<std::string>& names);

}  // namespace chaos
}  // namespace autonet

#endif  // SRC_CHAOS_CORPUS_H_
