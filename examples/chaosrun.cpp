// Chaos campaign CLI: sweeps fault scenarios x topologies x seeds in
// parallel, judges every run with the invariant-oracle battery, and writes a
// JSON campaign report.  Exit status is 0 only when every oracle held in
// every run; otherwise the violations' one-line reproducers are printed so a
// failure anywhere reduces to a single replayable command.
//
//   chaosrun                          run the built-in corpus on the
//                                     standard topology matrix, 5 seeds
//   chaosrun --seeds 8 --jobs 4       wider sweep, bounded parallelism
//   chaosrun --scenario link-flap --topo ring8 --seed 3
//                                     replay one run (the reproducer form)
//   chaosrun --corpus my.chaos        external scenario file
//   chaosrun --workload 'rpc'         drive an application workload in every
//                                     run and judge the SLO oracles too
//   chaosrun --slo-corpus             run the built-in SLO corpus (scenarios
//                                     with their own workload lines)
//   chaosrun --adversary 'root-chase' arm the feedback-driven fault
//                                     adversary in every run
//   chaosrun --adversary-corpus       run the built-in adversarial corpus
//                                     (every strategy + regressions)
//   chaosrun --report out.json        write the campaign report
//   chaosrun --compare-jobs1          rerun single-threaded, record speedup
//   chaosrun --list / --dump-corpus   inspect what would run
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/adversary/spec.h"
#include "src/chaos/corpus.h"
#include "src/chaos/runner.h"
#include "src/common/tokens.h"
#include "src/workload/spec.h"

using namespace autonet;
using namespace autonet::chaos;

namespace {

constexpr int kMaxInt = std::numeric_limits<int>::max();
constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --corpus FILE     scenario file (default: built-in corpus)\n"
      "  --slo-corpus      use the built-in SLO corpus (workload scenarios)\n"
      "  --workload SPEC   campaign workload, e.g. 'rpc bytes 256 window 2'\n"
      "  --adversary SPEC  campaign adversary, e.g. 'root-chase moves 3'\n"
      "  --adversary-corpus  use the built-in adversarial corpus\n"
      "  --scenario NAME   run only this scenario (repeatable)\n"
      "  --topo NAME       run only this topology (repeatable)\n"
      "  --topos all       use every registered topology\n"
      "  --seeds N         seeds 0..N-1 (default 5)\n"
      "  --seed N          run only this seed (repeatable)\n"
      "  --jobs N          worker threads (default: hardware concurrency)\n"
      "  --report FILE     write the JSON campaign report\n"
      "  --compare-jobs1   also run with 1 job and record the speedup\n"
      "  --per-byte-reference  run every link byte as an event of its own;\n"
      "                    a test tool: its report must match a default run's\n"
      "  --list            print scenarios and topologies, run nothing\n"
      "  --dump-corpus     print the corpus text, run nothing\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus_file;
  bool slo_corpus = false;
  bool adversary_corpus = false;
  std::string workload_text;
  std::string adversary_text;
  std::vector<std::string> want_scenarios;
  std::vector<std::string> want_topos;
  std::vector<std::uint64_t> seeds;
  int seed_count = 5;
  int jobs = 0;
  std::string report_file;
  bool compare_jobs1 = false;
  bool per_byte_reference = false;
  bool list_only = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // The next argument as a whole number in [lo, hi].
    auto number = [&]<typename T>(T lo, T hi, T* out) {
      const char* v = next();
      return v != nullptr && ParseNumber(std::string(v), lo, hi, out);
    };
    if (arg == "--corpus") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      corpus_file = v;
    } else if (arg == "--slo-corpus") {
      slo_corpus = true;
    } else if (arg == "--adversary-corpus") {
      adversary_corpus = true;
    } else if (arg == "--workload") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      workload_text = v;
    } else if (arg == "--adversary") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      adversary_text = v;
    } else if (arg == "--scenario") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      want_scenarios.push_back(v);
    } else if (arg == "--topo") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      want_topos.push_back(v);
    } else if (arg == "--topos") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (std::strcmp(v, "all") == 0) {
        want_topos = AllTopologyNames();
      } else {
        std::fprintf(stderr, "--topos only understands 'all'\n");
        return 2;
      }
    } else if (arg == "--seeds") {
      if (!number(1, kMaxInt, &seed_count)) return Usage(argv[0]);
    } else if (arg == "--seed") {
      std::uint64_t seed = 0;
      if (!number(std::uint64_t{0}, kMaxSeed, &seed)) return Usage(argv[0]);
      seeds.push_back(seed);
    } else if (arg == "--jobs") {
      if (!number(0, kMaxInt, &jobs)) return Usage(argv[0]);
    } else if (arg == "--report") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      report_file = v;
    } else if (arg == "--compare-jobs1") {
      compare_jobs1 = true;
    } else if (arg == "--per-byte-reference") {
      per_byte_reference = true;
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "--dump-corpus") {
      std::fputs(DefaultCorpusText().c_str(), stdout);
      std::fputs("\n", stdout);
      std::fputs(SloCorpusText().c_str(), stdout);
      std::fputs("\n", stdout);
      std::fputs(AdversaryCorpusText().c_str(), stdout);
      return 0;
    } else {
      return Usage(argv[0]);
    }
  }

  // Load and filter the corpus.  Scenario name lookups (--scenario) see
  // every built-in corpus together so any reproducer line replays without
  // extra flags.
  if ((!corpus_file.empty() ? 1 : 0) + (slo_corpus ? 1 : 0) +
          (adversary_corpus ? 1 : 0) >
      1) {
    std::fprintf(stderr,
                 "--corpus, --slo-corpus and --adversary-corpus are "
                 "exclusive\n");
    return 2;
  }
  std::vector<Scenario> scenarios;
  if (slo_corpus) {
    scenarios = SloCorpus();
  } else if (adversary_corpus) {
    scenarios = AdversaryCorpus();
  } else if (corpus_file.empty() && want_scenarios.empty()) {
    scenarios = DefaultCorpus();
  } else {
    std::string error;
    if (!LoadScenarios(corpus_file, &scenarios, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
  }
  if (!want_scenarios.empty()) {
    scenarios = FilterScenarios(scenarios, want_scenarios);
    if (scenarios.empty()) {
      std::fprintf(stderr, "no scenario matched\n");
      return 2;
    }
  }

  if (want_topos.empty()) {
    want_topos = StandardTopologyNames();
  }
  std::vector<TopologyCase> topologies;
  for (const std::string& name : want_topos) {
    std::string error;
    TopoSpec spec = TopologyByName(name, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    topologies.push_back({name, std::move(spec)});
  }

  if (seeds.empty()) {
    for (int s = 0; s < seed_count; ++s) {
      seeds.push_back(static_cast<std::uint64_t>(s));
    }
  }

  if (list_only) {
    std::printf("scenarios:\n");
    for (const Scenario& s : scenarios) {
      std::printf("  %-24s %2zu actions, script end %s\n", s.name.c_str(),
                  s.actions.size(), FormatTime(s.ScriptEnd()).c_str());
    }
    std::printf("topologies:");
    for (const TopologyCase& t : topologies) {
      std::printf(" %s", t.name.c_str());
    }
    std::printf("\nseeds: %zu, jobs: %d\n", seeds.size(), jobs);
    return 0;
  }

  CampaignConfig config;
  if (!workload_text.empty()) {
    std::string error;
    if (!workload::ParseSpecText(workload_text, &config.workload, &error)) {
      std::fprintf(stderr, "--workload: %s\n", error.c_str());
      return 2;
    }
  }
  if (!adversary_text.empty()) {
    std::string error;
    if (!adversary::ParseSpecText(adversary_text, &config.adversary,
                                  &error)) {
      std::fprintf(stderr, "--adversary: %s\n", error.c_str());
      return 2;
    }
  }
  config.scenarios = std::move(scenarios);
  config.topologies = std::move(topologies);
  config.seeds = std::move(seeds);
  config.jobs = jobs;
  config.per_byte_reference = per_byte_reference;

  std::printf("campaign: %zu scenarios x %zu topologies x %zu seeds = %zu runs\n",
              config.scenarios.size(), config.topologies.size(),
              config.seeds.size(),
              config.scenarios.size() * config.topologies.size() *
                  config.seeds.size());
  CampaignReport report = RunCampaign(config);
  std::printf("ran %zu runs on %d workers in %.0f ms: %d passed, %d failed\n",
              report.runs.size(), report.jobs, report.wall_ms, report.passed,
              report.failed);

  if (compare_jobs1) {
    CampaignConfig single = config;
    single.jobs = 1;
    CampaignReport baseline = RunCampaign(single);
    report.jobs1_wall_ms = baseline.wall_ms;
    std::printf("jobs=1 baseline: %.0f ms (speedup %.2fx)\n", baseline.wall_ms,
                report.wall_ms > 0 ? baseline.wall_ms / report.wall_ms : 0.0);
  }

  if (!report.reconfig_ms.empty()) {
    std::printf("reconfig wave: p50 %.1f ms  p99 %.1f ms  max %.1f ms\n",
                report.reconfig_ms.Percentile(50),
                report.reconfig_ms.Percentile(99), report.reconfig_ms.Max());
  }
  if (!report.converge_ms.empty()) {
    std::printf("convergence:   p50 %.1f ms  p99 %.1f ms  max %.1f ms\n",
                report.converge_ms.Percentile(50),
                report.converge_ms.Percentile(99), report.converge_ms.Max());
  }
  if (!report.slo_outage_ms.empty()) {
    std::printf("slo outage:    p50 %.1f ms  p99 %.1f ms  max %.1f ms\n",
                report.slo_outage_ms.Percentile(50),
                report.slo_outage_ms.Percentile(99),
                report.slo_outage_ms.Max());
    for (const RunResult& r : report.runs) {
      if (r.workload.empty()) {
        continue;
      }
      std::printf(
          "  %-18s %-9s seed %llu: %llu ops, outage %.1f ms (%d win), "
          "p999 %.3f->%.3f ms, lost %llu\n",
          r.scenario.c_str(), r.topology.c_str(),
          static_cast<unsigned long long>(r.seed),
          static_cast<unsigned long long>(r.slo_ops), r.slo_max_outage_ms,
          r.slo_outage_windows, r.slo_steady_p999_ms, r.slo_recovery_p999_ms,
          static_cast<unsigned long long>(r.slo_recovery_lost));
    }
  }

  bool any_adversary = false;
  for (const RunResult& r : report.runs) {
    if (!r.adversary.empty()) {
      any_adversary = true;
      break;
    }
  }
  if (any_adversary) {
    std::printf("adversary runs:\n");
    for (const RunResult& r : report.runs) {
      if (r.adversary.empty()) {
        continue;
      }
      std::printf("  %-24s %-9s seed %llu: [%s] %d moves, transcript %016llx\n",
                  r.scenario.c_str(), r.topology.c_str(),
                  static_cast<unsigned long long>(r.seed), r.adversary.c_str(),
                  r.adversary_moves,
                  static_cast<unsigned long long>(r.adversary_hash));
    }
  }

  if (!report_file.empty()) {
    if (!report.WriteJson(report_file)) {
      std::fprintf(stderr, "cannot write %s\n", report_file.c_str());
      return 2;
    }
    std::printf("report: %s\n", report_file.c_str());
  }

  if (!report.AllPassed()) {
    std::printf("\nviolations:\n");
    for (const RunResult& r : report.runs) {
      for (const Violation& v : r.violations) {
        std::printf("  [%s] %s\n    reproduce: %s\n", v.oracle.c_str(),
                    v.detail.c_str(), v.reproducer.c_str());
        if (!v.blame.empty()) {
          std::printf("    blame: %s\n", v.blame.c_str());
        }
      }
      // The flight-recorder timeline is identical for every violation of a
      // run: print it once, indented, after the run's violations.
      if (!r.violations.empty() && !r.violations.front().timeline.empty()) {
        std::istringstream lines(r.violations.front().timeline);
        std::string line;
        while (std::getline(lines, line)) {
          std::printf("    %s\n", line.c_str());
        }
      }
    }
    return 1;
  }
  std::printf("all oracles green\n");
  return 0;
}
