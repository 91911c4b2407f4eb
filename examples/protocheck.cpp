// Protocol correctness CLI: the deterministic message fuzzer and the bounded
// interleaving explorer.  Exit status is 0 only when every check held;
// otherwise each finding is printed with a one-line reproducer, so a failure
// anywhere reduces to a single replayable command.
//
//   protocheck --fuzz 20000 --fuzz-seed 1   round-trip fuzz every parser
//   protocheck --corpus FILE                check a committed corpus file
//   protocheck --sweep small3 --budget 50000
//                                           explore same-tick interleavings
//                                           around epoch transitions
//   protocheck --replay small3:cut0+restore:o3:d12.1
//                                           replay one schedule (the
//                                           reproducer form)
//   protocheck --report out.json            write the sweep report
//
// Mutated bodies delivered into a live network are the adversary's `fuzz`
// strategy: `chaosrun --scenario adv-fuzz --topo small3 --seed 0`.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/check/explore.h"
#include "src/check/fuzz.h"
#include "src/common/tokens.h"

using namespace autonet;
using namespace autonet::check;

namespace {

constexpr int kMaxInt = std::numeric_limits<int>::max();
constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --fuzz N          round-trip fuzz cases per message type\n"
      "  --fuzz-seed S     fuzzer seed (default 1)\n"
      "  --corpus FILE     check a corpus of <type>:<accept|reject>:<hex>\n"
      "  --sweep TOPO      explore interleavings on this topology\n"
      "  --budget N        schedule budget for the sweep (default 50000)\n"
      "  --max-points N    decision points recorded per schedule (default 64)\n"
      "  --replay ID       replay one schedule id\n"
      "  --jobs N          worker threads (default: hardware concurrency)\n"
      "  --report FILE     write the sweep's JSON report\n"
      "  --list            print known topologies, run nothing\n",
      argv0);
  return 2;
}

void PrintFindings(const std::vector<FuzzFinding>& findings) {
  for (const FuzzFinding& f : findings) {
    std::printf("  [%s/%s] %s\n", f.type.empty() ? "net" : f.type.c_str(),
                f.mutation.c_str(), f.detail.c_str());
    if (!f.hex.empty()) {
      std::printf("    body: %s\n", f.hex.c_str());
    }
    if (!f.reproducer.empty()) {
      std::printf("    reproduce: %s\n", f.reproducer.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  int fuzz_cases = 0;
  std::uint64_t fuzz_seed = 1;
  std::string corpus_file;
  std::string sweep_topo;
  int budget = 50000;
  int max_points = 64;
  std::string replay_id;
  int jobs = 0;
  std::string report_file;
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
    if (arg == "--fuzz") {
      if (!number(1, kMaxInt, &fuzz_cases)) return Usage(argv[0]);
    } else if (arg == "--fuzz-seed") {
      if (!number(std::uint64_t{0}, kMaxSeed, &fuzz_seed)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--corpus") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      corpus_file = v;
    } else if (arg == "--sweep") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      sweep_topo = v;
    } else if (arg == "--budget") {
      if (!number(1, kMaxInt, &budget)) return Usage(argv[0]);
    } else if (arg == "--max-points") {
      if (!number(1, kMaxInt, &max_points)) return Usage(argv[0]);
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      replay_id = v;
    } else if (arg == "--jobs") {
      if (!number(0, kMaxInt, &jobs)) return Usage(argv[0]);
    } else if (arg == "--report") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      report_file = v;
    } else if (arg == "--list") {
      list_only = true;
    } else {
      return Usage(argv[0]);
    }
  }

  if (list_only) {
    std::printf("topologies:");
    for (const std::string& name : chaos::AllTopologyNames()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
    return 0;
  }
  if (fuzz_cases <= 0 && corpus_file.empty() && sweep_topo.empty() &&
      replay_id.empty()) {
    return Usage(argv[0]);
  }

  bool all_green = true;

  if (fuzz_cases > 0) {
    FuzzReport report = FuzzRoundTrip(fuzz_seed, fuzz_cases);
    std::printf("fuzz: %d cases (seed %llu): %d accepted, %d rejected, "
                "%zu findings\n",
                report.cases, static_cast<unsigned long long>(fuzz_seed),
                report.accepted, report.rejected, report.findings.size());
    PrintFindings(report.findings);
    all_green = all_green && report.ok();
  }

  if (!corpus_file.empty()) {
    std::vector<CorpusEntry> entries;
    std::string error;
    if (!LoadCorpus(corpus_file, &entries, &error)) {
      std::fprintf(stderr, "%s: %s\n", corpus_file.c_str(), error.c_str());
      return 2;
    }
    FuzzReport report = CheckCorpus(entries);
    std::printf("corpus: %d entries: %zu findings\n", report.cases,
                report.findings.size());
    PrintFindings(report.findings);
    all_green = all_green && report.ok();
  }

  if (!replay_id.empty()) {
    auto id = ScheduleId::FromString(replay_id);
    if (!id) {
      std::fprintf(stderr, "bad schedule id '%s'\n", replay_id.c_str());
      return 2;
    }
    ExploreConfig config;
    config.topo = id->topo;
    config.max_decision_points = max_points;
    ScheduleResult result = RunSchedule(config, *id);
    std::printf("replay %s: %s, %d decision points, log %016llx\n",
                result.id.c_str(), result.ok ? "ok" : "VIOLATION",
                result.decision_points,
                static_cast<unsigned long long>(result.log_hash));
    for (const chaos::Violation& v : result.violations) {
      std::printf("  [%s] %s\n    reproduce: %s\n", v.oracle.c_str(),
                  v.detail.c_str(), v.reproducer.c_str());
    }
    all_green = all_green && result.ok;
  }

  if (!sweep_topo.empty()) {
    ExploreConfig config;
    config.topo = sweep_topo;
    config.budget = budget;
    config.max_decision_points = max_points;
    config.jobs = jobs;
    ExploreReport report = Explore(config);
    std::printf(
        "sweep %s: %zu schedules (%d baselines, %llu deviations possible, "
        "%llu skipped, %llu dropped decisions) on %d workers in %.0f ms: "
        "%d passed, %d failed\n",
        report.topo.c_str(), report.runs.size(), report.baselines,
        static_cast<unsigned long long>(report.deviations_possible),
        static_cast<unsigned long long>(report.schedules_skipped),
        static_cast<unsigned long long>(report.dropped_decisions),
        report.jobs, report.wall_ms, report.passed, report.failed);
    if (!report_file.empty()) {
      if (!report.WriteJson(report_file)) {
        std::fprintf(stderr, "cannot write %s\n", report_file.c_str());
        return 2;
      }
      std::printf("report: %s\n", report_file.c_str());
    }
    if (!report.AllPassed()) {
      std::printf("\nviolations:\n");
      for (const ScheduleResult& r : report.runs) {
        for (const chaos::Violation& v : r.violations) {
          std::printf("  [%s] %s\n    reproduce: %s\n", v.oracle.c_str(),
                      v.detail.c_str(), v.reproducer.c_str());
        }
      }
    }
    all_green = all_green && report.AllPassed();
  }

  if (!all_green) {
    return 1;
  }
  std::printf("all checks green\n");
  return 0;
}
