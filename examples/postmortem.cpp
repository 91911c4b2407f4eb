// Post-mortem CLI: replays one run with the flight recorder armed and
// renders the reconstructed reconfiguration forensics — per-epoch blame
// chain, join wavefront, and convergence-phase breakdown.  Takes either
// a chaosrun reproducer line's coordinates or a protocheck schedule id,
// so any failure either harness reports can be turned into a timeline:
//
//   postmortem --scenario cable-cut --topo ring8 --seed 3
//   postmortem --schedule small3:cut0+restore:o3:d12.1
//   postmortem --scenario link-flap --topo line6 --seed 0 --events
//   postmortem --scenario cable-cut --topo ring8 --seed 3 --trace out.json
//                                     (Perfetto / chrome://tracing)
//   postmortem --scenario adv-corrupt-epoch --topo srclan16 --seed 1
//                                     (adversarial runs replay too: the
//                                      engine's moves land in the timeline
//                                      as flight events and the transcript
//                                      prints below the actions)
//   postmortem --scenario cable-cut-restore --topo line6 --seed 0
//              --workload 'rpc bytes 256 response 32 window 2 timeout 2s'
//                                     (campaign-level --workload and
//                                      --adversary flags, as chaosrun stamps
//                                      them into reproducer lines)
//
// Scenario mode replays through chaos::RunOne itself, workload and
// adversary included, so the timeline is the one a failed campaign
// attached to its violations.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/adversary/spec.h"
#include "src/chaos/corpus.h"
#include "src/chaos/runner.h"
#include "src/check/explore.h"
#include "src/common/tokens.h"
#include "src/obs/json.h"
#include "src/obs/postmortem.h"
#include "src/workload/spec.h"

using namespace autonet;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --scenario NAME --topo NAME --seed N [options]\n"
      "       %s --schedule ID [--events]\n"
      "  --scenario NAME   chaos scenario (chaos, SLO, and adversary\n"
      "                    built-in corpora are all searched)\n"
      "  --topo NAME       topology name (chaos registry)\n"
      "  --seed N          scenario seed (default 0)\n"
      "  --corpus FILE     scenario file instead of the built-in corpora\n"
      "  --workload SPEC   drive a campaign-level workload, as in chaosrun\n"
      "                    reproducer lines (scenario-level specs win)\n"
      "  --adversary SPEC  arm a campaign-level adversary, likewise\n"
      "  --schedule ID     protocheck schedule id instead of a scenario\n"
      "  --events          list every flight-recorder event per epoch\n"
      "  --trace FILE      write a Perfetto-compatible trace (scenario mode)\n",
      argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name;
  std::string topo_name;
  std::string corpus_file;
  std::string workload_text;
  std::string adversary_text;
  std::string schedule_id;
  std::string trace_file;
  std::uint64_t seed = 0;
  bool with_events = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--scenario") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      scenario_name = v;
    } else if (arg == "--topo") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      topo_name = v;
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr ||
          !ParseNumber(std::string(v), std::uint64_t{0},
                       std::numeric_limits<std::uint64_t>::max(), &seed)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--corpus") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      corpus_file = v;
    } else if (arg == "--workload") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      workload_text = v;
    } else if (arg == "--adversary") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      adversary_text = v;
    } else if (arg == "--schedule") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      schedule_id = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      trace_file = v;
    } else if (arg == "--events") {
      with_events = true;
    } else {
      return Usage(argv[0]);
    }
  }

  // --- protocheck schedule mode ---
  if (!schedule_id.empty()) {
    auto id = check::ScheduleId::FromString(schedule_id);
    if (!id.has_value()) {
      std::fprintf(stderr, "malformed schedule id '%s'\n",
                   schedule_id.c_str());
      return 2;
    }
    obs::PostMortem pm;
    check::ScheduleResult result =
        check::RunSchedule(check::ExploreConfig(), *id, &pm);
    for (const chaos::Violation& v : result.violations) {
      std::printf("[%s] %s\n", v.oracle.c_str(), v.detail.c_str());
    }
    std::printf("schedule %s: %s\n\n", result.id.c_str(),
                result.ok ? "all oracles green" : "VIOLATED");
    std::fputs(pm.RenderText(with_events).c_str(), stdout);
    return result.ok ? 0 : 1;
  }

  if (scenario_name.empty() || topo_name.empty()) {
    return Usage(argv[0]);
  }

  // --- chaosrun reproducer mode ---
  std::vector<chaos::Scenario> scenarios;
  std::string error;
  if (!chaos::LoadScenarios(corpus_file, &scenarios, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  scenarios = chaos::FilterScenarios(scenarios, {scenario_name});
  if (scenarios.empty()) {
    std::fprintf(stderr, "unknown scenario '%s'\n", scenario_name.c_str());
    return 2;
  }
  chaos::TopologyCase topo{topo_name,
                           chaos::TopologyByName(topo_name, &error)};
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  chaos::CampaignConfig config;
  if (!workload_text.empty() &&
      !workload::ParseSpecText(workload_text, &config.workload, &error)) {
    std::fprintf(stderr, "--workload: %s\n", error.c_str());
    return 2;
  }
  if (!adversary_text.empty() &&
      !adversary::ParseSpecText(adversary_text, &config.adversary, &error)) {
    std::fprintf(stderr, "--adversary: %s\n", error.c_str());
    return 2;
  }

  obs::PostMortem pm;
  chaos::RunResult result =
      chaos::RunOne(config, scenarios.front(), topo, seed, nullptr, &pm);
  for (const std::string& action : result.resolved_actions) {
    std::printf("action: %s\n", action.c_str());
  }
  for (const std::string& line : result.adversary_transcript) {
    std::printf("adversary: %s\n", line.c_str());
  }
  if (!result.workload.empty()) {
    std::printf("workload: %s: %llu ops, worst outage %.1f ms, lost %llu\n",
                result.workload.c_str(),
                static_cast<unsigned long long>(result.slo_ops),
                result.slo_max_outage_ms,
                static_cast<unsigned long long>(result.slo_recovery_lost));
  }
  for (const chaos::Violation& v : result.violations) {
    std::printf("[%s] %s\n", v.oracle.c_str(), v.detail.c_str());
  }
  std::printf("run %s --topo %s --seed %llu: %s\n\n", scenario_name.c_str(),
              topo_name.c_str(), static_cast<unsigned long long>(seed),
              result.ok ? "all oracles green" : "VIOLATED");

  std::fputs(pm.RenderText(with_events).c_str(), stdout);
  if (!trace_file.empty()) {
    if (!WriteFile(trace_file, pm.ToChromeTraceJson())) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
      return 2;
    }
    std::printf("trace: %s\n", trace_file.c_str());
  }
  return result.ok ? 0 : 1;
}
