#include "src/chaos/runner.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "src/adversary/adversary.h"
#include "src/chaos/executor.h"
#include "src/common/hash.h"
#include "src/obs/json.h"
#include "src/obs/postmortem.h"
#include "src/workload/engine.h"

namespace autonet {
namespace chaos {

namespace {

// The smallest topologies: a pair, and a triangle (the smallest topology
// where a cut leaves redundancy, so position races have real alternatives
// to disagree about, and the SLO smoke topology — a cable cut must be a
// pause, not a partition).
TopoSpec MakeSmall(int switches) {
  TopoSpec spec;
  for (int i = 0; i < switches; ++i) {
    spec.AddSwitch("s" + std::to_string(i));
  }
  spec.Cable(0, 1);
  if (switches == 3) {
    spec.Cable(1, 2);
    spec.Cable(0, 2);
  }
  for (int i = 0; i < switches; ++i) {
    spec.AddHost(i);
  }
  return spec;
}

struct NamedTopology {
  const char* name;
  TopoSpec (*make)();
};

// The registry, in AllTopologyNames() order.
constexpr NamedTopology kTopologies[] = {
    {"line6", [] { return MakeLine(6, 1); }},
    {"ring8", [] { return MakeRing(8, 1); }},
    {"torus3x3", [] { return MakeTorus(3, 3, 1); }},
    {"torus4x4", [] { return MakeTorus(4, 4, 1); }},
    {"tree2x3", [] { return MakeTree(2, 3, 1); }},
    {"random12", [] { return MakeRandom(12, 4, /*seed=*/7, 1); }},
    {"srclan16", [] { return MakeSrcLan(16); }},
    {"small3", [] { return MakeSmall(3); }},
    {"pair2", [] { return MakeSmall(2); }},
    {"line3", [] { return MakeLine(3, 1); }},
    {"ring4", [] { return MakeRing(4, 1); }},
};

}  // namespace

TopoSpec TopologyByName(const std::string& name, std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  for (const NamedTopology& t : kTopologies) {
    if (name == t.name) {
      return t.make();
    }
  }
  if (error != nullptr) {
    *error = "unknown topology '" + name + "'";
  }
  return TopoSpec();
}

std::vector<std::string> StandardTopologyNames() {
  return {"line6", "ring8", "torus3x3"};
}

std::vector<std::string> AllTopologyNames() {
  std::vector<std::string> names;
  for (const NamedTopology& t : kTopologies) {
    names.push_back(t.name);
  }
  return names;
}

Tick ConvergenceDeadline(Network& net) {
  return net.sim().now() + kConvergenceBase +
         kConvergencePerHop * HealthyDiameter(net);
}

std::string BootToBaseline(Network& net) {
  // Arm the flight recorder for every run: recording writes only to the
  // recorder's own rings, so the log and metrics fingerprints are
  // unaffected, and a failed run can be explained post mortem.
  net.sim().flight().Arm();
  net.Boot();
  // The fault script is judged from a converged baseline, so a violation
  // means the *script's* consequences broke an invariant rather than a
  // cold-boot race.
  Tick deadline = ConvergenceDeadline(net);
  if (!net.WaitForConsistency(deadline)) {
    return "no consistent boot configuration by t=" + FormatTime(deadline);
  }
  net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond);
  return "";
}

Tick Judge(Network& net, const std::vector<std::unique_ptr<Oracle>>& oracles,
           const std::string& reproducer, std::uint64_t start_epoch,
           int faults, std::vector<Violation>* violations) {
  OracleContext ctx;
  ctx.net = &net;
  ctx.deadline = ConvergenceDeadline(net);
  ctx.start_epoch = start_epoch;
  ctx.faults = faults;
  for (const auto& oracle : oracles) {
    std::string detail = oracle->Check(ctx);
    if (!detail.empty()) {
      violations->push_back({oracle->name(), detail, reproducer, "", ""});
    }
  }
  return ctx.converged_at;
}

void AttachPostMortem(Network& net, std::vector<Violation>* violations,
                      obs::PostMortem* postmortem) {
  if (violations->empty() && postmortem == nullptr) {
    return;
  }
  obs::PostMortem pm = obs::PostMortem::Build(net.sim().flight());
  if (!violations->empty()) {
    std::string timeline = pm.RenderText();
    std::string blame =
        pm.epochs().empty() ? "" : pm.epochs().back().BlameChain();
    for (Violation& v : *violations) {
      v.blame = blame;
      v.timeline = timeline;
    }
  }
  if (postmortem != nullptr) {
    *postmortem = std::move(pm);
  }
}

std::uint64_t HashMergedLog(const Network& net) {
  std::uint64_t h = kFnvOffset;
  for (const LogEntry& e : net.MergedLog()) {
    h = Fnv1a(h, &e.time, sizeof e.time);
    h = Fnv1a(h, e.node);
    h = Fnv1a(h, e.message);
  }
  return h;
}

int ResolveJobs(int jobs) {
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
  }
  return std::max(1, jobs);
}

void ParallelFor(std::size_t n, int jobs,
                 const std::function<void(int worker, std::size_t i)>& fn) {
  if (n == 0) {
    return;
  }
  int workers = std::max(1, std::min<int>(jobs, static_cast<int>(n)));
  std::atomic<std::size_t> next{0};
  auto worker = [&](int w) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(w, i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back(worker, w);
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

double WallMsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

RunResult RunOne(const CampaignConfig& config, const Scenario& scenario,
                 const TopologyCase& topo, std::uint64_t seed,
                 obs::MetricRegistry* merge_metrics,
                 obs::PostMortem* postmortem) {
  auto t0 = std::chrono::steady_clock::now();
  RunResult result;
  result.scenario = scenario.name;
  result.topology = topo.name;
  result.seed = seed;

  // Scenario-level workload wins; a campaign-level one must appear in the
  // reproducer line (a scenario-level one replays from the scenario text).
  const workload::Spec& wl =
      scenario.workload.enabled() ? scenario.workload : config.workload;
  const adversary::Spec& adv =
      scenario.adversary.enabled() ? scenario.adversary : config.adversary;
  std::string reproducer = "chaosrun --scenario " + scenario.name +
                           " --topo " + topo.name + " --seed " +
                           std::to_string(seed);
  if (config.workload.enabled() && !scenario.workload.enabled()) {
    reproducer += " --workload '" + config.workload.ToText() + "'";
  }
  if (config.adversary.enabled() && !scenario.adversary.enabled()) {
    reproducer += " --adversary '" + config.adversary.ToText() + "'";
  }

  Network net(topo.spec);
  net.sim().SetPerByteReference(config.per_byte_reference);
  std::string boot = BootToBaseline(net);
  if (!boot.empty()) {
    result.violations.push_back({"bootstrap", boot, reproducer, "", ""});
    AttachPostMortem(net, &result.violations, postmortem);
    result.ok = false;
    result.wall_ms = WallMsSince(t0);
    return result;
  }

  // Workload phase 1: steady state — the latency baseline and the proof
  // that a quiet network has zero outage windows.
  std::unique_ptr<workload::WorkloadEngine> engine;
  if (wl.enabled()) {
    engine = std::make_unique<workload::WorkloadEngine>(
        &net, wl, workload::SloBudgetConfig{}, HealthyDiameter(net));
    engine->Start();
    net.Run(config.slo_steady);
    engine->SetPhase(workload::Phase::kFault);
  }

  ScenarioExecutor executor(&net, scenario, seed);
  Tick script_start = net.sim().now();
  std::uint64_t start_epoch = MaxLiveEpoch(net);
  executor.Schedule(script_start);
  // The adversary engine is armed at script start and polls live network
  // state; the run must be driven until it retires (its final heal executes
  // at end()), so the oracle battery judges the network, not an unfinished
  // attack.
  std::unique_ptr<adversary::Engine> adv_engine;
  if (adv.enabled()) {
    adv_engine = std::make_unique<adversary::Engine>(&net, adv, seed);
    adv_engine->Arm(script_start);
  }
  Tick run_until = executor.script_end();
  if (adv_engine != nullptr) {
    run_until = std::max(run_until, adv_engine->end());
  }
  if (run_until > net.sim().now()) {
    net.Run(run_until - net.sim().now());
  }
  result.resolved_actions = executor.resolved();
  int faults = static_cast<int>(result.resolved_actions.size());
  if (adv_engine != nullptr) {
    faults += adv_engine->faults();
  }

  Tick converged_at =
      Judge(net, config.oracles ? config.oracles() : StandardOracles(),
            reproducer, start_epoch, faults, &result.violations);

  // Workload phases 2+3: the fault phase ran concurrently with the script
  // and the oracle battery's wait for quiescence; now sample recovery,
  // drain, and judge the SLOs.  A run that never converged is judged by the
  // convergence oracle alone — its SLO numbers are reported but not judged
  // (there is no "after quiescence" to hold the workload to).
  if (engine != nullptr) {
    if (converged_at >= 0) {
      engine->SetPhase(workload::Phase::kRecovery);
      net.Run(config.slo_recovery);
    }
    engine->Stop();
    Tick drain_deadline = net.sim().now() + config.slo_drain;
    while (!engine->Drained() && net.sim().now() < drain_deadline) {
      net.Run(10 * kMillisecond);
    }
    workload::SloReport slo = engine->Finalize();
    result.workload = wl.ToText();
    result.slo_json = slo.ToJson();
    result.slo_max_outage_ms = slo.max_outage_ms;
    result.slo_steady_p999_ms = slo.steady_latency_ms.Percentile(99.9);
    result.slo_recovery_p999_ms = slo.recovery_latency_ms.Percentile(99.9);
    result.slo_ops = slo.completed;
    result.slo_recovery_lost = slo.recovery_lost;
    result.slo_outage_windows = slo.outage_windows;
    if (converged_at >= 0) {
      for (const auto& [oracle, detail] : workload::JudgeSlo(slo)) {
        result.violations.push_back({oracle, detail, reproducer, "", ""});
      }
    }
  }
  if (adv_engine != nullptr) {
    result.adversary = adv.ToText();
    result.adversary_transcript = adv_engine->transcript();
    result.adversary_hash = adv_engine->TranscriptHash();
    result.adversary_moves = adv_engine->moves_made();
  }
  AttachPostMortem(net, &result.violations, postmortem);

  if (converged_at >= 0) {
    result.converge_ms = static_cast<double>(converged_at - script_start) / 1e6;
  }
  Tick wave = net.LastReconfig().Duration();
  if (wave >= 0) {
    result.reconfig_ms = static_cast<double>(wave) / 1e6;
  }

  result.log_hash = HashMergedLog(net);
  result.metrics_hash = Fnv1a(kFnvOffset, net.DumpMetricsJson());
  result.data_hash = net.sim().data_digest();
  if (merge_metrics != nullptr) {
    merge_metrics->MergeFrom(net.sim().metrics());
  }
  result.ok = result.violations.empty();
  result.wall_ms = WallMsSince(t0);
  return result;
}

CampaignReport RunCampaign(const CampaignConfig& config) {
  auto t0 = std::chrono::steady_clock::now();
  CampaignReport report;

  struct RunKey {
    const Scenario* scenario;
    const TopologyCase* topo;
    std::uint64_t seed;
  };
  std::vector<RunKey> keys;
  for (const Scenario& s : config.scenarios) {
    for (const TopologyCase& t : config.topologies) {
      for (std::uint64_t seed : config.seeds) {
        keys.push_back({&s, &t, seed});
      }
    }
  }
  report.runs.resize(keys.size());
  report.jobs = std::min(ResolveJobs(config.jobs),
                         std::max(1, static_cast<int>(keys.size())));

  // Each worker owns a metric registry; results land in distinct slots.  No
  // locks anywhere on the run path.
  std::vector<obs::MetricRegistry> worker_metrics(report.jobs);
  ParallelFor(keys.size(), report.jobs, [&](int w, std::size_t i) {
    const RunKey& key = keys[i];
    report.runs[i] = RunOne(config, *key.scenario, *key.topo, key.seed,
                            &worker_metrics[w]);
  });

  for (const obs::MetricRegistry& m : worker_metrics) {
    report.metrics.MergeFrom(m);
  }
  for (const RunResult& r : report.runs) {
    if (r.ok) {
      ++report.passed;
    } else {
      ++report.failed;
    }
    if (r.reconfig_ms >= 0) {
      report.reconfig_ms.Add(r.reconfig_ms);
    }
    if (r.converge_ms >= 0) {
      report.converge_ms.Add(r.converge_ms);
    }
    if (!r.workload.empty() && r.slo_max_outage_ms >= 0) {
      report.slo_outage_ms.Add(r.slo_max_outage_ms);
    }
    report.run_wall_ms.Add(r.wall_ms);
  }
  report.wall_ms = WallMsSince(t0);
  return report;
}

std::vector<std::string> CampaignReport::ReproducerLines() const {
  std::vector<std::string> lines;
  for (const RunResult& r : runs) {
    for (const Violation& v : r.violations) {
      lines.push_back(v.reproducer);
    }
  }
  return lines;
}

namespace {

void WriteHistogram(JsonWriter& w, const char* key, const Histogram& h) {
  w.Key(key).BeginObject();
  w.Key("count").UInt(h.count());
  w.Key("min").Number(h.Min());
  w.Key("max").Number(h.Max());
  w.Key("mean").Number(h.Mean());
  w.Key("p50").Number(h.Percentile(50));
  w.Key("p99").Number(h.Percentile(99));
  w.EndObject();
}

}  // namespace

std::string CampaignReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();

  w.Key("campaign").BeginObject();
  w.Key("runs").UInt(runs.size());
  w.Key("passed").Int(passed);
  w.Key("failed").Int(failed);
  w.Key("jobs").Int(jobs);
  w.Key("wall_ms").Number(wall_ms);
  if (jobs1_wall_ms >= 0) {
    w.Key("jobs1_wall_ms").Number(jobs1_wall_ms);
    w.Key("speedup_vs_jobs1")
        .Number(wall_ms > 0 ? jobs1_wall_ms / wall_ms : 0.0);
  }
  w.EndObject();

  // Violation counts per oracle, then the individual violations with their
  // reproducer lines (the campaign's actionable output).
  std::map<std::string, int> per_oracle;
  for (const RunResult& r : runs) {
    for (const Violation& v : r.violations) {
      ++per_oracle[v.oracle];
    }
  }
  w.Key("oracle_violations").BeginObject();
  for (const auto& [oracle, count] : per_oracle) {
    w.Key(oracle).Int(count);
  }
  w.EndObject();

  w.Key("violations").BeginArray();
  for (const RunResult& r : runs) {
    for (const Violation& v : r.violations) {
      w.BeginObject();
      w.Key("scenario").String(r.scenario);
      w.Key("topology").String(r.topology);
      w.Key("seed").UInt(r.seed);
      w.Key("oracle").String(v.oracle);
      w.Key("detail").String(v.detail);
      w.Key("reproducer").String(v.reproducer);
      w.Key("blame").String(v.blame);
      w.Key("timeline").String(v.timeline);
      w.EndObject();
    }
  }
  w.EndArray();

  w.Key("timings").BeginObject();
  WriteHistogram(w, "reconfig_ms", reconfig_ms);
  WriteHistogram(w, "converge_ms", converge_ms);
  WriteHistogram(w, "run_wall_ms", run_wall_ms);
  if (slo_outage_ms.count() > 0) {
    WriteHistogram(w, "slo_outage_ms", slo_outage_ms);
  }
  w.EndObject();

  w.Key("runs").BeginArray();
  for (const RunResult& r : runs) {
    w.BeginObject();
    w.Key("scenario").String(r.scenario);
    w.Key("topology").String(r.topology);
    w.Key("seed").UInt(r.seed);
    w.Key("ok").Bool(r.ok);
    w.Key("converge_ms").Number(r.converge_ms);
    w.Key("reconfig_ms").Number(r.reconfig_ms);
    w.Key("log_hash").String(HexU64(r.log_hash));
    w.Key("metrics_hash").String(HexU64(r.metrics_hash));
    w.Key("data_hash").String(HexU64(r.data_hash));
    w.Key("wall_ms").Number(r.wall_ms);
    if (!r.workload.empty()) {
      // Resolved workload + full SLO accounting, embedded per run so a
      // report is self-describing about what load the verdicts were under.
      w.Key("workload").String(r.workload);
      w.Key("slo").Raw(r.slo_json);
    }
    if (!r.adversary.empty()) {
      // The armed adversary and its full move transcript, embedded per run
      // so an adversarial report is self-describing about what the network
      // survived (or didn't).
      w.Key("adversary").String(r.adversary);
      w.Key("adversary_hash").String(HexU64(r.adversary_hash));
      w.Key("adversary_moves").Int(r.adversary_moves);
      w.Key("adversary_transcript").BeginArray();
      for (const std::string& line : r.adversary_transcript) {
        w.String(line);
      }
      w.EndArray();
    }
    w.Key("actions").BeginArray();
    for (const std::string& a : r.resolved_actions) {
      w.String(a);
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  w.Key("metrics").Raw(metrics.SnapshotJson());
  w.EndObject();
  return w.Take();
}

bool CampaignReport::WriteJson(const std::string& path) const {
  return WriteFile(path, ToJson());
}

}  // namespace chaos
}  // namespace autonet
