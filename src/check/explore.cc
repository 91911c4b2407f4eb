#include "src/check/explore.h"

#include <chrono>
#include <map>

#include "src/common/hash.h"
#include "src/common/tokens.h"
#include "src/obs/json.h"

namespace autonet {
namespace check {

namespace {

// --- fault grammar: "cut<c>", "crash<s>", optionally "+restore",
// "+restart", or "+cut<c2>" ---

struct FaultPlan {
  enum class Primary { kCut, kCrash };
  enum class Secondary { kNone, kRestore, kRestart, kCut2 };
  Primary primary = Primary::kCut;
  unsigned primary_idx = 0;
  Secondary secondary = Secondary::kNone;
  unsigned secondary_idx = 0;
};

// Bound on every index in a schedule id.  Indices parse as unsigned, so a
// leading '-' is rejected rather than read as a negative index.
constexpr unsigned kMaxIndex = 1000000;

bool ParseFault(const std::string& text, const TopoSpec& spec,
                FaultPlan* plan, std::string* error) {
  auto fail = [&](const std::string& what) {
    *error = "bad fault '" + text + "': " + what;
    return false;
  };
  std::size_t plus = text.find('+');
  std::string primary = text.substr(0, plus);
  if (primary.rfind("cut", 0) == 0) {
    plan->primary = FaultPlan::Primary::kCut;
    if (!ParseNumber(primary.substr(3), 0u, kMaxIndex, &plan->primary_idx) ||
        plan->primary_idx >= spec.cables.size()) {
      return fail("cable index out of range");
    }
  } else if (primary.rfind("crash", 0) == 0) {
    plan->primary = FaultPlan::Primary::kCrash;
    if (!ParseNumber(primary.substr(5), 0u, kMaxIndex, &plan->primary_idx) ||
        plan->primary_idx >= spec.switches.size()) {
      return fail("switch index out of range");
    }
  } else {
    return fail("expected cut<N> or crash<N>");
  }
  if (plus == std::string::npos) {
    plan->secondary = FaultPlan::Secondary::kNone;
    return true;
  }
  std::string secondary = text.substr(plus + 1);
  if (secondary == "restore") {
    if (plan->primary != FaultPlan::Primary::kCut) {
      return fail("restore follows only cut");
    }
    plan->secondary = FaultPlan::Secondary::kRestore;
  } else if (secondary == "restart") {
    if (plan->primary != FaultPlan::Primary::kCrash) {
      return fail("restart follows only crash");
    }
    plan->secondary = FaultPlan::Secondary::kRestart;
  } else if (secondary.rfind("cut", 0) == 0) {
    plan->secondary = FaultPlan::Secondary::kCut2;
    if (!ParseNumber(secondary.substr(3), 0u, kMaxIndex,
                     &plan->secondary_idx) ||
        plan->secondary_idx >= spec.cables.size()) {
      return fail("second cable index out of range");
    }
  } else {
    return fail("expected restore, restart, or cut<N> after +");
  }
  return true;
}

void ApplyPrimary(Network& net, const FaultPlan& plan) {
  if (plan.primary == FaultPlan::Primary::kCut) {
    net.CutCable(plan.primary_idx);
  } else {
    net.CrashSwitch(plan.primary_idx);
  }
}

void ApplySecondary(Network& net, const FaultPlan& plan) {
  switch (plan.secondary) {
    case FaultPlan::Secondary::kNone:
      break;
    case FaultPlan::Secondary::kRestore:
      net.RestoreCable(plan.primary_idx);
      break;
    case FaultPlan::Secondary::kRestart:
      net.RestartSwitch(plan.primary_idx);
      break;
    case FaultPlan::Secondary::kCut2:
      net.CutCable(plan.secondary_idx);
      break;
  }
}

}  // namespace

std::vector<std::string> FaultMatrix(const TopoSpec& spec) {
  std::vector<std::string> faults;
  int cables = static_cast<int>(spec.cables.size());
  int switches = static_cast<int>(spec.switches.size());
  for (int c = 0; c < cables; ++c) {
    faults.push_back("cut" + std::to_string(c));
    faults.push_back("cut" + std::to_string(c) + "+restore");
  }
  for (int s = 0; s < switches; ++s) {
    faults.push_back("crash" + std::to_string(s));
    faults.push_back("crash" + std::to_string(s) + "+restart");
  }
  for (int c = 0; c < cables; ++c) {
    for (int c2 = c + 1; c2 < cables; ++c2) {
      faults.push_back("cut" + std::to_string(c) + "+cut" +
                       std::to_string(c2));
    }
  }
  return faults;
}

const std::vector<Tick>& DefaultOffsets() {
  static const std::vector<Tick> kOffsets = {
      0,
      100 * kMicrosecond,
      1 * kMillisecond,
      5 * kMillisecond,
      20 * kMillisecond,
      60 * kMillisecond,
      120 * kMillisecond,
      250 * kMillisecond,
  };
  return kOffsets;
}

std::string ScheduleId::ToString() const {
  std::string s = topo;
  s += ":";
  s += fault;
  s += ":o";
  s += std::to_string(offset_index);
  s += ":";
  if (deviations.empty()) {
    s += "-";
    return s;
  }
  for (std::size_t i = 0; i < deviations.size(); ++i) {
    if (i > 0) {
      s += "+";
    }
    s += "d" + std::to_string(deviations[i].first) + "." +
         std::to_string(deviations[i].second);
  }
  return s;
}

std::optional<ScheduleId> ScheduleId::FromString(const std::string& text) {
  std::size_t p1 = text.find(':');
  std::size_t p2 = p1 == std::string::npos ? std::string::npos
                                           : text.find(':', p1 + 1);
  std::size_t p3 = p2 == std::string::npos ? std::string::npos
                                           : text.find(':', p2 + 1);
  if (p3 == std::string::npos || text.find(':', p3 + 1) != std::string::npos) {
    return std::nullopt;
  }
  ScheduleId id;
  id.topo = text.substr(0, p1);
  id.fault = text.substr(p1 + 1, p2 - p1 - 1);
  std::string off = text.substr(p2 + 1, p3 - p2 - 1);
  unsigned offset_index = 0;
  if (off.size() < 2 || off[0] != 'o' ||
      !ParseNumber(off.substr(1), 0u, kMaxIndex, &offset_index)) {
    return std::nullopt;
  }
  id.offset_index = static_cast<int>(offset_index);
  std::string devs = text.substr(p3 + 1);
  if (id.topo.empty() || id.fault.empty() || devs.empty()) {
    return std::nullopt;
  }
  if (devs == "-") {
    return id;
  }
  std::size_t pos = 0;
  while (pos < devs.size()) {
    std::size_t plus = devs.find('+', pos);
    std::string one = devs.substr(pos, plus == std::string::npos
                                           ? std::string::npos
                                           : plus - pos);
    std::size_t dot = one.find('.');
    if (one.size() < 4 || one[0] != 'd' || dot == std::string::npos) {
      return std::nullopt;
    }
    unsigned idx = 0;
    unsigned choice = 0;
    if (!ParseNumber(one.substr(1, dot - 1), 0u, kMaxIndex, &idx) ||
        !ParseNumber(one.substr(dot + 1), 1u, kMaxIndex, &choice)) {
      return std::nullopt;
    }
    id.deviations.emplace_back(static_cast<int>(idx), choice);
    pos = plus == std::string::npos ? devs.size() : plus + 1;
  }
  return id;
}

ScheduleResult RunSchedule(const ExploreConfig& config, const ScheduleId& id,
                           obs::PostMortem* postmortem) {
  auto t0 = std::chrono::steady_clock::now();
  ScheduleResult result;
  result.id = id.ToString();
  std::string reproducer = "protocheck --replay " + result.id;
  auto violate = [&](const std::string& oracle, const std::string& detail) {
    result.violations.push_back({oracle, detail, reproducer, "", ""});
  };
  auto finish = [&] {
    result.ok = result.violations.empty();
    result.wall_ms = chaos::WallMsSince(t0);
    return result;
  };

  std::string error;
  TopoSpec spec = chaos::TopologyByName(id.topo, &error);
  if (!error.empty()) {
    violate("setup", error);
    return finish();
  }
  const std::vector<Tick>& offsets =
      config.offsets.empty() ? DefaultOffsets() : config.offsets;
  if (id.offset_index < 0 ||
      id.offset_index >= static_cast<int>(offsets.size())) {
    violate("setup", "offset index out of range");
    return finish();
  }
  FaultPlan plan;
  if (!ParseFault(id.fault, spec, &plan, &error)) {
    violate("setup", error);
    return finish();
  }

  Network net(spec);
  std::string boot = chaos::BootToBaseline(net);
  if (!boot.empty()) {
    violate("bootstrap", boot);
    chaos::AttachPostMortem(net, &result.violations, postmortem);
    return finish();
  }

  Simulator& sim = net.sim();
  std::uint64_t start_epoch = chaos::MaxLiveEpoch(net);
  Tick t_fault = sim.now() + 50 * kMillisecond;
  Tick offset = offsets[id.offset_index];
  Tick t_end = t_fault + offset + config.chooser_window;

  // Decision bookkeeping, shared with the chooser while it is installed.
  struct Recorder {
    int count = 0;
    int dropped = 0;
    std::vector<std::uint32_t> branch;
  } rec;
  std::map<int, std::uint32_t> devmap(id.deviations.begin(),
                                      id.deviations.end());
  int max_points = config.max_decision_points;

  sim.ScheduleAt(t_fault, [&] {
    ApplyPrimary(net, plan);
    sim.SetTieChooser([&rec, &devmap, max_points](Tick, std::uint32_t n) {
      int i = rec.count++;
      if (i >= max_points) {
        ++rec.dropped;
        return 0u;
      }
      rec.branch.push_back(n);
      auto it = devmap.find(i);
      std::uint32_t c = it != devmap.end() ? it->second : 0u;
      return c < n ? c : 0u;
    });
  });
  if (plan.secondary != FaultPlan::Secondary::kNone) {
    sim.ScheduleAt(t_fault + offset, [&] { ApplySecondary(net, plan); });
  }
  sim.ScheduleAt(t_end, [&] { sim.SetTieChooser(nullptr); });
  net.Run(t_end - sim.now() + kMillisecond);

  int faults = plan.secondary != FaultPlan::Secondary::kNone ? 2 : 1;
  chaos::Judge(net, chaos::StandardOracles(), reproducer, start_epoch, faults,
               &result.violations);

  result.decision_points = rec.count;
  result.dropped_decisions = rec.dropped;
  result.branch_factors = std::move(rec.branch);
  result.log_hash = chaos::HashMergedLog(net);
  chaos::AttachPostMortem(net, &result.violations, postmortem);
  return finish();
}

ExploreReport Explore(const ExploreConfig& config) {
  auto t0 = std::chrono::steady_clock::now();
  ExploreReport report;
  report.topo = config.topo;

  std::string error;
  TopoSpec spec = chaos::TopologyByName(config.topo, &error);
  if (!error.empty()) {
    ScheduleResult bad;
    bad.id = config.topo;
    bad.violations.push_back({"setup", error, "", "", ""});
    report.runs.push_back(std::move(bad));
    report.failed = 1;
    report.wall_ms = chaos::WallMsSince(t0);
    return report;
  }

  const std::vector<Tick>& offsets =
      config.offsets.empty() ? DefaultOffsets() : config.offsets;
  report.jobs = chaos::ResolveJobs(config.jobs);

  // Phase 1: baselines.  Offsets only matter to two-part faults (the offset
  // separates primary from secondary); single faults run at offset 0 only.
  std::vector<ScheduleId> baselines;
  for (const std::string& fault : FaultMatrix(spec)) {
    bool two_part = fault.find('+') != std::string::npos;
    int noffsets = two_part ? static_cast<int>(offsets.size()) : 1;
    for (int oi = 0; oi < noffsets; ++oi) {
      ScheduleId id;
      id.topo = config.topo;
      id.fault = fault;
      id.offset_index = oi;
      baselines.push_back(std::move(id));
    }
  }
  std::uint64_t budget = config.budget > 0 ? config.budget : 1;
  if (baselines.size() > budget) {
    report.schedules_skipped += baselines.size() - budget;
    baselines.resize(budget);
  }
  report.baselines = static_cast<int>(baselines.size());

  std::vector<ScheduleResult> base_results(baselines.size());
  chaos::ParallelFor(baselines.size(), report.jobs, [&](int, std::size_t i) {
    base_results[i] = RunSchedule(config, baselines[i]);
  });

  // Phase 2: every single deviation each baseline exposed, until the budget
  // is spent.  Deviations beyond the budget (and decision points beyond
  // max_decision_points) are counted, not silently dropped.
  std::uint64_t remaining = budget - baselines.size();
  std::vector<ScheduleId> deviations;
  for (std::size_t b = 0; b < base_results.size(); ++b) {
    report.dropped_decisions +=
        static_cast<std::uint64_t>(base_results[b].dropped_decisions);
    const std::vector<std::uint32_t>& branch = base_results[b].branch_factors;
    for (std::size_t i = 0; i < branch.size(); ++i) {
      for (std::uint32_t c = 1; c < branch[i]; ++c) {
        ++report.deviations_possible;
        if (deviations.size() < remaining) {
          ScheduleId id = baselines[b];
          id.deviations.emplace_back(static_cast<int>(i), c);
          deviations.push_back(std::move(id));
        }
      }
    }
  }
  report.schedules_skipped +=
      report.deviations_possible - deviations.size();

  std::vector<ScheduleResult> dev_results(deviations.size());
  chaos::ParallelFor(deviations.size(), report.jobs, [&](int, std::size_t i) {
    dev_results[i] = RunSchedule(config, deviations[i]);
  });
  // Deviation runs hit max_decision_points too; without this the report
  // undercounted dropped decision points by the whole phase-2 sweep.
  for (const ScheduleResult& r : dev_results) {
    report.dropped_decisions += static_cast<std::uint64_t>(r.dropped_decisions);
  }

  report.runs = std::move(base_results);
  report.runs.insert(report.runs.end(),
                     std::make_move_iterator(dev_results.begin()),
                     std::make_move_iterator(dev_results.end()));
  for (const ScheduleResult& r : report.runs) {
    if (r.ok) {
      ++report.passed;
    } else {
      ++report.failed;
    }
  }
  report.wall_ms = chaos::WallMsSince(t0);
  return report;
}

std::vector<std::string> ExploreReport::ReproducerLines() const {
  std::vector<std::string> lines;
  for (const ScheduleResult& r : runs) {
    for (const chaos::Violation& v : r.violations) {
      lines.push_back(v.reproducer);
    }
  }
  return lines;
}

std::string ExploreReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("explore").BeginObject();
  w.Key("topo").String(topo);
  w.Key("schedules").UInt(runs.size());
  w.Key("baselines").Int(baselines);
  w.Key("passed").Int(passed);
  w.Key("failed").Int(failed);
  w.Key("deviations_possible").UInt(deviations_possible);
  w.Key("schedules_skipped").UInt(schedules_skipped);
  w.Key("dropped_decisions").UInt(dropped_decisions);
  w.Key("jobs").Int(jobs);
  w.Key("wall_ms").Number(wall_ms);
  w.EndObject();

  w.Key("violations").BeginArray();
  for (const ScheduleResult& r : runs) {
    for (const chaos::Violation& v : r.violations) {
      w.BeginObject();
      w.Key("schedule").String(r.id);
      w.Key("oracle").String(v.oracle);
      w.Key("detail").String(v.detail);
      w.Key("reproducer").String(v.reproducer);
      w.EndObject();
    }
  }
  w.EndArray();

  w.Key("runs").BeginArray();
  for (const ScheduleResult& r : runs) {
    w.BeginObject();
    w.Key("id").String(r.id);
    w.Key("ok").Bool(r.ok);
    w.Key("decision_points").Int(r.decision_points);
    w.Key("dropped_decisions").Int(r.dropped_decisions);
    w.Key("log_hash").String(HexU64(r.log_hash));
    w.Key("wall_ms").Number(r.wall_ms);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

bool ExploreReport::WriteJson(const std::string& path) const {
  return WriteFile(path, ToJson());
}

}  // namespace check
}  // namespace autonet
