#include "src/chaos/executor.h"

#include <algorithm>

#include "src/common/hash.h"

namespace autonet {
namespace chaos {

namespace {

// Mixes the scenario name into the run seed so the same seed produces
// independent victim choices in different scenarios while staying fully
// determined by (scenario, seed).
std::uint64_t MixSeed(std::uint64_t seed, const std::string& name) {
  return Fnv1a(kFnvOffset, name) ^ seed;
}

}  // namespace

ScenarioExecutor::ScenarioExecutor(Network* net, const Scenario& scenario,
                                   std::uint64_t seed)
    : net_(net), scenario_(scenario), rng_(MixSeed(seed, scenario.name)) {
  // Resolve every target up front, in script order, so resolution is a pure
  // function of (scenario, topology shape, seed) and does not depend on how
  // the simulation interleaves the scheduled actions.
  targets_.reserve(scenario_.actions.size());
  burst_targets_.resize(scenario_.actions.size());
  for (std::size_t i = 0; i < scenario_.actions.size(); ++i) {
    const Action& a = scenario_.actions[i];
    switch (a.kind) {
      case Action::Kind::kCrashSwitch:
      case Action::Kind::kRestartSwitch:
        targets_.push_back(Resolve(a, Domain::kSwitch));
        break;
      case Action::Kind::kCutHostLink:
      case Action::Kind::kRestoreHostLink:
        targets_.push_back(Resolve(a, Domain::kHost));
        break;
      case Action::Kind::kBurstCables:
        targets_.push_back(-1);
        burst_targets_[i] = ResolveDistinct(a.count, Domain::kCable);
        break;
      case Action::Kind::kBurstSwitches:
        targets_.push_back(-1);
        burst_targets_[i] = ResolveDistinct(a.count, Domain::kSwitch);
        break;
      default:
        targets_.push_back(Resolve(a, Domain::kCable));
        break;
    }
  }
  // The human-readable record is part of resolution, not execution: it is
  // identical across replays whether or not the script ever runs.
  for (std::size_t i = 0; i < scenario_.actions.size(); ++i) {
    Describe(scenario_.actions[i], i);
  }
}

void ScenarioExecutor::Describe(const Action& a, std::size_t index) {
  int target = targets_[index];
  std::string desc = "t=" + FormatTime(a.at) + " ";
  switch (a.kind) {
    case Action::Kind::kCutCable:
      desc += "cut cable " + std::to_string(target);
      break;
    case Action::Kind::kRestoreCable:
      desc += "restore cable " + std::to_string(target);
      break;
    case Action::Kind::kCrashSwitch:
      desc += "crash switch " + std::to_string(target);
      break;
    case Action::Kind::kRestartSwitch:
      desc += "restart switch " + std::to_string(target);
      break;
    case Action::Kind::kCutHostLink:
      desc += "cut hostlink " + std::to_string(target) +
              (a.which == 0 ? " primary" : " alternate");
      break;
    case Action::Kind::kRestoreHostLink:
      desc += "restore hostlink " + std::to_string(target) +
              (a.which == 0 ? " primary" : " alternate");
      break;
    case Action::Kind::kCorruptCable:
      desc += "corrupt cable " + std::to_string(target) + " rate " +
              std::to_string(a.rate);
      break;
    case Action::Kind::kReflectCable:
      desc += "reflect cable " + std::to_string(target) + " side " +
              (a.which == 0 ? "a" : "b");
      break;
    case Action::Kind::kFlapCable:
      desc += "flap cable " + std::to_string(target) + " period " +
              FormatTime(a.period) + " until " + FormatTime(a.until);
      break;
    case Action::Kind::kBurstCables:
      for (int cable : burst_targets_[index]) {
        resolved_.push_back("t=" + FormatTime(a.at) + " burst-cut cable " +
                            std::to_string(cable) + " until " +
                            FormatTime(a.until));
      }
      return;
    case Action::Kind::kBurstSwitches:
      for (int sw : burst_targets_[index]) {
        resolved_.push_back("t=" + FormatTime(a.at) + " burst-crash switch " +
                            std::to_string(sw) +
                            (a.until >= a.at ? " until " + FormatTime(a.until)
                                             : std::string()));
      }
      return;
  }
  if (target >= 0) {
    resolved_.push_back(std::move(desc));
  }
}

int ScenarioExecutor::DomainSize(Domain domain) const {
  switch (domain) {
    case Domain::kCable:
      return static_cast<int>(net_->spec().cables.size());
    case Domain::kSwitch:
      return net_->num_switches();
    case Domain::kHost:
      return net_->num_hosts();
  }
  return 0;
}

int ScenarioExecutor::Resolve(const Action& a, Domain domain) {
  int n = DomainSize(domain);
  if (n == 0) {
    return -1;
  }
  if (!a.pick.empty()) {
    auto key = std::make_pair(static_cast<int>(domain), a.pick);
    auto it = picks_.find(key);
    if (it != picks_.end()) {
      return it->second;
    }
    int chosen = static_cast<int>(rng_.UniformInt(0, n - 1));
    picks_.emplace(key, chosen);
    return chosen;
  }
  if (a.target == kRandomTarget) {
    return static_cast<int>(rng_.UniformInt(0, n - 1));
  }
  return a.target % n;
}

std::vector<int> ScenarioExecutor::ResolveDistinct(int count, Domain domain) {
  int n = DomainSize(domain);
  std::vector<int> all(n);
  for (int i = 0; i < n; ++i) {
    all[i] = i;
  }
  // Partial Fisher-Yates driven by the run rng.
  count = std::min(count, n);
  for (int i = 0; i < count; ++i) {
    int j = static_cast<int>(rng_.UniformInt(i, n - 1));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  return all;
}

void ScenarioExecutor::Schedule(Tick start) {
  start_ = start;
  Simulator& sim = net_->sim();
  for (std::size_t i = 0; i < scenario_.actions.size(); ++i) {
    const Action a = scenario_.actions[i];
    int target = targets_[i];
    switch (a.kind) {
      case Action::Kind::kFlapCable:
        if (target >= 0) {
          sim.ScheduleAt(start_ + a.at, [this, target, a] {
            FlapStep(target, a.period, start_ + a.until, /*cut_next=*/true);
          });
        }
        break;
      case Action::Kind::kBurstCables:
        for (int cable : burst_targets_[i]) {
          sim.ScheduleAt(start_ + a.at, [this, cable] {
            net_->CutCable(cable);
          });
          sim.ScheduleAt(start_ + std::max(a.until, a.at), [this, cable] {
            net_->RestoreCable(cable);
          });
        }
        break;
      case Action::Kind::kBurstSwitches:
        for (int sw : burst_targets_[i]) {
          sim.ScheduleAt(start_ + a.at, [this, sw] {
            net_->CrashSwitch(sw);
          });
          if (a.until >= a.at) {
            sim.ScheduleAt(start_ + a.until, [this, sw] {
              net_->RestartSwitch(sw);
            });
          }
        }
        break;
      default:
        if (target >= 0) {
          Execute(a, target);  // records + schedules the single action
        }
        break;
    }
  }
}

void ScenarioExecutor::Execute(const Action& a, int target) {
  Simulator& sim = net_->sim();
  switch (a.kind) {
    case Action::Kind::kCutCable:
      sim.ScheduleAt(start_ + a.at, [this, target] {
        net_->CutCable(target);
      });
      break;
    case Action::Kind::kRestoreCable:
      sim.ScheduleAt(start_ + a.at, [this, target] {
        net_->RestoreCable(target);
      });
      break;
    case Action::Kind::kCrashSwitch:
      sim.ScheduleAt(start_ + a.at, [this, target] {
        net_->CrashSwitch(target);
      });
      break;
    case Action::Kind::kRestartSwitch:
      sim.ScheduleAt(start_ + a.at, [this, target] {
        net_->RestartSwitch(target);
      });
      break;
    case Action::Kind::kCutHostLink:
      sim.ScheduleAt(start_ + a.at, [this, target, a] {
        net_->CutHostLink(target, a.which);
      });
      break;
    case Action::Kind::kRestoreHostLink:
      sim.ScheduleAt(start_ + a.at, [this, target, a] {
        net_->RestoreHostLink(target, a.which);
      });
      break;
    case Action::Kind::kCorruptCable:
      sim.ScheduleAt(start_ + a.at, [this, target, a] {
        net_->SetCableCorruptionRate(target, a.rate);
      });
      break;
    case Action::Kind::kReflectCable:
      sim.ScheduleAt(start_ + a.at, [this, target, a] {
        net_->SetCableReflecting(target, a.which == 0 ? Link::Side::kA
                                                      : Link::Side::kB);
      });
      break;
    default:
      break;  // flap/burst handled by Schedule()
  }
}

void ScenarioExecutor::FlapStep(int cable, Tick period, Tick until,
                                bool cut_next) {
  Simulator& sim = net_->sim();
  if (sim.now() > until) {
    net_->RestoreCable(cable);  // always leave the link repaired
    return;
  }
  if (cut_next) {
    net_->CutCable(cable);
  } else {
    net_->RestoreCable(cable);
  }
  sim.ScheduleAfter(period, [this, cable, period, until, cut_next] {
    FlapStep(cable, period, until, !cut_next);
  });
}

}  // namespace chaos
}  // namespace autonet
