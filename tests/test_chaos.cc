#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/autopilot/messages.h"
#include "src/chaos/corpus.h"
#include "src/chaos/executor.h"
#include "src/chaos/oracles.h"
#include "src/chaos/runner.h"
#include "src/chaos/scenario.h"
#include "src/common/event_log.h"
#include "src/core/network.h"
#include "src/obs/postmortem.h"
#include "src/topo/spec.h"
#include "tests/json_parse.h"

namespace autonet {
namespace chaos {
namespace {

// --- scenario format --------------------------------------------------------

TEST(Scenario, ParsesEveryActionKind) {
  const std::string text = R"(
scenario everything
  at 100ms cut cable 2
  at 200ms restore cable 2
  at 300ms crash switch ?s
  at 400ms restart switch ?s
  at 500ms cut hostlink 1 primary
  at 600ms restore hostlink 1 alternate
  at 700ms corrupt cable random rate 0.01
  at 800ms reflect cable 0 side b
  flap cable ?f period 50ms from 100ms until 900ms
  at 1s burst cables 3 until 2s
  at 1s burst switches 2
)";
  std::string error;
  std::vector<Scenario> scenarios = ParseScenarios(text, &error);
  ASSERT_EQ(error, "");
  ASSERT_EQ(scenarios.size(), 1u);
  const Scenario& s = scenarios[0];
  EXPECT_EQ(s.name, "everything");
  ASSERT_EQ(s.actions.size(), 11u);
  EXPECT_EQ(s.actions[0].kind, Action::Kind::kCutCable);
  EXPECT_EQ(s.actions[0].target, 2);
  EXPECT_EQ(s.actions[2].pick, "s");
  EXPECT_EQ(s.actions[4].which, 0);
  EXPECT_EQ(s.actions[5].which, 1);
  EXPECT_DOUBLE_EQ(s.actions[6].rate, 0.01);
  EXPECT_EQ(s.actions[7].which, 1);
  EXPECT_EQ(s.actions[8].kind, Action::Kind::kFlapCable);
  EXPECT_EQ(s.actions[8].period, 50 * kMillisecond);
  EXPECT_EQ(s.actions[9].count, 3);
  EXPECT_EQ(s.actions[10].kind, Action::Kind::kBurstSwitches);
  EXPECT_EQ(s.ScriptEnd(), 2 * kSecond);
}

TEST(Scenario, ParseErrorsNameTheLine) {
  std::string error;
  EXPECT_TRUE(ParseScenarios("scenario x\n  at 5 cut cable 0\n", &error)
                  .empty());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  EXPECT_TRUE(ParseScenarios("at 5ms cut cable 0\n", &error).empty());
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;

  EXPECT_TRUE(
      ParseScenarios("scenario x\n  at 5ms melt cable 0\n", &error).empty());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  // Numbers must fill their whole token.
  for (const char* line : {"at 1s burst cables 3x until 2s",
                           "at 1s burst switches 2.9",
                           "at 1s corrupt cable 0 rate 0.5abc"}) {
    EXPECT_TRUE(
        ParseScenarios(std::string("scenario x\n") + line + "\n", &error)
            .empty())
        << line;
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  }
}

// The one scenario in `text`, which must parse cleanly.
Scenario ParseOne(const std::string& text) {
  std::string error;
  std::vector<Scenario> scenarios = ParseScenarios(text, &error);
  EXPECT_EQ(error, "");
  EXPECT_EQ(scenarios.size(), 1u);
  return scenarios.empty() ? Scenario() : scenarios[0];
}

// --- deterministic resolution ----------------------------------------------

TEST(Executor, ResolutionIsAPureFunctionOfScenarioTopologySeed) {
  const Scenario s = ParseOne(R"(
scenario pick-test
  at 100ms cut cable ?a
  at 200ms crash switch random
  at 1s restore cable ?a
)");

  auto resolve = [&](std::uint64_t seed) {
    Network net(MakeTorus(3, 3, 1));
    ScenarioExecutor exec(&net, s, seed);
    return exec.resolved();
  };
  EXPECT_EQ(resolve(7), resolve(7));

  // Named picks are stable: the cut and the restore hit the same cable.
  std::vector<std::string> r = resolve(7);
  ASSERT_EQ(r.size(), 3u);
  std::string cut_victim = r[0].substr(r[0].find("cable"));
  std::string restore_victim = r[2].substr(r[2].find("cable"));
  EXPECT_EQ(cut_victim, restore_victim);

  // Sweeping seeds sweeps victims (18 cables; 8 seeds all agreeing would
  // mean resolution ignores the seed).
  bool any_difference = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    if (resolve(seed) != resolve(0)) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

// --- single runs ------------------------------------------------------------

CampaignConfig SmallConfig() {
  CampaignConfig config;
  std::string error;
  config.topologies.push_back({"line6", TopologyByName("line6", &error)});
  return config;
}

TEST(Runner, SameSeedReplaysIdentically) {
  const Scenario s = ParseOne(R"(
scenario cut-restore
  at 100ms cut cable ?a
  at 600ms restore cable ?a
)");

  CampaignConfig config = SmallConfig();
  RunResult first = RunOne(config, s, config.topologies[0], 3);
  RunResult second = RunOne(config, s, config.topologies[0], 3);
  EXPECT_TRUE(first.ok) << (first.violations.empty()
                                ? ""
                                : first.violations[0].detail);
  EXPECT_EQ(first.log_hash, second.log_hash);
  EXPECT_EQ(first.metrics_hash, second.metrics_hash);
  EXPECT_EQ(first.resolved_actions, second.resolved_actions);
}

TEST(Runner, ExecutionStreamIsDeterministic) {
  // Stronger than hash equality: the full merged logs and metric snapshots
  // of two independent replays are byte-identical.
  const Scenario s = ParseOne(R"(
scenario crash
  at 100ms crash switch ?s
  at 700ms restart switch ?s
)");

  auto run = [&](std::string* log, std::string* metrics) {
    Network net(MakeRing(4, 1));
    net.Boot();
    ASSERT_TRUE(net.WaitForConsistency(60 * kSecond));
    ScenarioExecutor exec(&net, s, 11);
    exec.Schedule(net.sim().now());
    net.Run(5 * kSecond);
    *log = EventLog::Format(net.MergedLog());
    *metrics = net.DumpMetricsJson();
  };
  std::string log_a, metrics_a, log_b, metrics_b;
  run(&log_a, &metrics_a);
  run(&log_b, &metrics_b);
  EXPECT_EQ(log_a, log_b);
  EXPECT_EQ(metrics_a, metrics_b);
  EXPECT_NE(log_a.find("power off"), std::string::npos);
}

TEST(Runner, DifferentSeedsAreDistinguishedInTheReport) {
  const Scenario s = ParseOne(R"(
scenario cut
  at 100ms cut cable random
  at 600ms restore cable random
)");
  // (anonymous random pick: cut and restore resolve independently, so use
  // the torus where every cable is redundant)
  CampaignConfig config;
  std::string error;
  config.topologies.push_back({"torus3x3", TopologyByName("torus3x3", &error)});
  config.scenarios.push_back(s);
  config.seeds = {0, 1, 2, 3, 4};
  config.jobs = 2;

  CampaignReport report = RunCampaign(config);
  ASSERT_EQ(report.runs.size(), 5u);
  EXPECT_TRUE(report.AllPassed());
  bool hashes_differ = false;
  for (const RunResult& r : report.runs) {
    if (r.log_hash != report.runs[0].log_hash) {
      hashes_differ = true;
    }
    EXPECT_EQ(r.ok, true);
  }
  EXPECT_TRUE(hashes_differ);
}

// --- campaigns --------------------------------------------------------------

TEST(Runner, CampaignSweepsTheMatrixAndReportsJson) {
  CampaignConfig config = SmallConfig();
  std::string error;
  config.scenarios = ParseScenarios(R"(
scenario cut
  at 100ms cut cable ?a
  at 600ms restore cable ?a
scenario crash
  at 100ms crash switch ?s
  at 900ms restart switch ?s
)",
                                    &error);
  ASSERT_EQ(error, "");
  ASSERT_EQ(config.scenarios.size(), 2u);
  config.seeds = {1, 2};
  config.jobs = 2;

  CampaignReport report = RunCampaign(config);
  ASSERT_EQ(report.runs.size(), 4u);
  EXPECT_EQ(report.passed, 4);
  EXPECT_EQ(report.failed, 0);
  EXPECT_TRUE(report.AllPassed());
  EXPECT_TRUE(report.ReproducerLines().empty());
  EXPECT_EQ(report.jobs, 2);
  EXPECT_EQ(report.run_wall_ms.count(), 4u);
  EXPECT_GE(report.reconfig_ms.count(), 1u);
  EXPECT_GT(report.metrics.size(), 0u);

  std::optional<JsonValue> json = ParseJson(report.ToJson());
  ASSERT_TRUE(json.has_value());
  const JsonValue* campaign = json->Find("campaign");
  ASSERT_NE(campaign, nullptr);
  EXPECT_EQ(campaign->Find("runs")->number, 4);
  EXPECT_EQ(campaign->Find("passed")->number, 4);
  ASSERT_NE(json->Find("runs"), nullptr);
  EXPECT_EQ(json->Find("runs")->array.size(), 4u);
  const JsonValue& run0 = json->Find("runs")->array[0];
  EXPECT_TRUE(run0.Find("log_hash")->is_string());
  EXPECT_FALSE(run0.Find("actions")->array.empty());
  ASSERT_NE(json->Find("metrics"), nullptr);
  EXPECT_TRUE(json->Find("metrics")->Find("counters") != nullptr);
}

// --- violations are caught and reproducible ---------------------------------

class AlwaysFailOracle : public Oracle {
 public:
  std::string name() const override { return "always-fail"; }
  std::string Check(OracleContext&) override {
    return "deliberately broken fixture";
  }
};

std::vector<std::unique_ptr<Oracle>> BrokenBattery() {
  std::vector<std::unique_ptr<Oracle>> oracles;
  oracles.push_back(MakeConvergenceOracle());
  oracles.push_back(std::make_unique<AlwaysFailOracle>());
  return oracles;
}

TEST(Runner, BrokenOracleProducesViolationWithWorkingReproducer) {
  CampaignConfig config = SmallConfig();
  const Scenario s = ParseOne(R"(
scenario quiet
  at 100ms cut cable ?a
  at 400ms restore cable ?a
)");
  config.scenarios = {s};
  config.seeds = {5};
  config.jobs = 1;
  config.oracles = BrokenBattery;

  CampaignReport report = RunCampaign(config);
  ASSERT_EQ(report.runs.size(), 1u);
  EXPECT_FALSE(report.AllPassed());
  EXPECT_EQ(report.failed, 1);
  ASSERT_EQ(report.runs[0].violations.size(), 1u);
  const Violation& v = report.runs[0].violations[0];
  EXPECT_EQ(v.oracle, "always-fail");
  EXPECT_EQ(v.detail, "deliberately broken fixture");
  EXPECT_EQ(v.reproducer, "chaosrun --scenario quiet --topo line6 --seed 5");

  // The reproducer line works: parse it back and replay exactly that run.
  std::istringstream tokens(v.reproducer);
  std::string stem, flag, scenario_name, topo_name, seed_text;
  tokens >> stem >> flag >> scenario_name;
  tokens >> flag >> topo_name;
  tokens >> flag >> seed_text;
  ASSERT_EQ(scenario_name, "quiet");
  std::string error;
  TopologyCase topo{topo_name, TopologyByName(topo_name, &error)};
  ASSERT_EQ(error, "");
  RunResult replay = RunOne(config, s, topo,
                            std::stoull(seed_text));
  ASSERT_EQ(replay.violations.size(), 1u);
  EXPECT_EQ(replay.violations[0].reproducer, v.reproducer);
  EXPECT_EQ(replay.log_hash, report.runs[0].log_hash);
  EXPECT_EQ(replay.resolved_actions, report.runs[0].resolved_actions);
}

TEST(Runner, PostMortemOutParameterMatchesAttachedTimeline) {
  // A scenario with its own workload line, judged by a battery that always
  // fails: the campaign attaches the flight-recorder timeline to the
  // violation, and a replay through RunOne's post-mortem out-parameter (the
  // postmortem CLI's path) must reconstruct exactly that timeline.
  std::string error;
  std::vector<Scenario> parsed = ParseScenarios(R"(
scenario wl-cut-restore
  workload streams bytes 64 period 20ms deadline 100ms
  at 100ms cut cable ?a
  at 400ms restore cable ?a
)",
                                                &error);
  ASSERT_EQ(error, "");
  ASSERT_EQ(parsed.size(), 1u);
  const Scenario& s = parsed[0];
  CampaignConfig config;
  config.topologies.push_back({"small3", TopologyByName("small3", &error)});
  config.scenarios = {s};
  config.seeds = {2};
  config.jobs = 1;
  config.oracles = BrokenBattery;

  CampaignReport report = RunCampaign(config);
  ASSERT_EQ(report.runs.size(), 1u);
  const RunResult& run = report.runs[0];
  EXPECT_EQ(run.workload, s.workload.ToText());
  ASSERT_FALSE(run.violations.empty());
  const std::string& timeline = run.violations[0].timeline;
  EXPECT_FALSE(timeline.empty());

  obs::PostMortem pm;
  RunResult replay =
      RunOne(config, s, config.topologies[0], 2, nullptr, &pm);
  EXPECT_EQ(pm.RenderText(), timeline);
  EXPECT_EQ(replay.log_hash, run.log_hash);
  EXPECT_EQ(replay.slo_json, run.slo_json);
}

// --- scenario lookup ----------------------------------------------------------

TEST(Scenario, LoadScenariosMergesEveryBuiltInCorpus) {
  std::vector<Scenario> all;
  std::string error;
  ASSERT_TRUE(LoadScenarios("", &all, &error)) << error;
  EXPECT_EQ(all.size(), DefaultCorpus().size() + SloCorpus().size() +
                            AdversaryCorpus().size());
  std::vector<Scenario> picked =
      FilterScenarios(all, {"slo-cable-cut", "cable-cut-restore"});
  ASSERT_EQ(picked.size(), 2u);
  // Corpus order, not request order: the default corpus comes first.
  EXPECT_EQ(picked[0].name, "cable-cut-restore");
  EXPECT_EQ(picked[1].name, "slo-cable-cut");
  EXPECT_TRUE(FilterScenarios(all, {"no-such-scenario"}).empty());

  EXPECT_FALSE(LoadScenarios("/nonexistent/corpus.chaos", &all, &error));
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

// --- topology registry -------------------------------------------------------

TEST(Runner, TopologyRegistryKnowsTheMatrix) {
  for (const std::string& name : AllTopologyNames()) {
    std::string error;
    TopoSpec spec = TopologyByName(name, &error);
    EXPECT_EQ(error, "") << name;
    EXPECT_EQ(spec.Validate(), "") << name;
    EXPECT_FALSE(spec.switches.empty()) << name;
  }
  std::string error;
  TopologyByName("no-such-topology", &error);
  EXPECT_NE(error, "");
}

// A booted triangle with its hosts registered, judged from here.
struct BootedSmall3 {
  BootedSmall3() : net(TopologyByName("small3", nullptr)) {
    EXPECT_EQ(BootToBaseline(net), "");
    ctx.net = &net;
    ctx.start_epoch = MaxLiveEpoch(net);
  }
  Network net;
  OracleContext ctx;
};

TEST(Oracles, EpochFiresOnUndeclaredForwardJump) {
  BootedSmall3 b;
  auto oracle = MakeEpochOracle();
  EXPECT_EQ(oracle->Check(b.ctx), "");
  // An epoch register moved far forward with no fault declared: growth
  // beyond the fixed allowance that no injected body can explain.
  b.net.autopilot_at(1).engine().CorruptEpochRegister(b.ctx.start_epoch +
                                                      kEpochBurnBase + 1);
  EXPECT_NE(oracle->Check(b.ctx).find("a corrupted epoch was believed"),
            std::string::npos);
  // The same growth is within budget once a fault accounts for it.
  b.ctx.faults = 1;
  EXPECT_EQ(oracle->Check(b.ctx), "");
}

TEST(Oracles, HostAddressFiresOnForgedReAddress) {
  BootedSmall3 b;
  auto oracle = MakeHostAddressOracle();
  EXPECT_EQ(oracle->Check(b.ctx), "");
  // A forged address reply with the host's real UID and a plausibly newer
  // epoch re-addresses the host on the spot; until its next ping the host
  // holds an address that names no attachment point.
  Network& net = b.net;
  ASSERT_TRUE(net.driver_at(0).HasAddress());
  HostAddressMsg m;
  m.kind = HostAddressMsg::Kind::kReply;
  m.host_uid = net.host_at(0).uid();
  m.short_address = 0x7EE;
  m.epoch = net.autopilot_at(0).epoch() + 1;
  Packet p;
  p.dest = net.driver_at(0).short_address();
  p.src = ShortAddress::FromSwitchPort(net.autopilot_at(0).switch_num(),
                                       kCpPort);
  p.type = PacketType::kHostAddress;
  p.payload = m.Serialize();
  net.switch_at(0).CpSend(MakePacket(std::move(p)));
  net.Run(10 * kMillisecond);
  ASSERT_EQ(net.driver_at(0).short_address(), ShortAddress(0x7EE));
  EXPECT_NE(oracle->Check(b.ctx).find("expected"), std::string::npos);
}

TEST(Oracles, FifoFiresOnOverflowOfAnUnfaultedLink) {
  BootedSmall3 b;
  auto oracle = MakeFifoOracle();
  EXPECT_EQ(oracle->Check(b.ctx), "");
  // Overflow one receive FIFO by hand: one byte more than it holds.
  const PortNum p = b.net.spec().cables[0].port_a;
  PortFifo& fifo = b.net.switch_at(b.net.spec().cables[0].sw_a).port(p).fifo();
  fifo.PushBegin(MakePacket(Packet{}));
  while (fifo.PushByte()) {
  }
  ASSERT_EQ(fifo.overflow_count(), 1u);
  EXPECT_NE(oracle->Check(b.ctx).find("no injected fault"), std::string::npos);
  // Corruption injected on that cable explains the loss.
  b.net.SetCableCorruptionRate(0, 1e-9);
  EXPECT_EQ(oracle->Check(b.ctx), "");
}

TEST(Oracles, HealthyDiameterScalesDeadlines) {
  Network line(MakeLine(6, 1));
  EXPECT_EQ(HealthyDiameter(line), 5);
  Network ring(MakeRing(8, 1));
  EXPECT_EQ(HealthyDiameter(ring), 4);
}

}  // namespace
}  // namespace chaos
}  // namespace autonet
