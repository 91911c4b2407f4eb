// Tests for the application workload engine (src/workload/): spec grammar,
// per-flow SLO accounting, the engine's three workload kinds on a live
// Network, and the chaos-runner integration (SLO oracles, reproducibility,
// baseline-fingerprint neutrality).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "src/chaos/corpus.h"
#include "src/chaos/runner.h"
#include "src/chaos/scenario.h"
#include "src/core/network.h"
#include "src/topo/spec.h"
#include "src/workload/engine.h"
#include "src/workload/slo.h"
#include "src/workload/spec.h"

namespace autonet {
namespace workload {
namespace {

// --- spec grammar -----------------------------------------------------------

TEST(Spec, TextRoundTrip) {
  Spec spec;
  std::string error;
  ASSERT_TRUE(ParseSpecText(
      "rpc bytes 512 response 64 window 4 timeout 100ms", &spec, &error))
      << error;
  EXPECT_EQ(spec.kind, Kind::kRpc);
  EXPECT_EQ(spec.data_bytes, 512u);
  EXPECT_EQ(spec.response_bytes, 64u);
  EXPECT_EQ(spec.window, 4);
  EXPECT_EQ(spec.timeout, 100 * kMillisecond);

  Spec again;
  ASSERT_TRUE(ParseSpecText(spec.ToText(), &again, &error)) << error;
  EXPECT_EQ(again.ToText(), spec.ToText());

  ASSERT_TRUE(ParseSpecText("streams period 5ms deadline 25ms", &spec, &error));
  ASSERT_TRUE(ParseSpecText(spec.ToText(), &again, &error)) << error;
  EXPECT_EQ(again.period, 5 * kMillisecond);
  EXPECT_EQ(again.deadline, 25 * kMillisecond);
}

TEST(Spec, ParseRejectsBadInput) {
  Spec spec;
  std::string error;
  EXPECT_FALSE(ParseSpecText("ftp bytes 100", &spec, &error));
  EXPECT_NE(error.find("unknown workload kind"), std::string::npos);
  EXPECT_FALSE(ParseSpecText("rpc window 100", &spec, &error));  // > 64
  EXPECT_FALSE(ParseSpecText("rpc window", &spec, &error));      // no value
  EXPECT_FALSE(ParseSpecText("rpc color blue", &spec, &error));
  EXPECT_FALSE(ParseSpecText("streams period 0ms", &spec, &error));
  EXPECT_FALSE(ParseSpecText("", &spec, &error));

  ASSERT_TRUE(ParseSpecText("none", &spec, &error)) << error;
  EXPECT_FALSE(spec.enabled());
}

TEST(Spec, ScenarioCarriesAWorkloadLine) {
  std::string error;
  auto scenarios = chaos::ParseScenarios(
      "scenario cut-under-load\n"
      "  workload rpc bytes 256 response 32 window 2\n"
      "  at 100ms cut cable ?a\n",
      &error);
  ASSERT_EQ(scenarios.size(), 1u) << error;
  ASSERT_TRUE(scenarios[0].workload.enabled());
  EXPECT_EQ(scenarios[0].workload.kind, Kind::kRpc);
  EXPECT_EQ(scenarios[0].workload.window, 2);
}

// --- per-flow SLO accounting ------------------------------------------------

TEST(FlowSlo, GapAboveFloorIsAnOutageWindow) {
  FlowSlo slo("f", /*outage_floor=*/25 * kMillisecond);
  slo.OnOffered(0, true);
  slo.OnCompleted(100 * kMillisecond, Phase::kSteady, 0.1);
  EXPECT_EQ(slo.outage_windows(), 1);
  EXPECT_DOUBLE_EQ(slo.max_outage_ms(), 100.0);
}

TEST(FlowSlo, SubFloorGapsAreQueueingNotOutage) {
  FlowSlo slo("f", 25 * kMillisecond);
  slo.OnOffered(0, true);
  for (int i = 1; i <= 100; ++i) {
    slo.OnCompleted(i * kMillisecond, Phase::kSteady, 1.0);
  }
  EXPECT_EQ(slo.outage_windows(), 0);
  EXPECT_DOUBLE_EQ(slo.max_outage_ms(), 0.0);
  EXPECT_EQ(slo.completed(), 100u);
}

TEST(FlowSlo, UnserviceableTimeIsExcused) {
  FlowSlo slo("f", 25 * kMillisecond);
  slo.OnOffered(0, true);
  // 60ms of the 80ms gap the flow was physically unserviceable (endpoint
  // off the network): the chargeable gap is 20ms, under the floor.
  slo.Advance(60 * kMillisecond, /*serviceable=*/false);
  slo.OnCompleted(80 * kMillisecond, Phase::kFault, 0.2);
  EXPECT_EQ(slo.outage_windows(), 0);
  EXPECT_DOUBLE_EQ(slo.excused_ms(), 60.0);
}

TEST(FlowSlo, MidRunReconfigurationGapIsNetOfExcusedTime) {
  FlowSlo slo("f", 25 * kMillisecond);
  slo.OnOffered(0, true);
  slo.OnCompleted(10 * kMillisecond, Phase::kSteady, 0.1);
  // A reconfiguration starts: 50ms unserviceable inside a 90ms delivery
  // gap.  Chargeable outage = 40ms, one window.
  slo.Advance(50 * kMillisecond, /*serviceable=*/false);
  slo.Advance(40 * kMillisecond, /*serviceable=*/true);
  slo.OnCompleted(100 * kMillisecond, Phase::kRecovery, 0.3);
  EXPECT_EQ(slo.outage_windows(), 1);
  EXPECT_DOUBLE_EQ(slo.max_outage_ms(), 40.0);
  // Latency landed in the phase the op was sent in.
  EXPECT_EQ(slo.latency_ms(Phase::kSteady).count(), 1u);
  EXPECT_EQ(slo.latency_ms(Phase::kRecovery).count(), 1u);
}

TEST(FlowSlo, FinalizeClosesOnlyOutstandingGaps) {
  FlowSlo busy("busy", 25 * kMillisecond);
  busy.OnOffered(0, true);
  busy.Finalize(200 * kMillisecond, /*outstanding=*/true);
  EXPECT_EQ(busy.outage_windows(), 1);
  EXPECT_DOUBLE_EQ(busy.max_outage_ms(), 200.0);

  // An open gap with nothing outstanding is idleness, not outage.
  FlowSlo idle("idle", 25 * kMillisecond);
  idle.OnOffered(0, true);
  idle.OnCompleted(1 * kMillisecond, Phase::kSteady, 1.0);
  idle.Finalize(200 * kMillisecond, /*outstanding=*/false);
  EXPECT_EQ(idle.outage_windows(), 0);
}

TEST(SloJudge, TripsOnBlownBudgets) {
  SloReport report;
  std::string error;
  ASSERT_TRUE(ParseSpecText("streams period 5ms deadline 25ms", &report.spec,
                            &error));
  report.flows.emplace_back();
  report.flows.back().name = "h0->h1";
  report.budget = ResolveBudget(SloBudgetConfig{}, /*diameter=*/2);
  report.completed = 1000;
  report.max_outage_ms = report.budget.outage_ms + 1;
  report.max_outage_flow = "h0->h1";
  report.recovery_lost = 2;
  report.deadline_miss_steady = 1;
  for (int i = 0; i < 100; ++i) {
    report.steady_latency_ms.Add(1.0);
    report.recovery_latency_ms.Add(10.0);  // 10x steady: blows 2x budget
  }
  auto violations = JudgeSlo(report);
  ASSERT_EQ(violations.size(), 4u);
  EXPECT_EQ(violations[0].first, "slo-outage");
  EXPECT_EQ(violations[1].first, "slo-latency");
  EXPECT_EQ(violations[2].first, "slo-loss");
  EXPECT_EQ(violations[3].first, "slo-deadline");

  SloReport clean;
  clean.spec = report.spec;
  clean.flows = report.flows;
  clean.budget = report.budget;
  clean.completed = 1000;
  clean.max_outage_ms = 5.0;
  for (int i = 0; i < 100; ++i) {
    clean.steady_latency_ms.Add(1.0);
    clean.recovery_latency_ms.Add(1.1);
  }
  EXPECT_TRUE(JudgeSlo(clean).empty());
}

// --- the engine on a live network -------------------------------------------

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<Network>(MakeLine(3, 1));
    net_->Boot();
    ASSERT_TRUE(net_->WaitForConsistency(60 * kSecond));
    ASSERT_TRUE(
        net_->WaitForHostsRegistered(net_->sim().now() + 30 * kSecond));
  }

  SloReport RunSpec(const std::string& text, Tick duration) {
    Spec spec;
    std::string error;
    EXPECT_TRUE(ParseSpecText(text, &spec, &error)) << error;
    WorkloadEngine engine(net_.get(), spec, SloBudgetConfig{}, /*diameter=*/2);
    engine.Start();
    net_->Run(duration);
    engine.Stop();
    for (int i = 0; i < 100 && !engine.Drained(); ++i) {
      net_->Run(10 * kMillisecond);
    }
    return engine.Finalize();
  }

  std::unique_ptr<Network> net_;
};

TEST_F(EngineTest, RpcSteadyStateHasZeroOutageWindows) {
  SloReport report = RunSpec("rpc bytes 256 response 32 window 2",
                             300 * kMillisecond);
  EXPECT_GT(report.completed, 100u);
  EXPECT_EQ(report.outage_windows, 0);
  EXPECT_DOUBLE_EQ(report.max_outage_ms, 0.0);
  EXPECT_EQ(report.recovery_lost, 0u);
  EXPECT_EQ(report.timeouts, 0u);
  EXPECT_GT(report.steady_latency_ms.count(), 100u);
  EXPECT_TRUE(JudgeSlo(report).empty());
  // The report serializes.
  EXPECT_NE(report.ToJson().find("\"max_outage_ms\""), std::string::npos);
}

TEST_F(EngineTest, AllreduceStepsAdvanceInLockstep) {
  SloReport report = RunSpec("allreduce bytes 512", 300 * kMillisecond);
  EXPECT_GT(report.steps_completed, 10u);
  EXPECT_EQ(report.step_ms.count(), report.steps_completed);
  EXPECT_EQ(report.outage_windows, 0);
  EXPECT_TRUE(JudgeSlo(report).empty());
}

TEST_F(EngineTest, StreamsMeetDeadlinesOnAHealthyNetwork) {
  SloReport report = RunSpec("streams bytes 256 period 5ms deadline 25ms",
                             300 * kMillisecond);
  EXPECT_GT(report.completed, 100u);
  EXPECT_EQ(report.deadline_miss_steady, 0u);
  EXPECT_EQ(report.outage_windows, 0);
  EXPECT_TRUE(JudgeSlo(report).empty());
}

// --- chaos-runner integration -----------------------------------------------

chaos::CampaignConfig SloConfig() {
  chaos::CampaignConfig config;
  std::string error;
  config.topologies.push_back(
      {"small3", chaos::TopologyByName("small3", &error)});
  // Short phases keep the saturating-RPC sim affordable in a unit test.
  config.slo_steady = 150 * kMillisecond;
  config.slo_recovery = 400 * kMillisecond;
  config.slo_drain = 1 * kSecond;
  return config;
}

TEST(Runner, CableCutUnderRpcLoadStaysWithinSloBudget) {
  chaos::CampaignConfig config = SloConfig();
  std::string error;
  auto scenarios = chaos::ParseScenarios(
      "scenario slo-cable-cut\n"
      "  workload rpc bytes 256 response 32 window 2\n"
      "  at 100ms cut cable ?a\n"
      "  at 1200ms restore cable ?a\n",
      &error);
  ASSERT_EQ(scenarios.size(), 1u) << error;

  chaos::RunResult r =
      chaos::RunOne(config, scenarios[0], config.topologies[0], 1);
  EXPECT_TRUE(r.ok) << (r.violations.empty() ? "" : r.violations[0].detail);
  EXPECT_EQ(r.workload, scenarios[0].workload.ToText());
  EXPECT_GT(r.slo_ops, 1000u);
  EXPECT_EQ(r.slo_recovery_lost, 0u);
  // The cut pauses delivery long enough to register as an outage, but the
  // budget (base + per-hop * diameter) holds: a pause, not a failure.
  EXPECT_GT(r.slo_max_outage_ms, 0.0);
  SloBudget budget = ResolveBudget(SloBudgetConfig{}, /*diameter=*/1);
  EXPECT_LT(r.slo_max_outage_ms, budget.outage_ms);
  // Post-quiescence tail within the oracle's 2x-steady budget (the judge
  // passed, so this is already implied; assert the numbers are present).
  EXPECT_GT(r.slo_steady_p999_ms, 0.0);
  EXPECT_GT(r.slo_recovery_p999_ms, 0.0);
  EXPECT_NE(r.slo_json.find("\"flows\""), std::string::npos);
}

TEST(Runner, BaselineFingerprintsUnchangedWithoutAWorkload) {
  chaos::CampaignConfig config = SloConfig();
  std::string error;
  auto scenarios = chaos::ParseScenarios(
      "scenario cut-restore\n"
      "  at 100ms cut cable ?a\n"
      "  at 700ms restore cable ?a\n",
      &error);
  ASSERT_EQ(scenarios.size(), 1u) << error;

  chaos::RunResult plain_a =
      chaos::RunOne(config, scenarios[0], config.topologies[0], 2);
  chaos::RunResult plain_b =
      chaos::RunOne(config, scenarios[0], config.topologies[0], 2);
  ASSERT_TRUE(plain_a.ok);
  EXPECT_TRUE(plain_a.workload.empty());
  EXPECT_EQ(plain_a.log_hash, plain_b.log_hash);
  EXPECT_EQ(plain_a.metrics_hash, plain_b.metrics_hash);

  // The same run under a campaign-level workload is still deterministic,
  // but its metric fingerprint differs (workload counters exist now) —
  // which is exactly why workloads are opt-in.
  ASSERT_TRUE(ParseSpecText("rpc bytes 128 response 32 window 1",
                            &config.workload, &error))
      << error;
  chaos::RunResult loaded_a =
      chaos::RunOne(config, scenarios[0], config.topologies[0], 2);
  chaos::RunResult loaded_b =
      chaos::RunOne(config, scenarios[0], config.topologies[0], 2);
  EXPECT_TRUE(loaded_a.ok)
      << (loaded_a.violations.empty() ? "" : loaded_a.violations[0].detail);
  EXPECT_EQ(loaded_a.workload, config.workload.ToText());
  EXPECT_EQ(loaded_a.metrics_hash, loaded_b.metrics_hash);
  EXPECT_NE(loaded_a.metrics_hash, plain_a.metrics_hash);
}

TEST(Runner, SloCorpusParsesAndNamesAreUnique) {
  auto scenarios = chaos::SloCorpus();
  ASSERT_GE(scenarios.size(), 6u);
  std::set<std::string> names;
  for (const auto& s : scenarios) {
    EXPECT_TRUE(s.workload.enabled()) << s.name;
    names.insert(s.name);
  }
  EXPECT_EQ(names.size(), scenarios.size());
  // Every name is distinct from the default corpus too: chaosrun looks
  // scenarios up by name across both corpora.
  for (const auto& s : chaos::DefaultCorpus()) {
    EXPECT_EQ(names.count(s.name), 0u) << s.name;
  }
}

}  // namespace
}  // namespace workload
}  // namespace autonet
