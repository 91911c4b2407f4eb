// The adaptive adversary engine and the hardening it forced: spec/grammar
// round-trips, transcript determinism, fingerprint inertness when disarmed,
// and the corrupted-state recovery battery (Dolev-style self-stabilization
// after register damage).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/adversary/adversary.h"
#include "src/adversary/spec.h"
#include "src/autopilot/reconfig.h"
#include "src/chaos/corpus.h"
#include "src/chaos/runner.h"
#include "src/chaos/scenario.h"
#include "src/core/network.h"
#include "src/topo/spec.h"

namespace autonet {
namespace {

using adversary::ParseSpecText;
using adversary::Spec;
using adversary::Strategy;
using chaos::CampaignConfig;
using chaos::ParseScenarios;
using chaos::RunOne;
using chaos::RunResult;
using chaos::Scenario;
using chaos::TopologyByName;
using chaos::TopologyCase;

// --- spec format ------------------------------------------------------------

TEST(AdversarySpec, TextRoundTripEveryStrategy) {
  const Strategy all[] = {
      Strategy::kRootChase,     Strategy::kPhaseSnipe,
      Strategy::kStorm,         Strategy::kFlapResonance,
      Strategy::kCorruptTable,  Strategy::kCorruptSkeptic,
      Strategy::kCorruptPort,   Strategy::kCorruptEpoch,
      Strategy::kFuzz,
  };
  for (Strategy strategy : all) {
    Spec spec;
    spec.strategy = strategy;
    spec.moves = 7;
    spec.duration = 1500 * kMillisecond;
    spec.period = 250 * kMicrosecond;
    spec.phase = "fanin";
    spec.burst = 9;
    spec.amount = 5;
    std::string error;
    Spec again;
    ASSERT_TRUE(ParseSpecText(spec.ToText(), &again, &error))
        << spec.ToText() << ": " << error;
    EXPECT_EQ(again.strategy, spec.strategy);
    EXPECT_EQ(again.moves, spec.moves);
    EXPECT_EQ(again.duration, spec.duration);
    // ToText omits knobs the strategy does not use, so the canonical-form
    // comparison is text equality after one round trip.
    EXPECT_EQ(again.ToText(), spec.ToText()) << StrategyName(strategy);
  }
}

TEST(AdversarySpec, RejectsBadInput) {
  Spec spec;
  std::string error;
  EXPECT_FALSE(ParseSpecText("evil-strategy", &spec, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseSpecText("storm moves nope", &spec, &error));
  EXPECT_FALSE(ParseSpecText("storm duration 5parsecs", &spec, &error));
  EXPECT_FALSE(ParseSpecText("storm moves", &spec, &error));
}

TEST(AdversarySpec, DefaultIsDisabled) {
  EXPECT_FALSE(Spec().enabled());
  EXPECT_FALSE(Scenario().adversary.enabled());
}

// --- scenario grammar -------------------------------------------------------

TEST(AdversaryScenario, CorpusCoversEveryStrategyFamily) {
  std::set<Strategy> seen;
  for (const Scenario& s : chaos::AdversaryCorpus()) {
    ASSERT_TRUE(s.adversary.enabled()) << s.name;
    seen.insert(s.adversary.strategy);
  }
  // The acceptance bar: at least six distinct strategies, including the
  // full corrupted-state family (the self-stabilization battery).
  EXPECT_GE(seen.size(), 6u);
  EXPECT_TRUE(seen.count(Strategy::kCorruptTable));
  EXPECT_TRUE(seen.count(Strategy::kCorruptSkeptic));
  EXPECT_TRUE(seen.count(Strategy::kCorruptPort));
  EXPECT_TRUE(seen.count(Strategy::kCorruptEpoch));
  EXPECT_TRUE(seen.count(Strategy::kFuzz));
}

TEST(AdversaryScenario, ParseErrorNamesTheLine) {
  std::string error;
  EXPECT_TRUE(
      ParseScenarios("scenario x\n  adversary warp-core moves 2\n", &error)
          .empty());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

// --- determinism ------------------------------------------------------------

Scenario InlineScenario(const std::string& text) {
  std::string error;
  std::vector<Scenario> parsed = ParseScenarios(text, &error);
  EXPECT_EQ(error, "");
  EXPECT_EQ(parsed.size(), 1u);
  return parsed[0];
}

TopologyCase Small3() {
  std::string error;
  TopoSpec spec = TopologyByName("small3", &error);
  EXPECT_EQ(error, "");
  return {"small3", std::move(spec)};
}

TEST(AdversaryRun, TranscriptAndFingerprintAreDeterministic) {
  Scenario s = InlineScenario(
      "scenario det\n"
      "  adversary corrupt-table moves 2 duration 1s\n");
  CampaignConfig config;
  TopologyCase topo = Small3();
  RunResult a = RunOne(config, s, topo, /*seed=*/7);
  RunResult b = RunOne(config, s, topo, /*seed=*/7);
  EXPECT_TRUE(a.ok) << (a.violations.empty() ? "" : a.violations[0].detail);
  EXPECT_FALSE(a.adversary.empty());
  EXPECT_GT(a.adversary_moves, 0);
  EXPECT_EQ(a.adversary_transcript, b.adversary_transcript);
  EXPECT_EQ(a.adversary_hash, b.adversary_hash);
  EXPECT_EQ(a.log_hash, b.log_hash);
  EXPECT_EQ(a.metrics_hash, b.metrics_hash);

  // A different seed must choose a different attack (the transcript embeds
  // the victims); fingerprints may legitimately collide only per seed.
  RunResult c = RunOne(config, s, topo, /*seed=*/8);
  EXPECT_NE(a.adversary_hash, c.adversary_hash);
}

TEST(AdversaryRun, DisarmedAdversaryIsByteInert) {
  // The plumbing guarantee behind the committed chaos baselines: a run with
  // no armed adversary — and even a run whose armed adversary makes zero
  // moves and retires before script end — produces byte-identical log and
  // metrics fingerprints to a run without the adversary member at all.
  Scenario plain = InlineScenario(
      "scenario inert\n"
      "  at 100ms cut cable 0\n"
      "  at 1s restore cable 0\n");
  Scenario armed_idle = plain;
  armed_idle.adversary.strategy = Strategy::kStorm;
  armed_idle.adversary.moves = 0;  // armed, polls, never acts
  armed_idle.adversary.duration = 200 * kMillisecond;
  CampaignConfig config;
  TopologyCase topo = Small3();
  RunResult a = RunOne(config, plain, topo, /*seed=*/3);
  RunResult b = RunOne(config, armed_idle, topo, /*seed=*/3);
  EXPECT_TRUE(a.adversary.empty());
  EXPECT_FALSE(b.adversary.empty());
  EXPECT_EQ(b.adversary_moves, 0);
  EXPECT_EQ(a.log_hash, b.log_hash);
  EXPECT_EQ(a.metrics_hash, b.metrics_hash);
}

TEST(AdversaryRun, ReproducerCarriesCampaignAdversary) {
  Scenario s = InlineScenario(
      "scenario repro\n"
      "  at 100ms cut cable 0\n");
  CampaignConfig config;
  config.oracles = [] {
    std::vector<std::unique_ptr<chaos::Oracle>> empty;
    return empty;
  };
  std::string error;
  ASSERT_TRUE(adversary::ParseSpecText("corrupt-port moves 1 duration 500ms",
                                       &config.adversary, &error))
      << error;
  TopologyCase topo = Small3();
  RunResult r = RunOne(config, s, topo, /*seed=*/2);
  EXPECT_EQ(r.adversary, config.adversary.ToText());
}

// --- corrupted-state recovery (the hardening the adversary forced) ---------

TEST(Hardening, TableScrubRepairsCorruptedBits) {
  TopologyCase topo = Small3();
  Network net(topo.spec);
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(40 * kSecond));

  // Flip live route bits in a running switch.  The autopilot's background
  // scrub compares the hardware table against the image it last loaded
  // (every 16th status sample) and reloads on any divergence.
  net.switch_at(0).CorruptTableEntry(2, ShortAddress(0x123), 0x3FFF);
  net.switch_at(0).CorruptTableEntry(0, ShortAddress(0x045), 0x00FF);
  net.Run(2 * kSecond);

  EXPECT_GE(net.sim()
                .metrics()
                .GetCounter("switch.s0.autopilot.table_scrub_repairs")
                ->value(),
            1u);
  EXPECT_EQ(net.CheckConsistency(), "");
}

TEST(Hardening, MisclassifiedSwitchPortRecovers) {
  TopologyCase topo = Small3();
  Network net(topo.spec);
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(40 * kSecond));

  // Find a switch-to-switch port and corrupt its state register to kHost.
  // The port sampler sees switch flow control on a "host" port, fails it,
  // and the normal probe cycle reclassifies it.
  const TopoSpec::CableSpec& c = net.spec().cables[0];
  ASSERT_EQ(net.autopilot_at(c.sw_a).port_state(c.port_a),
            PortState::kSwitchGood);
  net.autopilot_at(c.sw_a).CorruptPortState(c.port_a, PortState::kHost);
  net.Run(10 * kSecond);

  EXPECT_EQ(net.autopilot_at(c.sw_a).port_state(c.port_a),
            PortState::kSwitchGood);
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + 40 * kSecond))
      << net.CheckConsistency();
}

TEST(Hardening, SkepticClampsCorruptRegisters) {
  TopologyCase topo = Small3();
  Network net(topo.spec);
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(40 * kSecond));

  const TopoSpec::CableSpec& c = net.spec().cables[0];
  // Register damage in both directions: an impossible negative level and a
  // level far beyond the maximum with an event stamp from the future.  An
  // unrepaired negative level would disable hysteresis; an unrepaired huge
  // level (or future stamp) would freeze forgiveness and keep the link out
  // essentially forever.
  net.autopilot_at(c.sw_a).CorruptSkeptic(c.port_a, /*connectivity=*/true,
                                          -1000, 0);
  net.autopilot_at(c.sw_a).CorruptSkeptic(c.port_a, /*connectivity=*/false,
                                          1 << 20,
                                          net.sim().now() + 3600 * kSecond);

  // A fault penalizes the status skeptic, whose self-repair clamps the
  // register back into range before using it.
  net.CutCable(0);
  net.Run(2 * kSecond);
  int status = net.autopilot_at(c.sw_a).skeptic_level(c.port_a, false);
  EXPECT_GE(status, 0);
  EXPECT_LE(status, 62);

  // Re-admission consults both skeptics' RequiredHolddown.  The clamp
  // bounds the damage to ONE maximum hold-down cycle (60 s) rather than
  // the centuries an unclamped 2^20 doublings would demand.
  net.RestoreCable(0);
  net.Run(70 * kSecond);
  EXPECT_EQ(net.autopilot_at(c.sw_a).port_state(c.port_a),
            PortState::kSwitchGood);
  for (bool connectivity : {true, false}) {
    int level = net.autopilot_at(c.sw_a).skeptic_level(c.port_a, connectivity);
    EXPECT_GE(level, 0);
    EXPECT_LE(level, 62);
  }
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + 60 * kSecond))
      << net.CheckConsistency();
}

TEST(Hardening, RunawayEpochRegisterResyncs) {
  TopologyCase topo = Small3();
  Network net(topo.spec);
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(40 * kSecond));
  std::uint64_t epoch0 = net.autopilot_at(0).epoch();

  // Drive switch 0's epoch register past kMaxEpochJump: every neighbor now
  // drops its messages as implausible, and it drops theirs as stale — the
  // freeze-out the stale-resync path must break.
  net.autopilot_at(0).engine().CorruptEpochRegister(
      epoch0 + ReconfigEngine::kMaxEpochJump + 17);

  // A cable fault forces neighbors to talk to the victim.
  net.CutCable(0);
  net.Run(2 * kSecond);
  net.RestoreCable(0);
  net.Run(2 * kSecond);

  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + 60 * kSecond))
      << net.CheckConsistency();
  for (int i = 0; i < net.num_switches(); ++i) {
    EXPECT_LT(net.autopilot_at(i).epoch(),
              epoch0 + 100000)
        << "switch " << i << " kept (or caught) the runaway epoch";
  }
  std::uint64_t resyncs =
      net.sim().metrics().GetCounter("switch.s0.reconfig.epoch_resyncs")
          ->value();
  EXPECT_GE(resyncs, 1u);
}

TEST(Hardening, CorruptEpochScenarioConvergesUnderOracles) {
  // The full-battery form of the above: the committed regression scenario
  // must reconverge within the diameter-scaled deadline with every oracle
  // green and zero post-quiescence loss.
  Scenario runaway;
  for (const Scenario& s : chaos::AdversaryCorpus()) {
    if (s.name == "adv-regress-epoch-runaway") {
      runaway = s;
    }
  }
  ASSERT_TRUE(runaway.adversary.enabled());
  CampaignConfig config;
  TopologyCase topo = Small3();
  RunResult r = RunOne(config, runaway, topo, /*seed=*/1);
  EXPECT_TRUE(r.ok) << (r.violations.empty() ? "" : r.violations[0].detail);
  EXPECT_GE(r.adversary_moves, 1);
}

}  // namespace
}  // namespace autonet
