#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/autopilot/messages.h"
#include "src/autopilot/reconfig.h"
#include "src/chaos/runner.h"
#include "src/chaos/scenario.h"
#include "src/check/explore.h"
#include "src/check/fuzz.h"
#include "src/core/network.h"
#include "src/host/srp_client.h"

#ifndef AUTONET_TEST_DATA_DIR
#define AUTONET_TEST_DATA_DIR "tests/data"
#endif

namespace autonet {
namespace check {
namespace {

// --- fuzzer ---

TEST(Fuzz, HexRoundTrip) {
  std::vector<std::uint8_t> bytes = {0x00, 0xAB, 0xFF, 0x12};
  EXPECT_EQ(HexEncode(bytes), "00abff12");
  std::vector<std::uint8_t> back;
  EXPECT_TRUE(HexDecode("00abff12", &back));
  EXPECT_EQ(back, bytes);
  EXPECT_TRUE(HexDecode("00ABFF12", &back));
  EXPECT_EQ(back, bytes);
  EXPECT_FALSE(HexDecode("0", &back));    // odd length
  EXPECT_FALSE(HexDecode("zz", &back));   // not hex
}

TEST(Fuzz, GeneratedBodiesAreValidAndDeterministic) {
  for (int t = 0; t < kNumMsgTypes; ++t) {
    MsgType type = static_cast<MsgType>(t);
    Rng a(42);
    Rng b(42);
    for (int k = 0; k < 50; ++k) {
      std::vector<std::uint8_t> body = GenerateValidBody(type, a);
      EXPECT_EQ(body, GenerateValidBody(type, b));
      EXPECT_EQ(CheckRoundTrip(type, body, /*must_accept=*/true), "")
          << MsgTypeName(type) << " case " << k;
    }
  }
}

TEST(Fuzz, MutationsAreDeterministic) {
  Rng gen(7);
  std::vector<std::uint8_t> body = GenerateValidBody(MsgType::kReconfig, gen);
  Rng a(9);
  Rng b(9);
  std::string name_a;
  std::string name_b;
  EXPECT_EQ(Mutate(body, a, &name_a), Mutate(body, b, &name_b));
  EXPECT_EQ(name_a, name_b);
}

TEST(Fuzz, RoundTripOracleFlagsTrailingByteAcceptance) {
  // The oracle itself: hand it a parser-accepted-but-altered pair by
  // checking a body we know re-serializes differently *if* accepted.  With
  // hardened parsers these are rejected, which the oracle counts as fine.
  ConnectivityMsg m;
  auto bytes = m.Serialize();
  bytes.push_back(0);
  EXPECT_EQ(CheckRoundTrip(MsgType::kConnectivity, bytes), "");
  // And a rejected *valid* body is a finding when must_accept is set.
  EXPECT_NE(CheckRoundTrip(MsgType::kConnectivity, bytes,
                           /*must_accept=*/true),
            "");
}

TEST(Fuzz, SweepIsCleanAfterParserHardening) {
  FuzzReport report = FuzzRoundTrip(/*seed=*/1, /*cases_per_type=*/2000);
  EXPECT_EQ(report.cases, 8000);
  EXPECT_GT(report.accepted, 0);
  EXPECT_GT(report.rejected, 0);
  for (const FuzzFinding& f : report.findings) {
    ADD_FAILURE() << f.type << "/" << f.mutation << ": " << f.detail;
  }
}

// --- corpus ---

TEST(Corpus, ParserAcceptsTheGrammarAndRejectsGarbage) {
  std::vector<CorpusEntry> entries;
  std::string error;
  EXPECT_TRUE(ParseCorpus("# comment\n\n"
                          "connectivity:accept:00\n"
                          "srp:reject:ff\n",
                          &entries, &error));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].type, MsgType::kConnectivity);
  EXPECT_TRUE(entries[0].accept);
  EXPECT_EQ(entries[1].type, MsgType::kSrp);
  EXPECT_FALSE(entries[1].accept);

  EXPECT_FALSE(ParseCorpus("connectivity:accpt:00\n", &entries, &error));
  EXPECT_FALSE(ParseCorpus("bogus:accept:00\n", &entries, &error));
  EXPECT_FALSE(ParseCorpus("srp:reject:0\n", &entries, &error));
  EXPECT_FALSE(ParseCorpus("no colons here\n", &entries, &error));
}

TEST(Corpus, CommittedCorpusChecksClean) {
  std::vector<CorpusEntry> entries;
  std::string error;
  ASSERT_TRUE(LoadCorpus(
      std::string(AUTONET_TEST_DATA_DIR) + "/protocheck_corpus.txt", &entries,
      &error))
      << error;
  EXPECT_GE(entries.size(), 20u);
  FuzzReport report = CheckCorpus(entries);
  for (const FuzzFinding& f : report.findings) {
    ADD_FAILURE() << f.detail << " body " << f.hex;
  }
}

// --- schedule ids ---

TEST(ScheduleIds, RoundTrip) {
  ScheduleId id;
  id.topo = "small3";
  id.fault = "cut0+restore";
  id.offset_index = 3;
  id.deviations = {{12, 1}, {40, 2}};
  EXPECT_EQ(id.ToString(), "small3:cut0+restore:o3:d12.1+d40.2");
  auto back = ScheduleId::FromString(id.ToString());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->topo, id.topo);
  EXPECT_EQ(back->fault, id.fault);
  EXPECT_EQ(back->offset_index, id.offset_index);
  EXPECT_EQ(back->deviations, id.deviations);

  ScheduleId baseline;
  baseline.topo = "pair2";
  baseline.fault = "crash1";
  EXPECT_EQ(baseline.ToString(), "pair2:crash1:o0:-");
  auto base_back = ScheduleId::FromString("pair2:crash1:o0:-");
  ASSERT_TRUE(base_back.has_value());
  EXPECT_TRUE(base_back->deviations.empty());
}

TEST(ScheduleIds, FromStringRejectsMalformedIds) {
  EXPECT_FALSE(ScheduleId::FromString("").has_value());
  EXPECT_FALSE(ScheduleId::FromString("small3:cut0").has_value());
  EXPECT_FALSE(ScheduleId::FromString("small3:cut0:3:-").has_value());
  EXPECT_FALSE(ScheduleId::FromString("small3:cut0:o3:d1").has_value());
  EXPECT_FALSE(ScheduleId::FromString("small3:cut0:o3:d1.0").has_value());
  EXPECT_FALSE(ScheduleId::FromString("a:b:o0:-:extra").has_value());
  EXPECT_FALSE(ScheduleId::FromString("small3:cut0:o-0:-").has_value());
  EXPECT_FALSE(ScheduleId::FromString("small3:cut0:o3:d-1.1").has_value());
}

TEST(ScheduleIds, FaultMatrixCoversCablesAndSwitches) {
  std::string error;
  TopoSpec spec = chaos::TopologyByName("small3", &error);
  ASSERT_TRUE(error.empty());
  std::vector<std::string> faults = FaultMatrix(spec);
  auto has = [&](const std::string& f) {
    for (const std::string& x : faults) {
      if (x == f) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("cut0"));
  EXPECT_TRUE(has("cut2+restore"));
  EXPECT_TRUE(has("crash1"));
  EXPECT_TRUE(has("crash2+restart"));
  EXPECT_TRUE(has("cut0+cut2"));
  EXPECT_EQ(faults.size(), 15u);
}

// --- the epoch-poisoning regression (fixed in this change) ---

TEST(Inject, ImplausibleEpochIsDroppedNotJoined) {
  // A corrupted epoch field that slips past the CRC used to reset the
  // receiving switch into that epoch — one damaged packet poisoning the
  // epoch sequence of the whole network forever.  Jumps beyond
  // ReconfigEngine::kMaxEpochJump must be dropped as damage.
  std::string error;
  Network net(chaos::TopologyByName("pair2", &error));
  ASSERT_TRUE(error.empty());
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(40 * kSecond));
  std::uint64_t epoch0 = net.autopilot_at(0).epoch();

  ReconfigMsg msg;
  msg.kind = ReconfigMsg::Kind::kPosition;
  msg.epoch = epoch0 + (std::uint64_t{1} << 40);  // far beyond kMaxEpochJump
  msg.sender_uid = Uid(0xBAD);
  msg.root_uid = Uid(0xBAD);

  Packet p;
  p.dest = kAddrLocalCp;
  p.src = OneHopAddress(1);
  p.type = PacketType::kReconfig;
  p.payload = msg.Serialize();
  PacketRef pkt = MakePacket(std::move(p));
  net.sim().ScheduleAfter(kMillisecond, [&net, pkt] {
    CpPort& cp = net.switch_at(0).cp_port();
    cp.NoteArrivalPort(1);
    cp.SendBegin(pkt);
    for (std::uint32_t i = 0; i < pkt->WireSize(); ++i) {
      cp.SendByte(i);
    }
    cp.SendEnd(EndFlags{});
  });
  net.Run(5 * kSecond);

  for (int i = 0; i < net.num_switches(); ++i) {
    EXPECT_LT(net.autopilot_at(i).epoch(), epoch0 + 16)
        << "switch " << i << " believed the poisoned epoch";
  }
  EXPECT_TRUE(net.WaitForConsistency(net.sim().now() + 40 * kSecond));
}

TEST(Inject, SuspectEpochHeldUntilConfirmedBySecondSighting) {
  // The epoch-burn hole: a corrupted epoch below kMaxEpochJump used to be
  // believed outright, so one damaged field could silently burn up to 2^32
  // epochs of counter space.  Jumps beyond kEpochConfirmJump are now held
  // until the same value is seen a second time — a reliable sender's
  // retransmission confirms a genuine jump, while one-shot corruption
  // never reproduces the value.
  std::string error;
  Network net(chaos::TopologyByName("pair2", &error));
  ASSERT_TRUE(error.empty());
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(40 * kSecond));
  std::uint64_t epoch0 = net.autopilot_at(0).epoch();
  std::uint64_t poisoned = epoch0 + (std::uint64_t{1} << 20);
  ASSERT_GT(std::uint64_t{1} << 20, ReconfigEngine::kEpochConfirmJump);

  // The body claims the real port-1 neighbor's identity, modeling a
  // genuine message from a network segment far ahead in epoch space (the
  // case the confirmation rule must still admit) rather than a phantom
  // root the tree protocol would chase forever.
  ReconfigMsg msg;
  msg.kind = ReconfigMsg::Kind::kPosition;
  msg.epoch = poisoned;  // suspect band: above confirm, below max
  msg.sender_uid = net.autopilot_at(1).uid();
  msg.root_uid = net.autopilot_at(1).uid();

  Packet p;
  p.dest = kAddrLocalCp;
  p.src = OneHopAddress(1);
  p.type = PacketType::kReconfig;
  p.payload = msg.Serialize();
  PacketRef pkt = MakePacket(std::move(p));
  auto deliver = [&net, pkt] {
    CpPort& cp = net.switch_at(0).cp_port();
    cp.NoteArrivalPort(1);
    cp.SendBegin(pkt);
    for (std::uint32_t i = 0; i < pkt->WireSize(); ++i) {
      cp.SendByte(i);
    }
    cp.SendEnd(EndFlags{});
  };

  // First sighting: held, not joined.
  net.sim().ScheduleAfter(kMillisecond, deliver);
  net.Run(2 * kSecond);
  EXPECT_LT(net.autopilot_at(0).epoch(), epoch0 + 16)
      << "a single suspect epoch sighting was believed";

  // Second sighting of the same value: confirmed and joined, and the
  // jump propagates network-wide (neighbors confirm via the reliable
  // sender's retransmissions).
  net.sim().ScheduleAfter(kMillisecond, deliver);
  net.Run(10 * kSecond);
  EXPECT_GE(net.autopilot_at(0).epoch(), poisoned)
      << "a confirmed epoch was still refused";
  EXPECT_TRUE(net.WaitForConsistency(net.sim().now() + 40 * kSecond))
      << net.CheckConsistency();
  for (int i = 0; i < net.num_switches(); ++i) {
    EXPECT_GE(net.autopilot_at(i).epoch(), poisoned)
        << "switch " << i << " never caught up to the confirmed epoch";
  }
}

// A barrage of mutated control bodies is the adversary's `fuzz` strategy,
// run through chaos::RunOne: boot, `moves` moves of `burst` bodies each into
// switch control processors or registered hosts' parsers, the driver's
// recovery window, then the standard oracle battery (epoch budget and
// host-address integrity included).
chaos::RunResult FuzzBarrage(const std::string& topo, std::uint64_t seed,
                             int moves, int burst) {
  std::string error;
  std::vector<chaos::Scenario> parsed = chaos::ParseScenarios(
      "scenario fuzz-barrage\n  adversary fuzz moves " +
          std::to_string(moves) + " burst " + std::to_string(burst) +
          " duration 2s\n",
      &error);
  EXPECT_EQ(error, "");
  chaos::TopologyCase tc{topo, chaos::TopologyByName(topo, &error)};
  EXPECT_EQ(error, "");
  return chaos::RunOne(chaos::CampaignConfig(), parsed.at(0), tc, seed);
}

// The barrage booted, every body was injected, and no oracle fired.
void ExpectAbsorbed(const chaos::RunResult& r, int bodies) {
  const std::string mark = "fuzz: injected ";
  int injected = 0;
  for (const std::string& line : r.adversary_transcript) {
    std::size_t at = line.find(mark);
    if (at != std::string::npos) {
      injected += std::stoi(line.substr(at + mark.size()));
    }
  }
  EXPECT_EQ(injected, bodies);
  for (const chaos::Violation& v : r.violations) {
    EXPECT_NE(v.oracle, "bootstrap") << "the network never booted";
    ADD_FAILURE() << v.oracle << ": " << v.detail;
  }
}

TEST(Inject, MutatedBarrageLeavesNetworkConsistent) {
  ExpectAbsorbed(FuzzBarrage("pair2", 3, /*moves=*/6, /*burst=*/5), 30);
}

TEST(Inject, HostParserBarrageLeavesAddressesIntact) {
  // With hosts registered, about half the bodies face the host side:
  // targeted kHostAddress replies and SRP bodies, delivered fabric-forwarded
  // into the driver and SRP-client parsers.  The host-address oracle holds
  // every registered host to the short address of its actual attachment
  // point — the driver's hold-then-confirm rule is what makes a one-shot
  // forged re-address harmless.
  ExpectAbsorbed(FuzzBarrage("small3", 5, /*moves=*/6, /*burst=*/5), 30);
}

TEST(Inject, MixedTargetBarrage) {
  ExpectAbsorbed(FuzzBarrage("small3", 11, /*moves=*/8, /*burst=*/5), 40);
}

TEST(Inject, SrpClientChainsClientTraffic) {
  // Regression for a weakness the host-side barrage surfaced: installing
  // an SrpClient used to *replace* the driver's receive handler and drop
  // every non-SRP delivery, silencing all other client traffic on the host
  // while its address book stayed perfectly intact.  The client must chain
  // displaced handlers through.
  std::string error;
  Network net(chaos::TopologyByName("small3", &error));
  ASSERT_TRUE(error.empty());
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(40 * kSecond));
  ASSERT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond));

  std::vector<std::unique_ptr<SrpClient>> clients;
  for (int h = 0; h < net.num_hosts(); ++h) {
    clients.push_back(std::make_unique<SrpClient>(&net.driver_at(h)));
  }
  // The SRP path works through the client...
  EXPECT_TRUE(clients[0]->Echo({}));
  // ...and plain client data still reaches the inbox collection that the
  // client displaced.
  net.ClearInboxes();
  ASSERT_TRUE(net.SendData(0, 1, 64));
  net.Run(2 * kSecond);
  EXPECT_FALSE(net.inbox(1).empty())
      << "installing an SRP client silenced host1's client traffic";
}

// --- explorer ---

ExploreConfig SmallConfig() {
  ExploreConfig config;
  config.topo = "pair2";
  config.offsets = {0, kMillisecond};
  config.max_decision_points = 6;
  config.chooser_window = 500 * kMillisecond;
  config.jobs = 1;
  return config;
}

TEST(Explore, ScheduleReplayIsDeterministic) {
  ExploreConfig config = SmallConfig();
  ScheduleId id;
  id.topo = "pair2";
  id.fault = "cut0+restore";
  id.offset_index = 1;
  ScheduleResult a = RunSchedule(config, id);
  ScheduleResult b = RunSchedule(config, id);
  EXPECT_TRUE(a.ok) << (a.violations.empty() ? "" : a.violations[0].detail);
  EXPECT_EQ(a.log_hash, b.log_hash);
  EXPECT_EQ(a.decision_points, b.decision_points);
  EXPECT_EQ(a.branch_factors, b.branch_factors);
}

TEST(Explore, DeviatedScheduleStillSatisfiesOracles) {
  ExploreConfig config = SmallConfig();
  ScheduleId baseline;
  baseline.topo = "pair2";
  baseline.fault = "cut0+restore";
  baseline.offset_index = 0;
  ScheduleResult base = RunSchedule(config, baseline);
  ASSERT_TRUE(base.ok);
  ASSERT_FALSE(base.branch_factors.empty())
      << "no same-tick ties around the epoch transition — explorer blind";

  ScheduleId deviated = baseline;
  deviated.deviations = {{0, base.branch_factors[0] - 1}};
  ScheduleResult dev = RunSchedule(config, deviated);
  EXPECT_TRUE(dev.ok) << (dev.violations.empty()
                              ? ""
                              : dev.violations[0].detail);
}

TEST(Explore, SweepHonorsBudgetAndReportsSkips) {
  ExploreConfig config = SmallConfig();
  config.budget = 12;
  ExploreReport report = Explore(config);
  EXPECT_EQ(report.runs.size(), 12u);
  EXPECT_EQ(report.failed, 0);
  // pair2 has 9 fault x offset baselines under this offsets grid; the
  // remaining budget went to deviations and the rest were counted skipped.
  EXPECT_EQ(report.baselines, 9);
  EXPECT_GT(report.deviations_possible, 3u);
  EXPECT_EQ(report.schedules_skipped, report.deviations_possible - 3);
  EXPECT_FALSE(report.ToJson().empty());
  EXPECT_TRUE(report.ReproducerLines().empty());
}

TEST(Explore, MalformedFaultIsOneSetupViolation) {
  // Fault text is parsed when the schedule runs, against the topology: a
  // negative or out-of-range index, or a secondary the primary does not
  // take, fails setup before any network is built.
  ExploreConfig config = SmallConfig();
  for (const char* text : {"small3:cut-1:o0:-", "small3:cut99:o0:-",
                           "small3:crash0+restore:o0:-"}) {
    std::optional<ScheduleId> id = ScheduleId::FromString(text);
    ASSERT_TRUE(id.has_value()) << text;
    ScheduleResult result = RunSchedule(config, *id);
    EXPECT_FALSE(result.ok) << text;
    ASSERT_EQ(result.violations.size(), 1u) << text;
    EXPECT_EQ(result.violations[0].oracle, "setup") << text;
  }
}

TEST(Explore, ViolationCarriesReplayableReproducer) {
  // An unknown topology inside the id is the cheapest guaranteed failure
  // path that still exercises reproducer formatting.
  ExploreConfig config = SmallConfig();
  ScheduleId id;
  id.topo = "no-such-topo";
  id.fault = "cut0";
  ScheduleResult result = RunSchedule(config, id);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.violations.empty());
  EXPECT_NE(result.violations[0].reproducer.find("--replay no-such-topo"),
            std::string::npos);
}

}  // namespace
}  // namespace check
}  // namespace autonet
