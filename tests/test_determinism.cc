// Timing-invisibility tests for the event-engine hot path (train events,
// inverted cancellation, pooled event storage).
//
// The engine rework is only allowed to make events *cheaper*, never to move
// or reorder them: same seed must give byte-identical merged EventLog
// output.  These tests replay two fixed scenarios — a multi-hop data
// transfer and a chaos-style cut/heal reconfiguration — and diff the full
// formatted merged log against recordings captured before the rework
// (tests/data/*.log, generated from the pre-train per-byte-event engine).
//
// To regenerate the recordings after an *intentional* behaviour change, run
// with AUTONET_UPDATE_RECORDINGS=1 and commit the new files with an
// explanation of why the timeline legitimately moved.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/event_log.h"
#include "src/core/network.h"
#include "src/obs/flight.h"
#include "src/topo/spec.h"

namespace autonet {
namespace {

#ifndef AUTONET_TEST_DATA_DIR
#define AUTONET_TEST_DATA_DIR "tests/data"
#endif

std::string RecordingPath(const std::string& name) {
  return std::string(AUTONET_TEST_DATA_DIR) + "/" + name;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::string();
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << contents;
  return out.good();
}

// A multi-hop transfer: one host at each end of a 6-switch line, a single
// 1500-byte packet crossing five switch hops (the ISSUE's motivating
// workload: ~7500 per-byte events under the old engine).
std::string RunMultiHopScenario() {
  Network net(MakeLine(6, 1));
  net.Boot();
  EXPECT_TRUE(net.WaitForConsistency(5 * 60 * kSecond));
  EXPECT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond));
  EXPECT_TRUE(net.SendData(0, net.num_hosts() - 1, 1500));
  net.Run(50 * kMillisecond);
  EXPECT_EQ(net.inbox(net.num_hosts() - 1).size(), 1u);
  return EventLog::Format(net.MergedLog());
}

// One line per retained flight event, every ring in node order: the text
// form that pins what the recorder holds.
std::string DumpFlight(const obs::FlightRecorder& flight) {
  std::string out;
  char buf[160];
  flight.Visit([&](const obs::FlightRing& ring) {
    for (const obs::FlightEvent& e : ring.Chronological()) {
      std::snprintf(buf, sizeof(buf), "%s %lld %s %llu %llx %llu %llu %d ",
                    ring.node().c_str(), static_cast<long long>(e.time),
                    obs::FlightEventKindName(e.kind),
                    static_cast<unsigned long long>(e.epoch),
                    static_cast<unsigned long long>(e.origin.value()),
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b), e.port);
      out += buf;
      out += std::string(e.detail) + " | " + e.from + " | " + e.to + "\n";
    }
  });
  return out;
}

struct ChaosRun {
  std::string log;
  std::string metrics;
  std::string flight;
};

// A chaos-style scenario: cut a cable on a redundant topology, let the net
// reconfigure, push traffic over the detour, heal, reconfigure again.
ChaosRun RunChaosScenario(bool armed = false) {
  Network net(MakeTorus(3, 3, 1));
  if (armed) {
    net.sim().flight().Arm();
  }
  net.Boot();
  EXPECT_TRUE(net.WaitForConsistency(5 * 60 * kSecond));
  EXPECT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond));
  net.CutCable(0);
  EXPECT_TRUE(net.WaitForConsistency(net.sim().now() + 5 * 60 * kSecond));
  EXPECT_TRUE(net.SendData(0, net.num_hosts() - 1, 400));
  net.Run(50 * kMillisecond);
  net.RestoreCable(0);
  EXPECT_TRUE(net.WaitForConsistency(net.sim().now() + 5 * 60 * kSecond));
  return ChaosRun{EventLog::Format(net.MergedLog()), net.DumpMetricsJson(),
                  DumpFlight(net.sim().flight())};
}

void CheckAgainstRecording(const std::string& name, const std::string& got) {
  std::string path = RecordingPath(name);
  if (std::getenv("AUTONET_UPDATE_RECORDINGS") != nullptr) {
    ASSERT_TRUE(WriteFile(path, got)) << "cannot write " << path;
    GTEST_SKIP() << "recording updated: " << path;
  }
  std::string want = ReadFileOrEmpty(path);
  ASSERT_FALSE(want.empty())
      << "missing recording " << path
      << " — run with AUTONET_UPDATE_RECORDINGS=1 to create it";
  if (got != want) {
    // Locate the first diverging line so a failure is actionable without
    // dumping two multi-thousand-line logs.
    std::istringstream a(want), b(got);
    std::string la, lb;
    int line = 0;
    while (true) {
      bool ea = !std::getline(a, la);
      bool eb = !std::getline(b, lb);
      ++line;
      if (ea && eb) {
        break;
      }
      if (ea != eb || la != lb) {
        FAIL() << name << ": merged log diverges from recording at line "
               << line << "\n  recorded: " << (ea ? "<eof>" : la)
               << "\n  got:      " << (eb ? "<eof>" : lb);
      }
    }
    FAIL() << name << ": logs differ in length only";
  }
  SUCCEED();
}

TEST(Determinism, MultiHopTransferMatchesPreTrainRecording) {
  CheckAgainstRecording("determinism_multihop.log", RunMultiHopScenario());
}

TEST(Determinism, ChaosScenarioMatchesPreTrainRecording) {
  CheckAgainstRecording("determinism_chaos.log", RunChaosScenario().log);
}

// Arming the flight recorder writes only to the rings: the merged log (the
// disarmed recording) and the metrics stay the same, and the rings hold
// the recorded event stream.
TEST(Determinism, ArmedRecorderLeavesLogAndMetricsAndPinsFlightEvents) {
  ChaosRun armed = RunChaosScenario(/*armed=*/true);
  CheckAgainstRecording("determinism_chaos.log", armed.log);
  EXPECT_EQ(armed.metrics, RunChaosScenario().metrics);
  CheckAgainstRecording("determinism_flight.log", armed.flight);
}

TEST(Determinism, RepeatedRunsAreByteIdentical) {
  std::string first = RunMultiHopScenario();
  std::string second = RunMultiHopScenario();
  EXPECT_EQ(first, second);
  std::string chaos_first = RunChaosScenario().log;
  std::string chaos_second = RunChaosScenario().log;
  EXPECT_EQ(chaos_first, chaos_second);
}

}  // namespace
}  // namespace autonet
