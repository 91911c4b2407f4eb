#include <gtest/gtest.h>

#include "src/host/srp_client.h"
#include "src/topo/spec.h"
#include "src/workload/engine.h"

namespace autonet {
namespace {

class TrafficNetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<Network>(MakeTorus(2, 2, 1));
    net_->Boot();
    ASSERT_TRUE(net_->WaitForConsistency(60 * kSecond));
    ASSERT_TRUE(
        net_->WaitForHostsRegistered(net_->sim().now() + 30 * kSecond));
  }
  std::unique_ptr<Network> net_;
};

TEST_F(TrafficNetTest, SaturatingPermutationDeliversAtLinkRate) {
  // The rpc kind's flow set is the stride-N/2 permutation; its closed loop
  // keeps every flow's window full.
  workload::Spec spec;
  spec.kind = workload::Kind::kRpc;
  spec.data_bytes = 4000;
  workload::WorkloadEngine engine(net_.get(), spec,
                                  workload::SloBudgetConfig{},
                                  /*diameter=*/2);
  const Tick duration = 20 * kMillisecond;
  engine.Start();
  net_->Run(duration);
  const std::uint64_t completed = engine.ops_completed();
  engine.Stop();
  net_->Run(50 * kMillisecond);
  workload::SloReport report = engine.Finalize();
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(report.damaged, 0u);
  // Four simultaneous streams on a 2x2 torus: aggregate well above one
  // link's bandwidth.
  const double mbps = static_cast<double>(completed * spec.data_bytes) * 8 /
                      (static_cast<double>(duration) / kSecond) / 1e6;
  EXPECT_GT(mbps, 150.0);
  EXPECT_GT(report.steady_latency_ms.count(), 0u);
}

// --- SRP client library ---

class SrpClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<Network>(MakeLine(3, 1));
    net_->Boot();
    ASSERT_TRUE(net_->WaitForConsistency(60 * kSecond));
    ASSERT_TRUE(
        net_->WaitForHostsRegistered(net_->sim().now() + 30 * kSecond));
    client_ = std::make_unique<SrpClient>(&net_->driver_at(0));
  }
  std::unique_ptr<Network> net_;
  std::unique_ptr<SrpClient> client_;
};

TEST_F(SrpClientTest, EchoLocalSwitch) {
  EXPECT_TRUE(client_->Echo({}));
}

TEST_F(SrpClientTest, GetStateAcrossTwoHops) {
  std::vector<std::uint8_t> route = {
      static_cast<std::uint8_t>(net_->spec().cables[0].port_a),
      static_cast<std::uint8_t>(net_->spec().cables[1].port_a)};
  auto state = client_->GetState(route);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->uid, net_->switch_at(2).uid());
  EXPECT_EQ(state->switch_num, net_->autopilot_at(2).switch_num());
  EXPECT_FALSE(state->reconfig_in_progress);
  EXPECT_EQ(state->port_states.size(), 12u);
}

TEST_F(SrpClientTest, GetTopologyMatchesConvergedView) {
  auto topo = client_->GetTopology({});
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->size(), 3);
  EXPECT_EQ(topo->Validate(), "");
}

TEST_F(SrpClientTest, CrawlVisitsEverySwitch) {
  auto entries = client_->CrawlTopology();
  ASSERT_EQ(entries.size(), 3u);
  std::set<std::uint64_t> uids;
  for (const auto& e : entries) {
    uids.insert(e.state.uid.value());
  }
  EXPECT_EQ(uids.size(), 3u);
}

TEST_F(SrpClientTest, GetLogTailNonEmpty) {
  auto log = client_->GetLogTail({});
  ASSERT_TRUE(log.has_value());
  EXPECT_NE(log->find("config applied"), std::string::npos);
}

TEST_F(SrpClientTest, BadRouteTimesOut) {
  // Port 9 leads nowhere: the packet is discarded; the query times out.
  EXPECT_FALSE(client_->Echo({9}, /*timeout=*/500 * kMillisecond));
}

}  // namespace
}  // namespace autonet
