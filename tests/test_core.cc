#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/network.h"
#include "src/topo/spec.h"

namespace autonet {
namespace {

constexpr Tick kDeadline = 60 * kSecond;

TEST(Network, HealthyTopologyTracksFaults) {
  Network net(MakeRing(4, 1));
  EXPECT_EQ(net.HealthyTopology().size(), 4);

  net.CutCable(0);
  NetTopology topo = net.HealthyTopology();
  EXPECT_EQ(topo.size(), 4);
  int links = 0;
  for (const auto& sw : topo.switches) {
    links += static_cast<int>(sw.links.size());
  }
  EXPECT_EQ(links, 6);  // 3 cables remain, 2 link records each

  net.CrashSwitch(2);
  topo = net.HealthyTopology();
  EXPECT_EQ(topo.size(), 3);
  EXPECT_EQ(topo.Validate(), "");

  net.RestoreCable(0);
  net.RestartSwitch(2);
  EXPECT_EQ(net.HealthyTopology().size(), 4);
}

TEST(Network, HealthyTopologyDropsHostPortsOfDeadSwitches) {
  TopoSpec spec;
  spec.AddSwitch();
  spec.AddSwitch();
  spec.Cable(0, 1);
  spec.AddHost(0, 1);
  Network net(std::move(spec));
  net.CutHostLink(0, 0);
  NetTopology topo = net.HealthyTopology();
  EXPECT_TRUE(topo.switches[0].host_ports.empty());
  EXPECT_EQ(topo.switches[1].host_ports.Count(), 1);
}

TEST(Network, SendDataFailsBeforeRegistration) {
  Network net(MakeLine(2, 1));
  EXPECT_FALSE(net.SendData(0, 1, 10));
}

TEST(Network, CrashSilencesLinksBothWays) {
  TopoSpec spec = MakeLine(2, 1);
  const int dual = spec.AddHost(0, 1);  // alternate link on switch 1
  Network net(spec);
  net.CrashSwitch(1);
  EXPECT_EQ(net.cable_at(0).mode(), LinkMode::kCut);
  EXPECT_EQ(net.host_link(1, 0).mode(), LinkMode::kCut);
  EXPECT_EQ(net.host_link(dual, 1).mode(), LinkMode::kCut);
  EXPECT_EQ(net.host_link(dual, 0).mode(), LinkMode::kNormal);
  EXPECT_EQ(net.host_link(0, 0).mode(), LinkMode::kNormal);
  EXPECT_FALSE(net.switch_alive(1));
  // Restoring a host link does not power its crashed switch's end.
  net.RestoreHostLink(1, 0);
  EXPECT_EQ(net.host_link(1, 0).mode(), LinkMode::kCut);
  net.RestartSwitch(1);
  EXPECT_EQ(net.cable_at(0).mode(), LinkMode::kNormal);
  EXPECT_EQ(net.host_link(1, 0).mode(), LinkMode::kNormal);
  EXPECT_EQ(net.host_link(dual, 1).mode(), LinkMode::kNormal);
  EXPECT_TRUE(net.switch_alive(1));
}

TEST(Network, CrashIsIdempotent) {
  Network net(MakeLine(2, 1));
  net.CrashSwitch(0);
  net.CrashSwitch(0);
  net.RestartSwitch(0);
  net.RestartSwitch(0);
  EXPECT_TRUE(net.switch_alive(0));
}

TEST(Network, ManualCutSurvivesSwitchRestart) {
  TopoSpec spec = MakeRing(3, 1);
  const int dual = spec.AddHost(1, 0);  // alternate link on switch 0
  Network net(spec);
  net.CutCable(0);
  net.CutHostLink(dual, 1);
  net.CrashSwitch(0);
  net.RestartSwitch(0);
  // The manual cuts must still be in force after the restart refresh; the
  // switch's other host link comes back.
  EXPECT_EQ(net.cable_at(0).mode(), LinkMode::kCut);
  EXPECT_EQ(net.host_link(dual, 1).mode(), LinkMode::kCut);
  EXPECT_EQ(net.host_link(0, 0).mode(), LinkMode::kNormal);
  net.RestoreHostLink(dual, 1);
  EXPECT_EQ(net.host_link(dual, 1).mode(), LinkMode::kNormal);
}

TEST(Network, InboxLimitCapsDeliveries) {
  NetworkConfig config;
  config.inbox_limit = 3;
  Network net(MakeLine(2, 1), config);
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline));
  ASSERT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond));
  for (int i = 0; i < 10; ++i) {
    net.SendData(0, 1, 16);
  }
  net.Run(50 * kMillisecond);
  EXPECT_EQ(net.inbox(1).size(), 3u);
  net.ClearInboxes();
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(Network, LastReconfigCoversWholeWave) {
  Network net(MakeTorus(2, 2, 0));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline));
  net.CutCable(0);
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + kDeadline));
  Network::ReconfigTiming timing = net.LastReconfig();
  EXPECT_GT(timing.epoch, 0u);
  EXPECT_GE(timing.start, 0);
  EXPECT_GT(timing.end, timing.start);
  // All alive switches ended on the same epoch.
  for (int i = 0; i < net.num_switches(); ++i) {
    EXPECT_EQ(net.autopilot_at(i).epoch(), timing.epoch);
  }
}

TEST(Network, MergedLogInterleavesAllSwitches) {
  Network net(MakeLine(3, 0));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline));
  auto log = net.MergedLog();
  ASSERT_FALSE(log.empty());
  std::set<std::string> nodes;
  Tick previous = 0;
  for (const LogEntry& e : log) {
    EXPECT_GE(e.time, previous);
    previous = e.time;
    nodes.insert(e.node);
  }
  EXPECT_GE(nodes.size(), 3u);
}

TEST(Network, DeterministicAcrossRuns) {
  auto run = [] {
    Network net(MakeTorus(2, 3, 1));
    net.Boot();
    net.WaitForConsistency(kDeadline);
    std::uint64_t signature = net.sim().now();
    for (int i = 0; i < net.num_switches(); ++i) {
      signature = signature * 31 + net.autopilot_at(i).epoch();
      signature = signature * 31 + net.autopilot_at(i).switch_num();
      signature = signature * 31 + net.switch_at(i).stats().packets_forwarded;
    }
    return signature;
  };
  EXPECT_EQ(run(), run());
}

TEST(Network, CableCorruptionRateDropsAndHealsTheLink) {
  Network net(MakeRing(4, 1));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline));
  EXPECT_EQ(net.cable_corruption_rate(0), 0.0);

  // Every byte damaged: the monitor must throw the link out of service.
  net.SetCableCorruptionRate(0, 1.0);
  EXPECT_EQ(net.cable_corruption_rate(0), 1.0);
  net.Run(2 * kSecond);
  const TopoSpec::CableSpec& cs = net.spec().cables[0];
  EXPECT_FALSE(
      net.autopilot_at(cs.sw_a).port_state(cs.port_a) ==
          PortState::kSwitchGood &&
      net.autopilot_at(cs.sw_b).port_state(cs.port_b) ==
          PortState::kSwitchGood);

  // Healed: once the skeptic's hold-down is served the full ring is
  // consistent again (CheckConsistency compares against the healthy
  // topology, which includes cable 0).
  net.SetCableCorruptionRate(0, 0.0);
  EXPECT_TRUE(net.WaitForConsistency(net.sim().now() + 180 * kSecond));
}

TEST(Network, ConsistencyRejectsTamperedTable) {
  Network net(MakeLine(2, 1));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline));
  ASSERT_EQ(net.CheckConsistency(), "");
  // Sabotage one switch's table: verification must notice.
  ForwardingTable bogus = ForwardingTable::OneHopOnly();
  Switch::Config no_reset_cfg = net.switch_at(0).config();
  (void)no_reset_cfg;
  net.switch_at(0).LoadForwardingTable(bogus);
  EXPECT_NE(net.CheckConsistency(), "");

  // On a ring cut into halves {4,5,0} and {1,2,3}, each half is judged on
  // its own: a bad table in the second half fails the check, and the
  // failure names a switch of that half only.
  Network ring(MakeRing(6, 1));
  ring.Boot();
  ASSERT_TRUE(ring.WaitForConsistency(kDeadline));
  ring.CutCable(0);  // between 0 and 1
  ring.CutCable(3);  // between 3 and 4
  ASSERT_TRUE(ring.WaitForConsistency(ring.sim().now() + kDeadline))
      << ring.CheckConsistency();
  ring.switch_at(2).LoadForwardingTable(bogus);
  std::string why = ring.CheckConsistency();
  ASSERT_NE(why, "");
  auto names = [&](int sw) {
    return why.find(ring.spec().switches[sw].uid.ToString()) !=
           std::string::npos;
  };
  EXPECT_TRUE(names(1) || names(2) || names(3)) << why;
  EXPECT_FALSE(names(4) || names(5) || names(0)) << why;
}

TEST(Network, HealthyComponentsSplitAndMerge) {
  Network net(MakeRing(6, 1));  // host h on switch h
  auto host_component = [&](int h) {
    return net.HealthyComponents()[net.HostAttachment(h)];
  };
  for (int h = 0; h < net.num_hosts(); ++h) {
    EXPECT_EQ(host_component(h), 0) << h;
  }

  // Two cuts split the ring into halves {0,4,5} and {1,2,3}.
  net.CutCable(0);
  net.CutCable(3);
  EXPECT_EQ(net.HealthyComponents(), (std::vector<int>{0, 1, 1, 1, 0, 0}));
  EXPECT_NE(host_component(1), host_component(4));

  // A host on a crashed switch has no component.
  net.CrashSwitch(3);
  EXPECT_EQ(host_component(3), -1);
  EXPECT_EQ(host_component(2), host_component(1));

  // Restoring the cables and the switch merges the ids again.
  net.RestartSwitch(3);
  net.RestoreCable(0);
  net.RestoreCable(3);
  EXPECT_EQ(net.HealthyComponents(), std::vector<int>(6, 0));
}

TEST(Network, HostAttachmentFollowsFailover) {
  TopoSpec spec = MakeRing(4, 1);
  int roamer = spec.AddHost(1, 3);  // dual-homed: primary 1, alternate 3
  Network net(std::move(spec));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline)) << net.CheckConsistency();
  ASSERT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond));
  PortNum port = -1;
  EXPECT_EQ(net.HostAttachment(roamer, &port), 1);
  EXPECT_EQ(port, net.spec().hosts[roamer].primary_port);
  EXPECT_EQ(net.HostAttachment(0), 0);  // single-homed

  // Cut switch 1 off and the roamer's primary link: the driver fails over
  // to its alternate, and the roamer joins switch 3's component.
  net.CutCable(0);  // between 0 and 1
  net.CutCable(1);  // between 1 and 2
  net.CutHostLink(roamer, 0);
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + kDeadline))
      << net.CheckConsistency();
  net.Run(15 * kSecond);
  ASSERT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond));
  EXPECT_EQ(net.HostAttachment(roamer, &port), 3);
  EXPECT_EQ(port, net.spec().hosts[roamer].alt_port);
  std::vector<int> components = net.HealthyComponents();
  EXPECT_NE(components[1], components[3]);
  EXPECT_EQ(net.HostComponent(roamer, components), components[3]);
  EXPECT_EQ(net.HostComponent(1, components), components[1]);
  EXPECT_EQ(net.HostComponent(0, components), components[3]);
}

}  // namespace
}  // namespace autonet
