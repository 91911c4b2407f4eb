#include <gtest/gtest.h>

#include "src/core/network.h"
#include "src/topo/planner.h"

namespace autonet {
namespace {

TEST(Analysis, DiameterOfRingAndDisconnected) {
  NetTopology ring = MakeRing(6, 0).ExpectedTopology();
  EXPECT_EQ(TopologyDiameter(ring), 3);
  NetTopology line = MakeLine(5, 0).ExpectedTopology();
  EXPECT_EQ(TopologyDiameter(line), 4);
  // Disconnect it.
  line.switches[2].links.clear();
  line.SymmetrizeLinks();
  EXPECT_EQ(TopologyDiameter(line), -1);
  // The oracles' view of a partition: the widest part's diameter.
  bool connected = true;
  EXPECT_EQ(LongestShortestPath(line, &connected), 1);
  EXPECT_FALSE(connected);
}

TEST(Analysis, TwoEdgeConnectivity) {
  EXPECT_TRUE(IsTwoEdgeConnected(MakeRing(5, 0).ExpectedTopology()));
  EXPECT_FALSE(IsTwoEdgeConnected(MakeLine(4, 0).ExpectedTopology()));
  EXPECT_TRUE(IsTwoEdgeConnected(MakeTorus(3, 4, 0).ExpectedTopology()));
  EXPECT_FALSE(IsTwoEdgeConnected(MakeTree(2, 3, 0).ExpectedTopology()));
}

TEST(Analysis, TwoVertexConnectivity) {
  EXPECT_TRUE(IsTwoVertexConnected(MakeRing(5, 0).ExpectedTopology()));
  EXPECT_TRUE(IsTwoVertexConnected(MakeTorus(3, 3, 0).ExpectedTopology()));
  // A tree has articulation points everywhere.
  EXPECT_FALSE(IsTwoVertexConnected(MakeTree(2, 2, 0).ExpectedTopology()));
  // Two rings joined at a single switch: that switch is an articulation
  // point even though the graph is 2-edge-connected.
  TopoSpec spec;
  for (int i = 0; i < 7; ++i) {
    spec.AddSwitch();
  }
  // ring A: 0-1-2-0; ring B: 0-3-4-0 won't work (double use of 0.. fine).
  spec.Cable(0, 1);
  spec.Cable(1, 2);
  spec.Cable(2, 0);
  spec.Cable(0, 3);
  spec.Cable(3, 4);
  spec.Cable(4, 0);
  NetTopology barbell = spec.ExpectedTopology();
  barbell.switches.resize(5);  // drop the unused switches 5,6
  EXPECT_TRUE(IsTwoEdgeConnected(barbell));
  EXPECT_FALSE(IsTwoVertexConnected(barbell));
}

TEST(Planner, SizesForTheSrcPopulation) {
  InstallationRequirements req;
  req.hosts = 96;  // ~SRC scale with headroom
  InstallationPlan plan = PlanInstallation(req);
  ASSERT_TRUE(plan.feasible) << plan.error;
  // 96 dual-homed hosts with 25% headroom: 240 attachments, 8 per switch
  // => 30 switches, the SRC count.
  EXPECT_EQ(plan.switches, 30);
  EXPECT_GE(plan.host_capacity, 96);
  EXPECT_TRUE(plan.single_fault_tolerant);
  EXPECT_EQ(plan.spec.Validate(), "");
  EXPECT_GT(plan.bisection_mbps, 100.0);  // more than one link's worth
  EXPECT_FALSE(plan.Summary().empty());
}

TEST(Planner, SmallOfficeStillFaultTolerant) {
  InstallationRequirements req;
  req.hosts = 6;
  InstallationPlan plan = PlanInstallation(req);
  ASSERT_TRUE(plan.feasible) << plan.error;
  EXPECT_GE(plan.switches, 2);
  EXPECT_TRUE(plan.single_fault_tolerant);
}

TEST(Planner, SingleHomedPlanIsNotFaultTolerant) {
  InstallationRequirements req;
  req.hosts = 20;
  req.dual_homed = false;
  InstallationPlan plan = PlanInstallation(req);
  ASSERT_TRUE(plan.feasible) << plan.error;
  EXPECT_FALSE(plan.single_fault_tolerant);
}

TEST(Planner, RejectsEmptyRequirements) {
  InstallationPlan plan = PlanInstallation(InstallationRequirements{});
  EXPECT_FALSE(plan.feasible);
}

TEST(Planner, PlannedNetworkActuallyConverges) {
  InstallationRequirements req;
  req.hosts = 10;
  InstallationPlan plan = PlanInstallation(req);
  ASSERT_TRUE(plan.feasible) << plan.error;

  Network net(plan.spec);
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(5 * 60 * kSecond))
      << net.CheckConsistency();
  ASSERT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 60 * kSecond));
  // The availability promise holds live: crash any one switch; every host
  // still reaches every other host.
  net.CrashSwitch(0);
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + 5 * 60 * kSecond));
  net.Run(15 * kSecond);  // failover timers
  ASSERT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 60 * kSecond));
  net.ClearInboxes();
  ASSERT_TRUE(net.SendData(0, 5, 64));
  net.Run(20 * kMillisecond);
  EXPECT_EQ(net.inbox(5).size(), 1u);
}

}  // namespace
}  // namespace autonet
