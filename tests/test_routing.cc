#include <gtest/gtest.h>

#include "src/routing/spanning_tree.h"
#include "src/routing/topology.h"
#include "src/routing/updown.h"
#include "src/routing/verify.h"
#include "tests/topo_helpers.h"

namespace autonet {
namespace {

TEST(Topology, ValidateAcceptsWellFormed) {
  NetTopology topo = RingTopology(5);
  EXPECT_EQ(topo.Validate(), "");
}

TEST(Topology, ValidateRejectsAsymmetricLink) {
  NetTopology topo = LineTopology(2);
  topo.switches[0].links.push_back({9, 1, 9});  // no counterpart
  EXPECT_NE(topo.Validate(), "");
}

TEST(Topology, SymmetrizeDropsOneSidedLinks) {
  NetTopology topo = LineTopology(3);
  topo.switches[0].links.push_back({9, 2, 9});
  topo.SymmetrizeLinks();
  EXPECT_EQ(topo.Validate(), "");
  EXPECT_EQ(topo.switches[0].links.size(), 1u);
}

TEST(Topology, RootIsSmallestUid) {
  NetTopology topo = RingTopology(6);
  topo.switches[4].uid = Uid(1);  // force a different root
  EXPECT_EQ(topo.RootIndex(), 4);
}

TEST(AssignSwitchNumbers, HonorsUncontestedProposals) {
  NetTopology topo = LineTopology(3);
  topo.switches[0].proposed_num = 10;
  topo.switches[1].proposed_num = 20;
  topo.switches[2].proposed_num = 30;
  AssignSwitchNumbers(&topo);
  EXPECT_EQ(topo.switches[0].assigned_num, 10);
  EXPECT_EQ(topo.switches[1].assigned_num, 20);
  EXPECT_EQ(topo.switches[2].assigned_num, 30);
}

TEST(AssignSwitchNumbers, SmallestUidWinsConflicts) {
  NetTopology topo = LineTopology(3);
  // All propose 5; UIDs ascend with index, so switch 0 wins.
  for (auto& sw : topo.switches) {
    sw.proposed_num = 5;
  }
  AssignSwitchNumbers(&topo);
  EXPECT_EQ(topo.switches[0].assigned_num, 5);
  // Losers get the lowest unrequested numbers in UID order.
  EXPECT_EQ(topo.switches[1].assigned_num, 1);
  EXPECT_EQ(topo.switches[2].assigned_num, 2);
}

TEST(AssignSwitchNumbers, InvalidProposalTreatedAsUnrequested) {
  NetTopology topo = LineTopology(2);
  topo.switches[0].proposed_num = 0;  // out of range
  topo.switches[1].proposed_num = 3;
  AssignSwitchNumbers(&topo);
  EXPECT_EQ(topo.switches[1].assigned_num, 3);
  EXPECT_EQ(topo.switches[0].assigned_num, 1);
}

TEST(SpanningTree, LineTree) {
  NetTopology topo = LineTopology(4);
  SpanningTree tree = ComputeSpanningTree(topo);
  EXPECT_EQ(tree.root, 0);  // smallest UID
  EXPECT_EQ(tree.level, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(tree.parent, (std::vector<int>{-1, 0, 1, 2}));
  EXPECT_EQ(tree.Depth(), 3);
}

TEST(SpanningTree, RingLevelsAreBfsDistances) {
  NetTopology topo = RingTopology(6);
  SpanningTree tree = ComputeSpanningTree(topo);
  EXPECT_EQ(tree.root, 0);
  EXPECT_EQ(tree.level, (std::vector<int>{0, 1, 2, 3, 2, 1}));
}

TEST(SpanningTree, ParentPrefersSmallerUid) {
  // Diamond: 0 at top, 1 and 2 in the middle, 3 at the bottom.
  NetTopology topo = EmptyTopology(4);
  AddCable(&topo, 0, 1);
  AddCable(&topo, 0, 2);
  AddCable(&topo, 1, 3);
  AddCable(&topo, 2, 3);
  AddHostPerSwitch(&topo);
  AssignSwitchNumbers(&topo);
  SpanningTree tree = ComputeSpanningTree(topo);
  EXPECT_EQ(tree.parent[3], 1);  // uid of 1 < uid of 2
}

TEST(SpanningTree, ChildPortsInverseOfParent) {
  NetTopology topo = RingTopology(5);
  SpanningTree tree = ComputeSpanningTree(topo);
  for (int node = 0; node < topo.size(); ++node) {
    PortVector children = tree.ChildPorts(topo, node);
    children.ForEach([&](PortNum p) {
      const TopoLink* link = nullptr;
      for (const TopoLink& l : topo.switches[node].links) {
        if (l.local_port == p) {
          link = &l;
        }
      }
      ASSERT_NE(link, nullptr);
      EXPECT_EQ(tree.parent[link->remote_switch], node);
    });
  }
}

TEST(UpDown, DirectionPointsTowardRoot) {
  NetTopology topo = LineTopology(3);
  SpanningTree tree = ComputeSpanningTree(topo);
  EXPECT_TRUE(TraversesUp(topo, tree, 1, 0));
  EXPECT_FALSE(TraversesUp(topo, tree, 0, 1));
}

TEST(UpDown, LevelTieBrokenByUid) {
  // Triangle 0-1-2: 1 and 2 are both level 1.
  NetTopology topo = RingTopology(3);
  SpanningTree tree = ComputeSpanningTree(topo);
  EXPECT_TRUE(TraversesUp(topo, tree, 2, 1));  // uid(1) < uid(2)
  EXPECT_FALSE(TraversesUp(topo, tree, 1, 2));
}

TEST(UpDown, DistancesOnLine) {
  NetTopology topo = LineTopology(4);
  SpanningTree tree = ComputeSpanningTree(topo);
  UpDownDistances dist = ComputeDistances(topo, tree, 3);
  // Everything is downhill from the root toward 3.
  EXPECT_EQ(dist.free[0], 3);
  EXPECT_EQ(dist.free[2], 1);
  // From 0, the down distance equals the free distance (all links down).
  EXPECT_EQ(dist.down[0], 3);
  // From 3 itself: zero.
  EXPECT_EQ(dist.free[3], 0);
}

TEST(UpDown, DownPhaseCannotClimb) {
  // Line 0-1-2: from 2, destination host on 0 requires going up.  A packet
  // that arrived *down* into 2 must not have a route back up.
  NetTopology topo = LineTopology(3);
  SpanningTree tree = ComputeSpanningTree(topo);
  UpDownDistances dist = ComputeDistances(topo, tree, 0);
  EXPECT_EQ(dist.free[2], 2);
  EXPECT_GE(dist.down[2], kUnreachable);
}

class TableSuite : public ::testing::TestWithParam<int> {};

TEST_P(TableSuite, RoutesVerifyOnRandomTopologies) {
  NetTopology topo = RandomTopology(12, 8, GetParam());
  ASSERT_EQ(topo.Validate(), "");
  SpanningTree tree = ComputeSpanningTree(topo);
  auto tables = BuildAllForwardingTables(topo, tree);
  VerifyResult result = VerifyRoutes(topo, tables);
  EXPECT_TRUE(result.ok) << result.error;
}

TEST_P(TableSuite, UpDownTablesAreDeadlockFree) {
  NetTopology topo = RandomTopology(12, 10, GetParam() + 1000);
  SpanningTree tree = ComputeSpanningTree(topo);
  auto tables = BuildAllForwardingTables(topo, tree);
  DependencyCheck check = CheckChannelDependencies(topo, tables);
  EXPECT_TRUE(check.acyclic)
      << "cycle through " << check.cycle.size() << " channels";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableSuite, ::testing::Range(0, 12));

TEST(Verify, ShortestPathTablesDeadlockOnRing) {
  // A ring routed by plain shortest paths has the classic cyclic channel
  // dependency; up*/down* breaks it.
  NetTopology topo = RingTopology(6);
  auto naive = BuildShortestPathTables(topo);
  DependencyCheck bad = CheckChannelDependencies(topo, naive);
  EXPECT_FALSE(bad.acyclic);

  SpanningTree tree = ComputeSpanningTree(topo);
  auto updown = BuildAllForwardingTables(topo, tree);
  DependencyCheck good = CheckChannelDependencies(topo, updown);
  EXPECT_TRUE(good.acyclic);
}

TEST(Verify, ShortestPathRoutesStillDeliver) {
  NetTopology topo = RingTopology(5);
  auto tables = BuildShortestPathTables(topo);
  // Deliverability holds — it is the *dependency cycles*, not reachability,
  // that make naive shortest paths unusable on this fabric.
  CoverageResult cov = ChannelCoverage(topo, tables);
  EXPECT_EQ(cov.used, cov.total);
}

TEST(Verify, ChannelCoverageCompleteOnTree) {
  // On a pure tree every link is on some minimal route.
  NetTopology topo = LineTopology(5);
  SpanningTree tree = ComputeSpanningTree(topo);
  auto tables = BuildAllForwardingTables(topo, tree);
  CoverageResult cov = ChannelCoverage(topo, tables);
  EXPECT_EQ(cov.used, cov.total);
}

TEST(Verify, TrunkGroupsGiveAlternatives) {
  // Two parallel cables between two switches act as a trunk group: the
  // forwarding entry lists both ports as alternatives (section 6.3).
  NetTopology topo = EmptyTopology(2);
  AddCable(&topo, 0, 1);
  AddCable(&topo, 0, 1);
  AddHostPerSwitch(&topo);
  AssignSwitchNumbers(&topo);
  SpanningTree tree = ComputeSpanningTree(topo);
  auto tables = BuildAllForwardingTables(topo, tree);

  PortNum host_port = topo.switches[0].host_ports.Lowest();
  ShortAddress remote_host = ShortAddress::FromSwitchPort(
      topo.switches[1].assigned_num, topo.switches[1].host_ports.Lowest());
  ForwardingTable::Entry entry = tables[0].Lookup(host_port, remote_host);
  EXPECT_FALSE(entry.broadcast);
  EXPECT_EQ(entry.ports.Count(), 2);
}

TEST(Verify, CorruptedAddressDiscardedNotMisrouted) {
  // A packet that went down and then (because of a corrupted address) would
  // need to go up again hits a discard entry (section 6.6.4).
  NetTopology topo = LineTopology(3);
  SpanningTree tree = ComputeSpanningTree(topo);
  auto tables = BuildAllForwardingTables(topo, tree);

  // At switch 2 (bottom of the line), a packet arriving from switch 1 came
  // down.  An address of a host on switch 0 would require going back up.
  ShortAddress uphill_dest = ShortAddress::FromSwitchPort(
      topo.switches[0].assigned_num, topo.switches[0].host_ports.Lowest());
  PortNum inport = topo.switches[2].links[0].local_port;
  ForwardingTable::Entry entry = tables[2].Lookup(inport, uphill_dest);
  EXPECT_TRUE(entry.IsDiscard());
}

TEST(Verify, BroadcastEntriesFollowTree) {
  NetTopology topo = LineTopology(3);
  SpanningTree tree = ComputeSpanningTree(topo);
  auto tables = BuildAllForwardingTables(topo, tree);

  // Host on leaf switch 2 broadcasts: up-phase entry points at the parent.
  PortNum host2 = topo.switches[2].host_ports.Lowest();
  ForwardingTable::Entry up = tables[2].Lookup(host2, kAddrBroadcastAll);
  EXPECT_FALSE(up.broadcast);
  EXPECT_EQ(up.ports, PortVector::Single(tree.parent_port[2]));

  // At the root, the flood entry fans to children, hosts and the CP.
  ForwardingTable::Entry flood =
      tables[0].Lookup(tree.parent_port[1], kAddrBroadcastAll);
  // Root's entry is looked up with the port where child 1 attaches; find it.
  PortNum root_child_port = tree.ChildPorts(topo, 0).Lowest();
  flood = tables[0].Lookup(root_child_port, kAddrBroadcastAll);
  EXPECT_TRUE(flood.broadcast);
  EXPECT_TRUE(flood.ports.Test(kCpPort));
  EXPECT_TRUE(flood.ports.Test(topo.switches[0].host_ports.Lowest()));
  EXPECT_TRUE(flood.ports.Test(root_child_port));
}

TEST(Verify, HostsOnlyBroadcastSkipsCps) {
  NetTopology topo = LineTopology(2);
  SpanningTree tree = ComputeSpanningTree(topo);
  auto tables = BuildAllForwardingTables(topo, tree);
  PortNum root_child_port = tree.ChildPorts(topo, 0).Lowest();
  ForwardingTable::Entry flood =
      tables[0].Lookup(root_child_port, kAddrBroadcastHosts);
  EXPECT_FALSE(flood.ports.Test(kCpPort));
}

TEST(ForwardingTable, OneHopConstantPart) {
  ForwardingTable t = ForwardingTable::OneHopOnly();
  // From the CP, address 0x005 goes out port 5.
  ForwardingTable::Entry e = t.Lookup(kCpPort, OneHopAddress(5));
  EXPECT_EQ(e.ports, PortVector::Single(5));
  // From external port 7, the same address reaches the CP.
  e = t.Lookup(7, OneHopAddress(5));
  EXPECT_EQ(e.ports, PortVector::Single(kCpPort));
  // Address 0x000 from a host port reaches the CP.
  e = t.Lookup(3, kAddrLocalCp);
  EXPECT_EQ(e.ports, PortVector::Single(kCpPort));
  // Everything else discards.
  EXPECT_TRUE(t.Lookup(2, ShortAddress(0x345)).IsDiscard());
}

TEST(ForwardingTable, WriteToCopyLeavesSourceUnchanged) {
  const ForwardingTable::Entry via3 =
      ForwardingTable::Entry::Alternatives(PortVector::Single(3));
  ForwardingTable source = ForwardingTable::OneHopOnly();
  source.Set(2, ShortAddress(0x345), via3);

  ForwardingTable copy = source;
  copy.Set(2, ShortAddress(0x345), ForwardingTable::Entry::Discard());
  EXPECT_EQ(source.Lookup(2, ShortAddress(0x345)).ports,
            PortVector::Single(3));
  EXPECT_TRUE(copy.Lookup(2, ShortAddress(0x345)).IsDiscard());

  copy = source;
  copy.CorruptBits(7, OneHopAddress(5), 0x0004);
  EXPECT_EQ(source.Lookup(7, OneHopAddress(5)).ports,
            PortVector::Single(kCpPort));
  EXPECT_NE(copy.Lookup(7, OneHopAddress(5)).ports,
            PortVector::Single(kCpPort));
  EXPECT_FALSE(copy == source);

  // And the other way round: writes to the source leave the copy alone.
  copy = source;
  source.Set(4, ShortAddress(0x123), via3);
  source.CorruptBits(7, OneHopAddress(5), 0x0004);
  EXPECT_TRUE(copy.Lookup(4, ShortAddress(0x123)).IsDiscard());
  EXPECT_EQ(copy.Lookup(7, OneHopAddress(5)).ports,
            PortVector::Single(kCpPort));

  // The shared one-hop image is untouched by all of the above.
  EXPECT_TRUE(
      ForwardingTable::OneHopOnly().Lookup(2, ShortAddress(0x345)).IsDiscard());
  EXPECT_EQ(ForwardingTable::OneHopOnly().Lookup(7, OneHopAddress(5)).ports,
            PortVector::Single(kCpPort));
}

TEST(ForwardingTable, SeparatelyBuiltTablesCompareByEntries) {
  const ForwardingTable::Entry via3 =
      ForwardingTable::Entry::Alternatives(PortVector::Single(3));
  ForwardingTable a;
  ForwardingTable b;
  a.SetForAllInports(ShortAddress(0x120), via3);
  b.SetForAllInports(ShortAddress(0x120), via3);
  EXPECT_TRUE(a == b);

  b.Set(12, ShortAddress(0x7FF), via3);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(b == a);

  // One entry differing only in the broadcast flag is a difference too.
  ForwardingTable c = a;
  c.Set(0, ShortAddress(0x120), ForwardingTable::Entry::Broadcast(
                                    PortVector::Single(3)));
  EXPECT_FALSE(a == c);
}

TEST(ForwardingTable, ClearEqualsDefault) {
  ForwardingTable t = ForwardingTable::OneHopOnly();
  t.Set(5, ShortAddress(0x200),
        ForwardingTable::Entry::Alternatives(PortVector::Single(6)));
  EXPECT_FALSE(t == ForwardingTable());
  t.Clear();
  EXPECT_TRUE(t == ForwardingTable());
  EXPECT_TRUE(t.Lookup(kCpPort, OneHopAddress(5)).IsDiscard());
}

TEST(ForwardingTable, OneHopOnlyEqualsDefaultPlusOneHopEntries) {
  ForwardingTable built;
  built.AddOneHopEntries();
  EXPECT_TRUE(ForwardingTable::OneHopOnly() == built);
  EXPECT_TRUE(built == ForwardingTable::OneHopOnly());
  EXPECT_FALSE(built == ForwardingTable());
}

TEST(ForwardingTable, DefaultIsDiscardEverywhere) {
  ForwardingTable t;
  EXPECT_TRUE(t.Lookup(0, ShortAddress(0x010)).IsDiscard());
  EXPECT_TRUE(t.Lookup(12, kAddrBroadcastAll).IsDiscard());
}

TEST(UpDown, AllLinksDirectedAcyclically) {
  // Property: the up-direction assignment contains no directed cycles
  // (the basis of the deadlock-freedom argument).
  for (int seed = 0; seed < 8; ++seed) {
    NetTopology topo = RandomTopology(10, 8, 7000 + seed);
    SpanningTree tree = ComputeSpanningTree(topo);
    // Kahn's algorithm over up-edges.
    std::vector<int> indegree(topo.size(), 0);
    for (int s = 0; s < topo.size(); ++s) {
      for (const TopoLink& l : topo.switches[s].links) {
        if (TraversesUp(topo, tree, s, l.remote_switch)) {
          ++indegree[l.remote_switch];
        }
      }
    }
    std::vector<int> ready;
    for (int s = 0; s < topo.size(); ++s) {
      if (indegree[s] == 0) {
        ready.push_back(s);
      }
    }
    int removed = 0;
    while (!ready.empty()) {
      int s = ready.back();
      ready.pop_back();
      ++removed;
      for (const TopoLink& l : topo.switches[s].links) {
        if (TraversesUp(topo, tree, s, l.remote_switch)) {
          if (--indegree[l.remote_switch] == 0) {
            ready.push_back(l.remote_switch);
          }
        }
      }
    }
    EXPECT_EQ(removed, topo.size()) << "directed cycle with seed " << seed;
  }
}

}  // namespace
}  // namespace autonet
