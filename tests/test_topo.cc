#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/routing/spanning_tree.h"
#include "src/topo/spec.h"

namespace autonet {
namespace {

TEST(TopoSpec, CableAutoAssignsLowestPorts) {
  TopoSpec spec;
  spec.AddSwitch();
  spec.AddSwitch();
  spec.Cable(0, 1);
  spec.Cable(0, 1);
  EXPECT_EQ(spec.cables[0].port_a, 1);
  EXPECT_EQ(spec.cables[1].port_a, 2);
  EXPECT_EQ(spec.Validate(), "");
}

TEST(TopoSpec, HostsTakeHighPorts) {
  TopoSpec spec;
  spec.AddSwitch();
  spec.AddHost(0);
  spec.AddHost(0);
  EXPECT_EQ(spec.hosts[0].primary_port, 12);
  EXPECT_EQ(spec.hosts[1].primary_port, 11);
}

TEST(TopoSpec, DualHomedHostUsesTwoSwitches) {
  TopoSpec spec;
  spec.AddSwitch();
  spec.AddSwitch();
  spec.Cable(0, 1);
  int h = spec.AddHost(0, 1);
  EXPECT_EQ(spec.hosts[h].primary_switch, 0);
  EXPECT_EQ(spec.hosts[h].alt_switch, 1);
  EXPECT_GE(spec.hosts[h].alt_port, kFirstExternalPort);
  EXPECT_EQ(spec.Validate(), "");
}

TEST(TopoSpec, ValidateCatchesDoubleCabling) {
  TopoSpec spec;
  spec.AddSwitch();
  spec.AddSwitch();
  spec.cables.push_back({0, 1, 1, 1, 0.01});
  spec.cables.push_back({0, 1, 1, 2, 0.01});  // port (0,1) cabled twice
  EXPECT_NE(spec.Validate(), "");
}

TEST(TopoSpec, ExpectedTopologyMatchesCables) {
  TopoSpec spec = MakeRing(5, 1);
  NetTopology topo = spec.ExpectedTopology();
  EXPECT_EQ(topo.Validate(), "");
  EXPECT_EQ(topo.size(), 5);
  for (const SwitchDescriptor& sw : topo.switches) {
    EXPECT_EQ(sw.links.size(), 2u);
    EXPECT_EQ(sw.host_ports.Count(), 1);
  }
}

// Switch indices must name a declared switch; alt switch -1 means none.
TEST(TopoSpec, ValidateRejectsOutOfRangeSwitchIndices) {
  auto two_switches = [] {
    TopoSpec spec;
    spec.AddSwitch();
    spec.AddSwitch();
    return spec;
  };
  auto cable = [](int sw_a, int sw_b) {
    TopoSpec::CableSpec c;
    c.sw_a = sw_a;
    c.port_a = 1;
    c.sw_b = sw_b;
    c.port_b = 1;
    return c;
  };
  auto host = [](int primary, int alt) {
    TopoSpec::HostSpec h;
    h.primary_switch = primary;
    h.primary_port = 11;
    h.alt_switch = alt;
    h.alt_port = 11;
    return h;
  };
  std::vector<TopoSpec> bad(6, two_switches());
  bad[0].cables.push_back(cable(0, 5));
  bad[1].cables.push_back(cable(-1, 0));
  bad[2].hosts.push_back(host(7, -1));
  bad[3].hosts.push_back(host(0, 2));
  bad[4].hosts.push_back(host(0, -2));
  bad[5].cables.push_back(cable(0, 5));
  bad[5].hosts.push_back(host(7, -1));
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_NE(bad[i].Validate().find("switch index out of range"),
              std::string::npos)
        << "case " << i;
  }
  TopoSpec good = two_switches();
  good.cables.push_back(cable(0, 1));
  good.hosts.push_back(host(1, -1));
  EXPECT_EQ(good.Validate(), "");
}

TEST(Generators, LineHasNMinusOneCables) {
  TopoSpec spec = MakeLine(7, 0);
  EXPECT_EQ(spec.cables.size(), 6u);
  EXPECT_EQ(spec.Validate(), "");
}

TEST(Generators, RingOfTwoHasOneCable) {
  TopoSpec spec = MakeRing(2, 0);
  EXPECT_EQ(spec.cables.size(), 1u);
  EXPECT_EQ(spec.Validate(), "");
}

TEST(Generators, TreeSwitchCount) {
  // Complete binary tree of depth 3: 1 + 2 + 4 + 8 = 15.
  TopoSpec spec = MakeTree(2, 3, 0);
  EXPECT_EQ(spec.switches.size(), 15u);
  EXPECT_EQ(spec.cables.size(), 14u);
}

TEST(Generators, TorusDegreeFour) {
  TopoSpec spec = MakeTorus(3, 4, 0);
  NetTopology topo = spec.ExpectedTopology();
  for (const SwitchDescriptor& sw : topo.switches) {
    EXPECT_EQ(sw.links.size(), 4u);
  }
}

TEST(Generators, TwoColumnTorusAvoidsDoubleCables) {
  TopoSpec spec = MakeTorus(2, 2, 0);
  EXPECT_EQ(spec.Validate(), "");
  NetTopology topo = spec.ExpectedTopology();
  // Each switch connects to its row and column neighbor exactly once.
  for (const SwitchDescriptor& sw : topo.switches) {
    std::set<int> neighbors;
    for (const TopoLink& l : sw.links) {
      EXPECT_TRUE(neighbors.insert(l.remote_switch).second);
    }
  }
}

TEST(Generators, RandomTopologiesAreConnectedAndValid) {
  for (int seed = 0; seed < 10; ++seed) {
    TopoSpec spec = MakeRandom(14, 10, 500 + seed, 1);
    ASSERT_EQ(spec.Validate(), "") << seed;
    NetTopology topo = spec.ExpectedTopology();
    ASSERT_EQ(topo.Validate(), "") << seed;
    // Connectivity: BFS reaches everyone.
    std::vector<bool> seen(topo.size(), false);
    std::vector<int> queue{0};
    seen[0] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const TopoLink& l : topo.switches[queue[head]].links) {
        if (!seen[l.remote_switch]) {
          seen[l.remote_switch] = true;
          queue.push_back(l.remote_switch);
        }
      }
    }
    EXPECT_EQ(static_cast<int>(queue.size()), topo.size()) << seed;
  }
}

TEST(Generators, SrcLanMatchesPaperShape) {
  TopoSpec spec = MakeSrcLan(60);
  EXPECT_EQ(spec.switches.size(), 30u);  // "30 switches"
  EXPECT_EQ(spec.hosts.size(), 60u);
  EXPECT_EQ(spec.Validate(), "");
  NetTopology topo = spec.ExpectedTopology();
  EXPECT_EQ(topo.Validate(), "");

  // "four of the twelve ports on each switch for links to other switches"
  for (const SwitchDescriptor& sw : topo.switches) {
    EXPECT_EQ(sw.links.size(), 4u);
  }

  // "maximum switch-to-switch distance of 6"
  int diameter = 0;
  for (int s = 0; s < topo.size(); ++s) {
    std::vector<int> dist(topo.size(), -1);
    std::vector<int> queue{s};
    dist[s] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const TopoLink& l : topo.switches[queue[head]].links) {
        if (dist[l.remote_switch] < 0) {
          dist[l.remote_switch] = dist[queue[head]] + 1;
          queue.push_back(l.remote_switch);
        }
      }
    }
    for (int d : dist) {
      diameter = std::max(diameter, d);
    }
  }
  EXPECT_EQ(diameter, 6);

  // Every host dual-connected to two different switches.
  for (const TopoSpec::HostSpec& h : spec.hosts) {
    EXPECT_GE(h.alt_switch, 0);
    EXPECT_NE(h.alt_switch, h.primary_switch);
  }
}

TEST(Generators, UidsAreUniqueAcrossSwitchesAndHosts) {
  TopoSpec spec = MakeSrcLan(60);
  std::set<std::uint64_t> uids;
  for (const auto& sw : spec.switches) {
    EXPECT_TRUE(uids.insert(sw.uid.value()).second);
  }
  for (const auto& h : spec.hosts) {
    EXPECT_TRUE(uids.insert(h.uid.value()).second);
  }
}

}  // namespace
}  // namespace autonet
