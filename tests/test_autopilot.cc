#include <gtest/gtest.h>

#include "src/autopilot/messages.h"
#include "src/common/serialize.h"
#include "src/core/network.h"
#include "src/routing/spanning_tree.h"
#include "src/topo/spec.h"

namespace autonet {
namespace {

constexpr Tick kDeadline = 60 * kSecond;

// Messages round-trip through their wire format.
TEST(Messages, ConnectivityRoundTrip) {
  ConnectivityMsg m;
  m.kind = ConnectivityMsg::Kind::kReply;
  m.seq = 77;
  m.sender_uid = Uid(0x123);
  m.sender_port = 5;
  m.echo_uid = Uid(0x456);
  m.echo_port = 9;
  m.echo_seq = 76;
  auto parsed = ConnectivityMsg::Parse(m.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seq, 77u);
  EXPECT_EQ(parsed->sender_uid, Uid(0x123));
  EXPECT_EQ(parsed->echo_port, 9);
}

TEST(Messages, ReconfigRoundTrip) {
  ReconfigMsg m;
  m.kind = ReconfigMsg::Kind::kReport;
  m.epoch = 42;
  m.sender_uid = Uid(7);
  m.payload_seq = 3;
  SwitchRecord rec;
  rec.uid = Uid(9);
  rec.proposed_num = 4;
  rec.host_ports = 0x1800;
  rec.links.push_back({2, Uid(7), 3});
  m.records.push_back(rec);
  auto parsed = ReconfigMsg::Parse(m.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->epoch, 42u);
  ASSERT_EQ(parsed->records.size(), 1u);
  EXPECT_EQ(parsed->records[0].uid, Uid(9));
  ASSERT_EQ(parsed->records[0].links.size(), 1u);
  EXPECT_EQ(parsed->records[0].links[0].remote_uid, Uid(7));
}

TEST(Messages, ParseRejectsTruncated) {
  ReconfigMsg m;
  m.kind = ReconfigMsg::Kind::kConfig;
  m.epoch = 1;
  auto bytes = m.Serialize();
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(ReconfigMsg::Parse(bytes).has_value());
}

TEST(Messages, ParseRejectsTrailingBytes) {
  // A parser that ignores trailing bytes accepts a message that
  // re-serializes differently from what was received — corruption (or a
  // smuggled payload) surviving the parse undetected.
  ConnectivityMsg c;
  c.kind = ConnectivityMsg::Kind::kProbe;
  auto cb = c.Serialize();
  EXPECT_TRUE(ConnectivityMsg::Parse(cb).has_value());
  cb.push_back(0);
  EXPECT_FALSE(ConnectivityMsg::Parse(cb).has_value());

  ReconfigMsg r;
  r.kind = ReconfigMsg::Kind::kPosition;
  auto rb = r.Serialize();
  EXPECT_TRUE(ReconfigMsg::Parse(rb).has_value());
  rb.push_back(0);
  EXPECT_FALSE(ReconfigMsg::Parse(rb).has_value());

  HostAddressMsg h;
  auto hb = h.Serialize();
  EXPECT_TRUE(HostAddressMsg::Parse(hb).has_value());
  hb.push_back(0);
  EXPECT_FALSE(HostAddressMsg::Parse(hb).has_value());

  SrpMsg s;
  auto sb = s.Serialize();
  EXPECT_TRUE(SrpMsg::Parse(sb).has_value());
  sb.push_back(0);
  EXPECT_FALSE(SrpMsg::Parse(sb).has_value());
}

TEST(Messages, ParseRejectsNonCanonicalBools) {
  // A wire bool of 2 would parse as true but re-serialize as 1.
  ReconfigMsg m;
  m.kind = ReconfigMsg::Kind::kPosAck;
  m.is_parent = true;
  auto bytes = m.Serialize();
  EXPECT_TRUE(ReconfigMsg::Parse(bytes).has_value());
  bytes.back() = 2;
  EXPECT_FALSE(ReconfigMsg::Parse(bytes).has_value());

  ReconfigMsg d;
  d.kind = ReconfigMsg::Kind::kDelta;
  d.delta_add = false;
  auto db = d.Serialize();
  // delta_add sits right after kind(1)+epoch(8)+sender(8)+payload_seq(4).
  db[21] = 0xCC;
  EXPECT_FALSE(ReconfigMsg::Parse(db).has_value());
}

TEST(Messages, ParseRejectsUidHighBits) {
  // Wire UIDs are 48-bit; set bits above the mask would be silently
  // dropped by the Uid constructor and vanish on re-serialization.
  ConnectivityMsg c;
  c.sender_uid = Uid(42);
  auto bytes = c.Serialize();
  EXPECT_TRUE(ConnectivityMsg::Parse(bytes).has_value());
  bytes[16] = 0xFF;  // top byte of the little-endian sender_uid field
  EXPECT_FALSE(ConnectivityMsg::Parse(bytes).has_value());
}

TEST(Messages, SrpParseRejectsUnknownOp) {
  SrpMsg m;
  auto bytes = m.Serialize();
  bytes[0] = 5;  // between kGetStats (4) and kReply (100)
  EXPECT_FALSE(SrpMsg::Parse(bytes).has_value());
}

TEST(Messages, RecordsTopologyRoundTrip) {
  NetTopology topo;
  topo.switches.resize(2);
  topo.switches[0].uid = Uid(10);
  topo.switches[1].uid = Uid(20);
  topo.switches[0].links.push_back({1, 1, 2});
  topo.switches[1].links.push_back({2, 0, 1});
  topo.switches[0].host_ports.Set(5);
  auto records = TopologyToRecords(topo);
  NetTopology back = RecordsToTopology(records);
  EXPECT_EQ(back.size(), 2);
  EXPECT_EQ(back.Validate(), "");
  EXPECT_TRUE(back.switches[back.IndexOf(Uid(10))].host_ports.Test(5));
}

// --- full-network convergence ---

class ConvergenceTest : public ::testing::TestWithParam<int> {};

TEST(Reconfig, SingleSwitchConfiguresItself) {
  TopoSpec spec;
  spec.AddSwitch();
  spec.AddHost(0);
  Network net(std::move(spec));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline))
      << net.CheckConsistency();
  EXPECT_EQ(net.autopilot_at(0).port_state(
                net.spec().hosts[0].primary_port),
            PortState::kHost);
  // The lone switch terminated as its own root.
  EXPECT_GE(net.autopilot_at(0).engine().stats().roots_terminated, 1u);
}

TEST(Reconfig, TwoSwitchesConvergeAndServeHosts) {
  Network net(MakeLine(2, 1));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline)) << net.CheckConsistency();

  // Hosts learned their short addresses from their switches.
  ASSERT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond));
  ASSERT_TRUE(net.driver_at(0).HasAddress());
  ASSERT_TRUE(net.driver_at(1).HasAddress());
  EXPECT_NE(net.driver_at(0).short_address(), net.driver_at(1).short_address());

  // Client traffic flows.
  ASSERT_TRUE(net.SendData(0, 1, 256));
  net.Run(5 * kMillisecond);
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_TRUE(net.inbox(1)[0].intact());
}

TEST_P(ConvergenceTest, RandomTopologiesConverge) {
  Network net(MakeRandom(8, 5, 1234 + GetParam()));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline))
      << net.CheckConsistency() << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceTest, ::testing::Range(0, 6));

TEST(Reconfig, LineRingTreeTorusConverge) {
  for (auto make : {+[] { return MakeLine(5, 1); }, +[] { return MakeRing(6, 1); },
                    +[] { return MakeTree(2, 2, 1); },
                    +[] { return MakeTorus(3, 4, 1); }}) {
    Network net(make());
    net.Boot();
    ASSERT_TRUE(net.WaitForConsistency(kDeadline)) << net.CheckConsistency();
  }
}

TEST(Reconfig, DistributedTreeMatchesCentralized) {
  Network net(MakeTorus(3, 3, 0));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline)) << net.CheckConsistency();

  // Recompute the reference spanning tree from the converged topology and
  // compare every switch's distributed position against it.
  const NetTopology& topo = *net.autopilot_at(0).topology();
  SpanningTree tree = ComputeSpanningTree(topo);
  for (int i = 0; i < net.num_switches(); ++i) {
    Autopilot& ap = net.autopilot_at(i);
    int index = topo.IndexOf(ap.uid());
    ASSERT_GE(index, 0);
    EXPECT_EQ(ap.engine().position_root(), topo.switches[tree.root].uid);
    EXPECT_EQ(ap.engine().position_level(), tree.level[index]);
    if (index != tree.root) {
      EXPECT_EQ(ap.engine().parent_port(), tree.parent_port[index]);
    } else {
      EXPECT_EQ(ap.engine().parent_port(), -1);
    }
  }
}

TEST(Reconfig, CutAndRestoreCable) {
  Network net(MakeTorus(2, 3, 1));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline)) << net.CheckConsistency();
  std::uint64_t epoch_before = net.autopilot_at(0).epoch();

  net.CutCable(0);
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + kDeadline))
      << net.CheckConsistency();
  EXPECT_GT(net.autopilot_at(0).epoch(), epoch_before);

  net.RestoreCable(0);
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + kDeadline))
      << net.CheckConsistency();
}

TEST(Reconfig, SwitchNumbersSurviveReconfiguration) {
  Network net(MakeRing(4, 1));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline)) << net.CheckConsistency();
  std::vector<SwitchNum> before;
  for (int i = 0; i < 4; ++i) {
    before.push_back(net.autopilot_at(i).switch_num());
  }
  net.CutCable(0);
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + kDeadline)) << net.CheckConsistency();
  ASSERT_EQ(net.CheckConsistency(), "");
  // Short addresses tend to remain the same from epoch to epoch
  // (section 6.6.3): proposals are honored.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(net.autopilot_at(i).switch_num(), before[i]) << i;
  }
}

TEST(Reconfig, CrashAndRestartSwitch) {
  Network net(MakeTorus(2, 3, 1));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline)) << net.CheckConsistency();

  net.CrashSwitch(3);
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + kDeadline))
      << net.CheckConsistency();
  for (int i = 0; i < net.num_switches(); ++i) {
    if (i == 3) {
      continue;
    }
    EXPECT_EQ(net.autopilot_at(i).topology()->size(), 5) << i;
  }

  net.RestartSwitch(3);
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + kDeadline))
      << net.CheckConsistency();
  EXPECT_EQ(net.autopilot_at(0).topology()->size(), 6);
}

TEST(Reconfig, PartitionFormsTwoNetworks) {
  // A 6-ring cut in two places partitions into two 3-lines.
  Network net(MakeRing(6, 1));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline)) << net.CheckConsistency();

  net.CutCable(0);  // between 0 and 1
  net.CutCable(3);  // between 3 and 4
  // A partition settles into two independently consistent halves, and
  // CheckConsistency judges each half on its own.
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + kDeadline))
      << net.CheckConsistency();

  // Sides {1,2,3} and {4,5,0} each agree internally.
  EXPECT_EQ(net.autopilot_at(1).topology()->size(), 3);
  EXPECT_EQ(net.autopilot_at(4).topology()->size(), 3);
  EXPECT_EQ(net.autopilot_at(1).epoch(), net.autopilot_at(2).epoch());
  EXPECT_EQ(net.autopilot_at(4).epoch(), net.autopilot_at(5).epoch());

  // Healing merges them again.
  net.RestoreCable(0);
  net.RestoreCable(3);
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + kDeadline))
      << net.CheckConsistency();
  EXPECT_EQ(net.autopilot_at(0).topology()->size(), 6);
}

TEST(PortStates, LoopedCableClassifiedLoop) {
  // Cable a switch's port to another port on the same switch.
  TopoSpec spec;
  spec.AddSwitch();
  spec.AddSwitch();
  spec.Cable(0, 1);
  spec.AddHost(0);
  // Hand-build a looped cable on switch 0: ports 2 and 3.
  spec.cables.push_back({0, 2, 0, 3, 0.01});
  Network net(std::move(spec));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline))
      << net.CheckConsistency();
  EXPECT_EQ(net.autopilot_at(0).port_state(2), PortState::kSwitchLoop);
  EXPECT_EQ(net.autopilot_at(0).port_state(3), PortState::kSwitchLoop);
}

TEST(PortStates, ReflectingLinkClassifiedLoop) {
  Network net(MakeLine(2, 1));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline)) << net.CheckConsistency();
  PortNum port_a = net.spec().cables[0].port_a;

  net.SetCableReflecting(0, Link::Side::kA);
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + kDeadline)) << net.CheckConsistency();
  EXPECT_EQ(net.autopilot_at(0).port_state(port_a), PortState::kSwitchLoop);
  // The other side hears silence and declares the port dead.
  EXPECT_EQ(net.autopilot_at(1).port_state(net.spec().cables[0].port_b),
            PortState::kDead);
}

TEST(PortStates, AlternateHostPortClassifiedHost) {
  TopoSpec spec;
  spec.AddSwitch();
  spec.AddSwitch();
  spec.Cable(0, 1);
  spec.AddHost(0, 1);  // dual-homed
  Network net(std::move(spec));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline)) << net.CheckConsistency();
  const TopoSpec::HostSpec& h = net.spec().hosts[0];
  EXPECT_EQ(net.autopilot_at(h.primary_switch).port_state(h.primary_port),
            PortState::kHost);
  // The alternate port (sync-only) is classified s.host too.
  EXPECT_EQ(net.autopilot_at(h.alt_switch).port_state(h.alt_port),
            PortState::kHost);
}

TEST(Failover, HostSurvivesSwitchCrash) {
  TopoSpec spec;
  spec.AddSwitch();
  spec.AddSwitch();
  spec.AddSwitch();
  spec.Cable(0, 1);
  spec.Cable(1, 2);
  spec.Cable(2, 0);
  spec.AddHost(0, 1);  // dual-homed host
  spec.AddHost(2);     // peer
  Network net(std::move(spec));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline)) << net.CheckConsistency();
  ASSERT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond));
  ASSERT_TRUE(net.SendData(0, 1, 64));
  net.Run(5 * kMillisecond);
  ASSERT_EQ(net.inbox(1).size(), 1u);
  ShortAddress old_addr = net.driver_at(0).short_address();

  net.CrashSwitch(0);  // the host's primary switch dies
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + kDeadline)) << net.CheckConsistency();
  // The driver failed over to its alternate port and re-registered with a
  // new short address.
  net.Run(15 * kSecond);
  ASSERT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 60 * kSecond));
  ASSERT_TRUE(net.driver_at(0).HasAddress());
  EXPECT_GE(net.driver_at(0).stats().failovers, 1u);
  EXPECT_NE(net.driver_at(0).short_address(), old_addr);

  net.ClearInboxes();
  ASSERT_TRUE(net.SendData(0, 1, 64));
  ASSERT_TRUE(net.SendData(1, 0, 64));
  net.Run(10 * kMillisecond);
  EXPECT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(0).size(), 1u);
}

TEST(Skeptic, FlappingLinkCausesBoundedReconfigs) {
  Network net(MakeTorus(2, 3, 0));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline)) << net.CheckConsistency();
  std::uint64_t triggers_before = 0;
  for (int i = 0; i < net.num_switches(); ++i) {
    triggers_before += net.autopilot_at(i).engine().stats().triggers;
  }

  // Flap cable 0 every 200 ms for 20 seconds of simulated time.
  for (int cycle = 0; cycle < 50; ++cycle) {
    net.CutCable(0);
    net.Run(200 * kMillisecond);
    net.RestoreCable(0);
    net.Run(200 * kMillisecond);
  }
  std::uint64_t triggers_after = 0;
  for (int i = 0; i < net.num_switches(); ++i) {
    triggers_after += net.autopilot_at(i).engine().stats().triggers;
  }
  std::uint64_t during = triggers_after - triggers_before;
  // The skeptics must keep the reconfiguration rate well below the flap
  // rate: 50 cycles would naively cause >= 100 triggers network-wide.
  EXPECT_LT(during, 60u);

  // After the flapping stops, the network still heals.
  net.RestoreCable(0);
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + 10 * 60 * kSecond,
                                     500 * kMillisecond));
}

TEST(Srp, StateQueryAcrossTwoHops) {
  Network net(MakeLine(3, 1));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(kDeadline)) << net.CheckConsistency();

  ASSERT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond));

  // Host 0 (on switch 0) asks switch 2 for its state: route = the two
  // trunk ports from switch 0 to switch 2.
  PortNum hop1 = net.spec().cables[0].port_a;  // 0 -> 1 (at switch 0)
  PortNum hop2 = net.spec().cables[1].port_a;  // 1 -> 2 (at switch 1)
  SrpMsg msg;
  msg.op = SrpMsg::Op::kGetState;
  msg.request_id = 99;
  msg.route = {static_cast<std::uint8_t>(hop1),
               static_cast<std::uint8_t>(hop2)};

  std::vector<Delivery> replies;
  net.driver_at(0).SetReceiveHandler([&](Delivery d) {
    if (d.packet->type == PacketType::kSrp) {
      replies.push_back(std::move(d));
    }
  });
  Packet p;
  p.dest = kAddrLocalCp;
  p.type = PacketType::kSrp;
  p.payload = msg.Serialize();
  ASSERT_TRUE(net.driver_at(0).Send(std::move(p)));
  net.Run(2 * kSecond);

  ASSERT_EQ(replies.size(), 1u);
  auto reply = SrpMsg::Parse(replies[0].packet->payload);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->op, SrpMsg::Op::kReply);
  EXPECT_EQ(reply->request_id, 99u);
  auto state = Decode<SrpState>(reply->body);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->epoch, net.autopilot_at(2).epoch());
  EXPECT_EQ(state->switch_num, net.autopilot_at(2).switch_num());
  EXPECT_EQ(state->uid, net.autopilot_at(2).uid());
}

}  // namespace
}  // namespace autonet
