#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "src/fabric/port_fifo.h"
#include "src/fabric/scheduler.h"
#include "src/fabric/switch.h"
#include "src/host/controller.h"
#include "src/link/slots.h"
#include "src/routing/spanning_tree.h"
#include "src/routing/updown.h"
#include "src/sim/simulator.h"
#include "tests/topo_helpers.h"

namespace autonet {
namespace {

PacketRef DataPacket(ShortAddress dest, ShortAddress src,
                     std::size_t data_bytes = 12) {
  Packet p;
  p.dest = dest;
  p.src = src;
  p.type = PacketType::kEthernetEncap;
  p.payload.assign(data_bytes, 0x5A);
  return MakePacket(std::move(p));
}

// --- PortFifo ---

TEST(PortFifo, CutThroughByteAccounting) {
  PortFifo fifo(64);
  PacketRef pkt = DataPacket(ShortAddress(0x20), ShortAddress(0x10));
  fifo.PushBegin(pkt);
  EXPECT_FALSE(fifo.HeadCaptureReady());
  fifo.PushByte();
  EXPECT_FALSE(fifo.HeadCaptureReady());
  fifo.PushByte();
  EXPECT_TRUE(fifo.HeadCaptureReady());  // two address bytes buffered
  EXPECT_EQ(fifo.occupancy(), 2u);

  // Pop while still receiving (cut-through).
  EXPECT_EQ(fifo.PopByte(), std::optional<std::uint32_t>(0));
  EXPECT_EQ(fifo.occupancy(), 1u);
  fifo.PushByte();
  EXPECT_EQ(fifo.PopByte(), std::optional<std::uint32_t>(1));
  EXPECT_EQ(fifo.PopByte(), std::optional<std::uint32_t>(2));
  EXPECT_EQ(fifo.PopByte(), std::nullopt);  // drained ahead of arrival
  EXPECT_FALSE(fifo.HeadEndReady());

  fifo.PushEnd(EndFlags{});
  EXPECT_TRUE(fifo.HeadEndReady());
  auto end = fifo.TryPopEnd();
  ASSERT_TRUE(end.has_value());
  EXPECT_FALSE(end->corrupted);
  EXPECT_TRUE(fifo.empty());
}

TEST(PortFifo, EndMarkOccupiesASlot) {
  PortFifo fifo(64);
  fifo.PushBegin(DataPacket(ShortAddress(1), ShortAddress(2)));
  fifo.PushByte();
  fifo.PushEnd(EndFlags{});
  EXPECT_EQ(fifo.occupancy(), 2u);  // 1 byte + end mark
}

TEST(PortFifo, OverflowDropsByteAndCorruptsPacket) {
  PortFifo fifo(4);
  fifo.PushBegin(DataPacket(ShortAddress(1), ShortAddress(2)));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(fifo.PushByte());
  }
  EXPECT_FALSE(fifo.PushByte());  // full
  EXPECT_EQ(fifo.overflow_count(), 1u);
  fifo.PushEnd(EndFlags{});
  for (int i = 0; i < 4; ++i) {
    fifo.PopByte();
  }
  auto end = fifo.TryPopEnd();
  ASSERT_TRUE(end.has_value());
  EXPECT_TRUE(end->corrupted);
}

TEST(PortFifo, HalfFullThreshold) {
  PortFifo fifo(8);
  fifo.PushBegin(DataPacket(ShortAddress(1), ShortAddress(2)));
  for (int i = 0; i < 4; ++i) {
    fifo.PushByte();
  }
  EXPECT_FALSE(fifo.MoreThanHalfFull());
  fifo.PushByte();
  EXPECT_TRUE(fifo.MoreThanHalfFull());
}

TEST(PortFifo, MultiplePacketsQueueInOrder) {
  PortFifo fifo(64);
  PacketRef first = DataPacket(ShortAddress(1), ShortAddress(2));
  PacketRef second = DataPacket(ShortAddress(3), ShortAddress(4));
  fifo.PushBegin(first);
  fifo.PushByte();
  fifo.PushByte();
  fifo.PushEnd(EndFlags{});
  fifo.PushBegin(second);
  fifo.PushByte();
  fifo.PushEnd(EndFlags{});

  EXPECT_EQ(fifo.head().packet->id, first->id);
  fifo.PopByte();
  fifo.PopByte();
  fifo.TryPopEnd();
  EXPECT_EQ(fifo.head().packet->id, second->id);
}

TEST(PortFifo, AbortIncomingTruncates) {
  PortFifo fifo(64);
  fifo.PushBegin(DataPacket(ShortAddress(1), ShortAddress(2)));
  fifo.PushByte();
  fifo.AbortIncoming();
  fifo.PopByte();
  auto end = fifo.TryPopEnd();
  ASSERT_TRUE(end.has_value());
  EXPECT_TRUE(end->truncated);
}

TEST(PortFifo, MaxOccupancyHighWaterMark) {
  PortFifo fifo(32);
  fifo.PushBegin(DataPacket(ShortAddress(1), ShortAddress(2)));
  for (int i = 0; i < 10; ++i) {
    fifo.PushByte();
  }
  for (int i = 0; i < 10; ++i) {
    fifo.PopByte();
  }
  EXPECT_EQ(fifo.occupancy(), 0u);
  EXPECT_EQ(fifo.max_occupancy(), 10u);
}

// --- SchedulerEngine ---

class SchedulerTest : public ::testing::Test {
 protected:
  void Init(bool fcfs = false) {
    engine_.emplace(&sim_, fcfs);
    engine_->SetHooks([this] { return free_; },
                      [this](const SchedulerEngine::Request& r, PortVector v) {
                        grants_.push_back({r.inport, v});
                      });
  }

  Simulator sim_;
  std::optional<SchedulerEngine> engine_;
  PortVector free_ = PortVector::All();
  std::vector<std::pair<PortNum, PortVector>> grants_;
};

TEST_F(SchedulerTest, GrantsLowestNumberedAlternative) {
  Init();
  PortVector want;
  want.Set(7);
  want.Set(3);
  engine_->Enqueue(1, want, false);
  sim_.Run();
  ASSERT_EQ(grants_.size(), 1u);
  EXPECT_EQ(grants_[0].second, PortVector::Single(3));
}

TEST_F(SchedulerTest, OneGrantPerCycle) {
  Init();
  engine_->Enqueue(1, PortVector::Single(5), false);
  engine_->Enqueue(2, PortVector::Single(6), false);
  sim_.RunUntil(kRouterCycleNs);
  EXPECT_EQ(grants_.size(), 1u);  // 2 M requests/second ceiling
  sim_.RunUntil(2 * kRouterCycleNs);
  EXPECT_EQ(grants_.size(), 2u);
}

TEST_F(SchedulerTest, QueueJumpingServesYoungerRequest) {
  Init();
  free_ = PortVector::Single(6);
  engine_->Enqueue(1, PortVector::Single(5), false);  // blocked: 5 busy
  engine_->Enqueue(2, PortVector::Single(6), false);  // can go now
  sim_.Run();
  ASSERT_EQ(grants_.size(), 1u);
  EXPECT_EQ(grants_[0].first, 2);

  // When port 5 frees, the older request is served.
  free_ = PortVector::Single(5) | PortVector::Single(6);
  engine_->Kick();
  sim_.Run();
  ASSERT_EQ(grants_.size(), 2u);
  EXPECT_EQ(grants_[1].first, 1);
}

TEST_F(SchedulerTest, FcfsBaselineHeadOfLineBlocks) {
  Init(/*fcfs=*/true);
  free_ = PortVector::Single(6);
  engine_->Enqueue(1, PortVector::Single(5), false);
  engine_->Enqueue(2, PortVector::Single(6), false);
  sim_.Run();
  EXPECT_TRUE(grants_.empty());  // younger request starves behind the head
}

TEST_F(SchedulerTest, BroadcastAccumulatesReservations) {
  Init();
  free_ = PortVector::Single(2);
  PortVector want = PortVector::Single(2) | PortVector::Single(3);
  engine_->Enqueue(1, want, true);
  sim_.Run();
  EXPECT_TRUE(grants_.empty());  // port 3 still busy; port 2 reserved

  // A younger request for the reserved port 2 cannot steal it.
  engine_->Enqueue(4, PortVector::Single(2), false);
  sim_.Run();
  EXPECT_TRUE(grants_.empty());

  // When port 3 frees, the broadcast completes with its full set.
  free_ = PortVector::Single(2) | PortVector::Single(3);
  engine_->Kick();
  sim_.Run();
  ASSERT_GE(grants_.size(), 1u);
  EXPECT_EQ(grants_[0].first, 1);
  EXPECT_EQ(grants_[0].second, want);
}

TEST_F(SchedulerTest, RemoveReleasesReservations) {
  Init();
  free_ = PortVector::Single(2);
  engine_->Enqueue(1, PortVector::Single(2) | PortVector::Single(3), true);
  sim_.Run();
  engine_->Enqueue(4, PortVector::Single(2), false);
  engine_->Remove(1);  // broadcast gives up its reservation
  sim_.Run();
  ASSERT_EQ(grants_.size(), 1u);
  EXPECT_EQ(grants_[0].first, 4);
}

// --- End-to-end forwarding through real switches ---

// Two switches, one inter-switch link, one host on each switch.
class MiniNetTest : public ::testing::Test {
 protected:
  static constexpr PortNum kTrunkPort = 1;
  static constexpr PortNum kHostPort = 3;

  void SetUp() override {
    sw_a_ = std::make_unique<Switch>(&sim_, Uid(0x100), "swA");
    sw_b_ = std::make_unique<Switch>(&sim_, Uid(0x101), "swB");
    h1_ = std::make_unique<HostController>(&sim_, Uid(0xAAA), "h1");
    h2_ = std::make_unique<HostController>(&sim_, Uid(0xBBB), "h2");

    trunk_ = std::make_unique<Link>(&sim_, trunk_km_);
    sw_a_->AttachLink(kTrunkPort, trunk_.get(), Link::Side::kA);
    sw_b_->AttachLink(kTrunkPort, trunk_.get(), Link::Side::kB);

    link1_ = std::make_unique<Link>(&sim_, 0.01);
    h1_->AttachPort(0, link1_.get(), Link::Side::kA);
    sw_a_->AttachLink(kHostPort, link1_.get(), Link::Side::kB);

    link2_ = std::make_unique<Link>(&sim_, 0.01);
    h2_->AttachPort(0, link2_.get(), Link::Side::kA);
    sw_b_->AttachLink(kHostPort, link2_.get(), Link::Side::kB);

    // Build and load up*/down* tables for this 2-switch topology.
    topo_ = EmptyTopology(2);
    topo_.switches[0].links.push_back({kTrunkPort, 1, kTrunkPort});
    topo_.switches[1].links.push_back({kTrunkPort, 0, kTrunkPort});
    topo_.switches[0].host_ports.Set(kHostPort);
    topo_.switches[1].host_ports.Set(kHostPort);
    AssignSwitchNumbers(&topo_);
    SpanningTree tree = ComputeSpanningTree(topo_);
    auto tables = BuildAllForwardingTables(topo_, tree);
    sw_a_->LoadForwardingTable(tables[0]);
    sw_b_->LoadForwardingTable(tables[1]);

    h1_->SetReceiveHandler([this](Delivery d) { h1_rx_.push_back(d); });
    h2_->SetReceiveHandler([this](Delivery d) { h2_rx_.push_back(d); });
  }

  ShortAddress AddrH1() const {
    return ShortAddress::FromSwitchPort(topo_.switches[0].assigned_num,
                                        kHostPort);
  }
  ShortAddress AddrH2() const {
    return ShortAddress::FromSwitchPort(topo_.switches[1].assigned_num,
                                        kHostPort);
  }

  Simulator sim_;
  double trunk_km_ = 0.01;  // set by derived fixtures before SetUp
  NetTopology topo_;
  // Links outlive the devices that detach from them on destruction.
  std::unique_ptr<Link> trunk_, link1_, link2_;
  std::unique_ptr<Switch> sw_a_;
  std::unique_ptr<Switch> sw_b_;
  std::unique_ptr<HostController> h1_;
  std::unique_ptr<HostController> h2_;
  std::vector<Delivery> h1_rx_, h2_rx_;
};

TEST_F(MiniNetTest, UnicastDeliveryAcrossTwoSwitches) {
  PacketRef pkt = DataPacket(AddrH2(), AddrH1(), 100);
  EXPECT_TRUE(h1_->Send(pkt));
  sim_.RunUntil(1 * kMillisecond);

  ASSERT_EQ(h2_rx_.size(), 1u);
  EXPECT_EQ(h2_rx_[0].packet->id, pkt->id);
  EXPECT_TRUE(h2_rx_[0].intact());
  EXPECT_EQ(sw_a_->stats().packets_forwarded, 1u);
  EXPECT_EQ(sw_b_->stats().packets_forwarded, 1u);
}

TEST_F(MiniNetTest, CutThroughLatencyIsNotStoreAndForward) {
  // A large packet's end-to-end latency must be near one serialization time
  // plus per-switch cut-through latency, not 3x serialization.
  const std::size_t data = 4000;
  PacketRef pkt = DataPacket(AddrH2(), AddrH1(), data);
  Tick start = sim_.now();
  h1_->Send(pkt);
  sim_.RunUntil(10 * kMillisecond);
  ASSERT_EQ(h2_rx_.size(), 1u);
  Tick latency = h2_rx_[0].delivered_at - start;

  // One serialization: wire bytes at ~80ns each (plus flow slots).
  Tick serialization = static_cast<Tick>(pkt->WireSize()) * kSlotNs;
  EXPECT_GT(latency, serialization);
  EXPECT_LT(latency, serialization + 40 * kMicrosecond)
      << "looks like store-and-forward";
}

TEST_F(MiniNetTest, LocalSwitchDeliveryStaysLocal) {
  // Host to a host on the same switch: only switch A forwards.
  // (Here: h1 -> its own address loops via switch A's host entry.)
  PacketRef pkt = DataPacket(AddrH1(), AddrH1(), 10);
  h1_->Send(pkt);
  sim_.RunUntil(1 * kMillisecond);
  ASSERT_EQ(h1_rx_.size(), 1u);
  EXPECT_EQ(sw_b_->stats().packets_forwarded, 0u);
}

TEST_F(MiniNetTest, LoopbackAddressReflects) {
  PacketRef pkt = DataPacket(kAddrLoopback, AddrH1(), 10);
  h1_->Send(pkt);
  sim_.RunUntil(1 * kMillisecond);
  ASSERT_EQ(h1_rx_.size(), 1u);
  EXPECT_EQ(h1_rx_[0].packet->id, pkt->id);
  EXPECT_TRUE(h2_rx_.empty());
}

TEST_F(MiniNetTest, UnknownAddressDiscarded) {
  // An assignable address no one owns.
  PacketRef pkt = DataPacket(ShortAddress(0x7E0), AddrH1(), 10);
  h1_->Send(pkt);
  sim_.RunUntil(1 * kMillisecond);
  EXPECT_TRUE(h1_rx_.empty());
  EXPECT_TRUE(h2_rx_.empty());
  EXPECT_GE(sw_a_->stats().packets_discarded, 1u);
}

TEST_F(MiniNetTest, BroadcastReachesAllHostsAndCps) {
  std::vector<Delivery> cp_a, cp_b;
  sw_a_->SetCpHandler([&](Delivery d) { cp_a.push_back(d); });
  sw_b_->SetCpHandler([&](Delivery d) { cp_b.push_back(d); });

  PacketRef pkt = DataPacket(kAddrBroadcastAll, AddrH1(), 64);
  h1_->Send(pkt);
  sim_.RunUntil(2 * kMillisecond);

  ASSERT_EQ(h2_rx_.size(), 1u);
  ASSERT_EQ(h1_rx_.size(), 1u);  // flood-down revisits the origin subtree
  EXPECT_EQ(cp_a.size(), 1u);
  EXPECT_EQ(cp_b.size(), 1u);
}

TEST_F(MiniNetTest, BroadcastToSwitchesSkipsHosts) {
  std::vector<Delivery> cp_b;
  sw_b_->SetCpHandler([&](Delivery d) { cp_b.push_back(d); });
  PacketRef pkt = DataPacket(kAddrBroadcastSwitches, AddrH1(), 16);
  h1_->Send(pkt);
  sim_.RunUntil(2 * kMillisecond);
  EXPECT_EQ(cp_b.size(), 1u);
  EXPECT_TRUE(h2_rx_.empty());
}

TEST_F(MiniNetTest, OneHopPacketsBetweenCps) {
  std::vector<Delivery> cp_b;
  sw_b_->SetCpHandler([&](Delivery d) { cp_b.push_back(d); });

  Packet p;
  p.dest = OneHopAddress(kTrunkPort);
  p.src = OneHopAddress(kTrunkPort);
  p.type = PacketType::kReconfig;
  p.payload.assign(20, 1);
  sw_a_->CpSend(MakePacket(std::move(p)));
  sim_.RunUntil(1 * kMillisecond);
  ASSERT_EQ(cp_b.size(), 1u);
  EXPECT_TRUE(cp_b[0].intact());
}

TEST_F(MiniNetTest, ContendingSendersBothDeliver) {
  // Both hosts send two packets to each other simultaneously; full-duplex
  // links let all four flow.
  h1_->Send(DataPacket(AddrH2(), AddrH1(), 500));
  h1_->Send(DataPacket(AddrH2(), AddrH1(), 500));
  h2_->Send(DataPacket(AddrH1(), AddrH2(), 500));
  h2_->Send(DataPacket(AddrH1(), AddrH2(), 500));
  sim_.RunUntil(5 * kMillisecond);
  EXPECT_EQ(h1_rx_.size(), 2u);
  EXPECT_EQ(h2_rx_.size(), 2u);
}

TEST_F(MiniNetTest, TableLoadResetDestroysInFlightPackets) {
  PacketRef pkt = DataPacket(AddrH2(), AddrH1(), 60000);
  h1_->Send(pkt);
  // Let the packet get going, then reset switch B by reloading its table.
  sim_.RunUntil(200 * kMicrosecond);
  sw_b_->LoadForwardingTable(sw_b_->forwarding_table());
  sim_.RunUntil(20 * kMillisecond);
  // The packet is lost or arrives damaged — never intact.
  for (const Delivery& d : h2_rx_) {
    EXPECT_FALSE(d.intact());
  }
  EXPECT_GE(sw_b_->stats().resets, 1u);
}

TEST_F(MiniNetTest, CorruptTrunkMarksCrcFailure) {
  trunk_->SetCorruptionRate(0.05);
  h1_->Send(DataPacket(AddrH2(), AddrH1(), 2000));
  sim_.RunUntil(10 * kMillisecond);
  ASSERT_EQ(h2_rx_.size(), 1u);
  EXPECT_TRUE(h2_rx_[0].corrupted);
  EXPECT_EQ(h2_->stats().rx_crc_errors, 1u);
}

// --- Pins: receiver reads and writes while bytes stream into it ---
//
// Each test below streams one large packet h1 -> swA -> swB -> h2 and
// touches a receiver mid-stream, on or around the tick a byte lands there.
// The expected values are the slot-exact model's; any change that delays,
// drops or reorders a byte delivery relative to such a touch moves them.

// Data slots are 80 ns apart; forwarders transmit at slot starts, so on the
// 0.01 km trunk (51 ns) a byte lands at swB at k * 80 + 51.
constexpr Tick kTrunkArrival = 51;
// Slot 2500 is a data slot in the middle of a 4000-byte packet's stream.
constexpr Tick kMidStream = 2500 * kSlotNs;

struct StatusPin {
  std::size_t fifo_occupancy;
  std::uint64_t bytes_forwarded;
  std::uint32_t bad_syntax;
};

StatusPin Pin(const PortStatus& s) {
  return {s.fifo_occupancy, s.bytes_forwarded, s.bad_syntax};
}

void ExpectPin(const StatusPin& got, const StatusPin& want,
               const char* what) {
  EXPECT_EQ(got.fifo_occupancy, want.fifo_occupancy) << what;
  EXPECT_EQ(got.bytes_forwarded, want.bytes_forwarded) << what;
  EXPECT_EQ(got.bad_syntax, want.bad_syntax) << what;
}

TEST_F(MiniNetTest, StatusReadOnTheTickAByteLands) {
  h1_->Send(DataPacket(AddrH2(), AddrH1(), 4000));
  const Tick t = kMidStream + kTrunkArrival;
  // Scheduled before the run, this read takes an earlier tie-break sequence
  // than the byte landing at t, so it sees the FIFO just before the byte.
  PortStatus before_trunk, before_host;
  sim_.ScheduleAt(t, [&] {
    before_trunk = sw_b_->ReadAndClearStatus(kTrunkPort);
    before_host = sw_a_->ReadAndClearStatus(kHostPort);
  });
  sim_.RunUntil(t);
  // After RunUntil(t) every delivery at t has happened.
  StatusPin after_trunk = Pin(sw_b_->ReadAndClearStatus(kTrunkPort));
  StatusPin after_host = Pin(sw_a_->ReadAndClearStatus(kHostPort));
  sim_.RunUntil(t + 10 * kSlotNs);
  StatusPin later_trunk = Pin(sw_b_->ReadAndClearStatus(kTrunkPort));
  std::size_t later_occupancy = sw_b_->link_unit(kTrunkPort).fifo().occupancy();

  ExpectPin(Pin(before_trunk), {25, 2438, 0}, "swB trunk, before the byte");
  ExpectPin(Pin(before_host), {25, 2464, 0}, "swA host port, same event");
  ExpectPin(after_trunk, {26, 0, 0}, "swB trunk, after the byte");
  ExpectPin(after_host, {26, 0, 0}, "swA host port, after RunUntil");
  ExpectPin(later_trunk, {26, 10, 0}, "swB trunk, ten slots later");
  EXPECT_EQ(later_occupancy, 26u);

  sim_.RunUntil(2 * kMillisecond);
  ASSERT_EQ(h2_rx_.size(), 1u);
  EXPECT_TRUE(h2_rx_[0].intact());
  EXPECT_EQ(h2_rx_[0].delivered_at, 329971);
}

TEST_F(MiniNetTest, TableLoadAtReceivingSwitchMidStream) {
  h1_->Send(DataPacket(AddrH2(), AddrH1(), 4000));
  const Tick t = kMidStream + kTrunkArrival;
  sim_.ScheduleAt(t, [&] {
    sw_b_->LoadForwardingTable(sw_b_->forwarding_table());
  });
  sim_.RunUntil(t);
  StatusPin at_load = Pin(sw_b_->ReadAndClearStatus(kTrunkPort));
  sim_.RunUntil(2 * kMillisecond);
  StatusPin after = Pin(sw_b_->ReadAndClearStatus(kTrunkPort));

  ExpectPin(at_load, {0, 2438, 1}, "swB trunk at the reset");
  ExpectPin(after, {0, 0, 1591}, "swB trunk after the stream");
  Switch::Stats b = sw_b_->stats();
  EXPECT_EQ(b.resets, 2u);
  EXPECT_EQ(b.packets_forwarded, 0u);
  EXPECT_EQ(b.bytes_forwarded, 0u);
  ASSERT_EQ(h2_rx_.size(), 1u);
  EXPECT_FALSE(h2_rx_[0].intact());
  EXPECT_TRUE(h2_rx_[0].truncated);
  EXPECT_EQ(h2_rx_[0].delivered_at, 200102);
}

TEST_F(MiniNetTest, AbortedPortForwardsTheNextPacketIntact) {
  // A table load aborts swB's trunk forwarder mid-packet; the same port
  // must then carry the next packet whole and count only it.
  h1_->Send(DataPacket(AddrH2(), AddrH1(), 4000));
  const Tick t = kMidStream + kTrunkArrival;
  sim_.ScheduleAt(t, [&] {
    sw_b_->LoadForwardingTable(sw_b_->forwarding_table());
  });
  sim_.RunUntil(2 * kMillisecond);
  ASSERT_EQ(h2_rx_.size(), 1u);
  ASSERT_TRUE(h2_rx_[0].truncated);

  PacketRef next = DataPacket(AddrH2(), AddrH1(), 1000);
  ASSERT_TRUE(h1_->Send(next));
  sim_.RunUntil(4 * kMillisecond);
  ASSERT_EQ(h2_rx_.size(), 2u);
  EXPECT_EQ(h2_rx_[1].packet->id, next->id);
  EXPECT_TRUE(h2_rx_[1].intact());
  Switch::Stats b = sw_b_->stats();
  EXPECT_EQ(b.packets_forwarded, 1u);
  EXPECT_EQ(b.bytes_forwarded, next->WireSize());
}

TEST_F(MiniNetTest, TieChooserInstalledMidStream) {
  h1_->Send(DataPacket(AddrH2(), AddrH1(), 4000));
  const Tick t = kMidStream + kTrunkArrival;
  std::uint64_t decisions = 0;
  std::uint64_t candidates = 0;
  sim_.ScheduleAt(t, [&] {
    sim_.SetTieChooser([&](Tick, std::uint32_t n) {
      ++decisions;
      candidates += n;
      return n - 1;  // the latest-sequenced of each tie goes first
    });
  });
  sim_.ScheduleAt(t + 50 * kMicrosecond, [&] { sim_.SetTieChooser(nullptr); });
  sim_.RunUntil(2 * kMillisecond);

  EXPECT_EQ(decisions, 2491u);
  EXPECT_EQ(candidates, 6229u);
  ASSERT_EQ(h2_rx_.size(), 1u);
  EXPECT_TRUE(h2_rx_[0].intact());
  EXPECT_EQ(h2_rx_[0].delivered_at, 329971);
}

TEST_F(MiniNetTest, FlowControlStallMidStream) {
  h1_->Send(DataPacket(AddrH2(), AddrH1(), 12000));
  // swB's trunk port tells swA idhy, which forbids transmission: swA's
  // forwarder stalls mid-packet, swB's drains dry and underflows, and swA's
  // host-port FIFO fills past half until it stops h1.
  const Tick t = kMidStream + kTrunkArrival;
  sim_.ScheduleAt(t, [&] { sw_b_->SetPortForceIdhy(kTrunkPort, true); });
  sim_.ScheduleAt(t + 250 * kMicrosecond,
                  [&] { sw_b_->SetPortForceIdhy(kTrunkPort, false); });
  sim_.RunUntil(t + 200 * kMicrosecond);
  PortStatus stalled_trunk = sw_b_->ReadAndClearStatus(kTrunkPort);
  PortStatus stalled_host = sw_a_->ReadAndClearStatus(kHostPort);
  EXPECT_FALSE(sw_a_->ReadAndClearStatus(kTrunkPort).xmit_ok);
  sim_.RunUntil(4 * kMillisecond);
  PortStatus after_host = sw_a_->ReadAndClearStatus(kHostPort);

  ExpectPin(Pin(stalled_trunk), {0, 2523, 0}, "swB trunk, stalled");
  EXPECT_EQ(stalled_trunk.underflow, 1u);
  ExpectPin(Pin(stalled_host), {2066, 2523, 0}, "swA host port, stalled");
  ExpectPin(Pin(after_host), {0, 9532, 0}, "swA host port, after the stream");
  EXPECT_EQ(sim_.metrics().GetCounter("switch.swA.link.flow_stops")->value(),
            1u);
  ASSERT_EQ(h2_rx_.size(), 1u);
  EXPECT_TRUE(h2_rx_[0].intact());
  EXPECT_EQ(h2_rx_[0].delivered_at, 1216211);
}

// --- The lazy settle: a streaming pump looks at its link only when it must
//
// Deferred bytes are applied in runs, when their receiver looks.  These
// tests compare a run with deferral against one in the per-byte reference
// mode (Simulator::SetPerByteReference), where every byte is an event of
// its own.

// One MiniNet outside the test framework, so a test can build two.
class MiniNet : public MiniNetTest {
 public:
  explicit MiniNet(bool per_byte_reference) {
    SetUp();
    sim_.SetPerByteReference(per_byte_reference);
  }
  void TestBody() override {}

  // Streams a 4000-byte packet over a marginal trunk and, every 530 ns
  // through it, reads the receiving ports: even samples through
  // LinkUnit::fifo(), odd ones through ReadAndClearStatus.
  std::vector<std::uint64_t> SampleStream() {
    trunk_->SetCorruptionRate(0.002);
    h1_->Send(DataPacket(AddrH2(), AddrH1(), 4000));
    std::vector<std::uint64_t> samples;
    std::uint64_t bad_code = 0;
    for (int k = 0; k < 640; ++k) {
      sim_.ScheduleAt(kMicrosecond + k * 530, [this, k, &samples, &bad_code] {
        for (auto [sw, port] : {std::pair{sw_b_.get(), kTrunkPort},
                                std::pair{sw_a_.get(), kHostPort}}) {
          if (k % 2 == 0) {
            samples.push_back(sw->link_unit(port).fifo().occupancy());
            continue;
          }
          PortStatus s = sw->ReadAndClearStatus(port);
          samples.push_back(s.fifo_occupancy);
          samples.push_back(s.bytes_forwarded);
          samples.push_back(s.bad_code);
          bad_code += s.bad_code;
        }
      });
    }
    sim_.RunUntil(2 * kMillisecond);
    EXPECT_EQ(h2_rx_.size(), 1u);
    samples.push_back(sim_.metrics().GetCounter("switch.swB.link.flow_stops")
                          ->value());
    samples.push_back(bad_code);  // last: the trunk's damage, all samples
    return samples;
  }
};

TEST(LazySettle, MidStreamReadsMatchThePerByteModel) {
  std::vector<std::uint64_t> deferred = MiniNet(false).SampleStream();
  std::vector<std::uint64_t> reference = MiniNet(true).SampleStream();
  EXPECT_EQ(deferred, reference);
  EXPECT_GT(reference.back(), 0u);  // the samples saw the trunk's damage
}

// Records the flow directives a switch port sends, with their arrival.
class DirectiveLog : public LinkEndpoint {
 public:
  explicit DirectiveLog(Simulator* sim) : sim_(sim) {}
  void OnPacketBegin(const PacketRef&) override {}
  void OnDataBytes(std::uint32_t, std::uint32_t, std::uint32_t) override {}
  void OnPacketEnd(EndFlags) override {}
  void OnFlowDirective(FlowDirective d) override {
    directives.emplace_back(d, sim_->now());
  }
  void OnCarrierChange(bool) override {}

  std::vector<std::pair<FlowDirective, Tick>> directives;

 private:
  Simulator* sim_;
};

// A lone switch port fed by hand, one OnDataBytes call per run or one per
// byte.  Its table discards everything, so each packet drains at link rate.
struct HandFedPort {
  static constexpr PortNum kPort = 1;
  Simulator sim;
  Link link{&sim, 0.01};
  DirectiveLog far{&sim};
  Switch sw{&sim, Uid(0x100), "sw"};

  HandFedPort() {
    link.Attach(Link::Side::kB, &far);
    sw.AttachLink(kPort, &link, Link::Side::kA);
  }
  ~HandFedPort() { sw.DetachLink(kPort); }

  // At `at`, lands a packet of `bytes` bytes, then its end.
  void Feed(Tick at, std::uint32_t bytes, bool as_one_run) {
    sim.ScheduleAt(at, [this, bytes, as_one_run] {
      LinkUnit& unit = sw.link_unit(kPort);
      unit.OnPacketBegin(DataPacket(ShortAddress(0x20), ShortAddress(0x10),
                                    bytes));
      if (as_one_run) {
        unit.OnDataBytes(0, bytes, 0);
      } else {
        for (std::uint32_t i = 0; i < bytes; ++i) {
          unit.OnDataBytes(i, 1, 0);
        }
      }
      unit.OnPacketEnd(EndFlags{});
    });
  }
};

TEST(LazySettle, RunCrossingHalfFullIsAppliedByteByByte) {
  // Each packet drains in about 2500 * 80 ns = 200 us.  The first raises
  // the high-water mark past half full; the second, fed as one run, would
  // cross half full again and so must latch stop byte by byte; the third
  // stays under half full and the high-water mark, the one-push case.
  auto run = [](bool as_one_run) {
    HandFedPort port;
    port.Feed(10 * kMicrosecond, 3000, false);
    port.Feed(400 * kMicrosecond, 2500, as_one_run);
    port.Feed(800 * kMicrosecond, 1000, as_one_run);
    port.sim.RunUntil(2 * kMillisecond);
    const PortFifo& fifo = port.sw.link_unit(HandFedPort::kPort).fifo();
    EXPECT_EQ(fifo.occupancy(), 0u);
    return std::tuple{
        port.far.directives,
        port.sim.metrics().GetCounter("switch.sw.link.flow_stops")->value(),
        fifo.max_occupancy(), fifo.overflow_count(),
        port.sim.events_processed()};
  };
  auto one_run = run(true);
  auto per_byte = run(false);
  EXPECT_EQ(one_run, per_byte);
  // Both of the first two packets latched stop once.
  EXPECT_EQ(std::get<1>(per_byte), 2u);
  EXPECT_EQ(std::get<2>(per_byte), 3001u);
}

// A 1 km trunk holds about 64 bytes in flight.
class LongTrunkTest : public MiniNetTest {
 protected:
  LongTrunkTest() { trunk_km_ = 1.0; }
};

TEST_F(LongTrunkTest, CableCutWithBytesInFlight) {
  h1_->Send(DataPacket(AddrH2(), AddrH1(), 4000));
  // Mid-stream, between slot starts: the symbols already on the cable still
  // arrive; nothing sent after the cut does.
  const Tick t = kMidStream + 20;
  sim_.ScheduleAt(t, [&] { trunk_->SetMode(LinkMode::kCut); });
  PortStatus at_cut;
  sim_.ScheduleAt(t, [&] { at_cut = sw_b_->ReadAndClearStatus(kTrunkPort); });
  sim_.RunUntil(t + 3 * kMicrosecond);
  StatusPin in_flight = Pin(sw_b_->ReadAndClearStatus(kTrunkPort));
  sim_.RunUntil(2 * kMillisecond);
  PortStatus after = sw_b_->ReadAndClearStatus(kTrunkPort);

  ExpectPin(Pin(at_cut), {27, 2374, 1}, "swB trunk at the cut");
  ExpectPin(in_flight, {0, 27, 37}, "swB trunk while in-flight bytes land");
  ExpectPin(Pin(after), {0, 0, 27}, "swB trunk after the stream");
  EXPECT_EQ(after.bad_code, 0u);
  EXPECT_FALSE(after.carrier);
  Switch::Stats b = sw_b_->stats();
  EXPECT_EQ(b.packets_forwarded, 1u);
  EXPECT_EQ(b.bytes_forwarded, 2400u);
  ASSERT_EQ(h2_rx_.size(), 1u);
  EXPECT_TRUE(h2_rx_[0].truncated);
  EXPECT_EQ(h2_rx_[0].delivered_at, 202211);
}

}  // namespace
}  // namespace autonet
