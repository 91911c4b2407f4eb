#include <gtest/gtest.h>

#include "src/host/controller.h"
#include "src/link/link.h"
#include "src/link/slots.h"
#include "src/sim/simulator.h"

namespace autonet {
namespace {

// A switch-side stand-in that records symbols and can throttle the host.
class FakeSwitchPort : public LinkEndpoint {
 public:
  void OnPacketBegin(const PacketRef& packet) override {
    current = packet;
    bytes = 0;
  }
  void OnDataBytes(std::uint32_t, std::uint32_t n, std::uint32_t) override {
    EXPECT_EQ(n, 1u);  // never grants deferral
    ++bytes;
  }
  void OnPacketEnd(EndFlags flags) override {
    received.push_back({current, flags.corrupted, flags.truncated});
    byte_counts.push_back(bytes);
    current = nullptr;
  }
  void OnFlowDirective(FlowDirective d) override { directives.push_back(d); }
  void OnCarrierChange(bool) override {}

  struct Rx {
    PacketRef packet;
    bool corrupted;
    bool truncated;
  };
  std::vector<Rx> received;
  std::vector<std::uint32_t> byte_counts;
  std::vector<FlowDirective> directives;
  PacketRef current;
  std::uint32_t bytes = 0;
};

PacketRef SmallPacket(std::size_t data = 16,
                      ShortAddress dest = ShortAddress(0x25)) {
  Packet p;
  p.dest = dest;
  p.src = ShortAddress(0x13);
  p.payload.assign(data, 7);
  return MakePacket(std::move(p));
}

class ControllerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctl_ = std::make_unique<HostController>(&sim_, Uid(0xC0FFEE), "host");
    link0_ = std::make_unique<Link>(&sim_, 0.01);
    link1_ = std::make_unique<Link>(&sim_, 0.01);
    ctl_->AttachPort(0, link0_.get(), Link::Side::kA);
    ctl_->AttachPort(1, link1_.get(), Link::Side::kA);
    link0_->Attach(Link::Side::kB, &switch0_);
    link1_->Attach(Link::Side::kB, &switch1_);
    // The switch side allows transmission.
    link0_->SetFlowDirective(Link::Side::kB, FlowDirective::kStart);
    link1_->SetFlowDirective(Link::Side::kB, FlowDirective::kStart);
    sim_.RunUntil(30 * kMicrosecond);
  }

  Simulator sim_;
  // Links are declared before the controller: devices detach from their
  // links on destruction, so links must outlive them.
  std::unique_ptr<Link> link0_, link1_;
  FakeSwitchPort switch0_, switch1_;
  std::unique_ptr<HostController> ctl_;
};

TEST_F(ControllerTest, ActivePortSendsHostDirective) {
  ASSERT_FALSE(switch0_.directives.empty());
  EXPECT_EQ(switch0_.directives.back(), FlowDirective::kHost);
  // The alternate port sends only sync: no directives at all.
  EXPECT_TRUE(switch1_.directives.empty());
}

TEST_F(ControllerTest, ImprovedHardwareSendsHostOnAlternate) {
  HostController::Config config;
  config.host_directive_on_alternate = true;
  Link l0(&sim_, 0.01);
  Link l1(&sim_, 0.01);
  FakeSwitchPort s0, s1;
  HostController improved(&sim_, Uid(0xD), "imp", config);
  l0.Attach(Link::Side::kB, &s0);
  l1.Attach(Link::Side::kB, &s1);
  improved.AttachPort(0, &l0, Link::Side::kA);
  improved.AttachPort(1, &l1, Link::Side::kA);
  sim_.RunUntil(sim_.now() + 30 * kMicrosecond);
  ASSERT_FALSE(s1.directives.empty());
  EXPECT_EQ(s1.directives.back(), FlowDirective::kHost);
}

TEST_F(ControllerTest, TransmitsWholePacket) {
  PacketRef pkt = SmallPacket(100);
  EXPECT_TRUE(ctl_->Send(pkt));
  sim_.RunUntil(sim_.now() + 1 * kMillisecond);
  ASSERT_EQ(switch0_.received.size(), 1u);
  EXPECT_EQ(switch0_.received[0].packet->id, pkt->id);
  EXPECT_EQ(switch0_.byte_counts[0], pkt->WireSize());
  EXPECT_EQ(ctl_->stats().packets_sent, 1u);
}

TEST_F(ControllerTest, ObeysStopFromSwitch) {
  link0_->SetFlowDirective(Link::Side::kB, FlowDirective::kStop);
  sim_.RunUntil(sim_.now() + 100 * kMicrosecond);
  ctl_->Send(SmallPacket(50));
  sim_.RunUntil(sim_.now() + 1 * kMillisecond);
  EXPECT_TRUE(switch0_.received.empty());  // throttled

  link0_->SetFlowDirective(Link::Side::kB, FlowDirective::kStart);
  sim_.RunUntil(sim_.now() + 1 * kMillisecond);
  EXPECT_EQ(switch0_.received.size(), 1u);  // resumes on start
}

TEST_F(ControllerTest, BroadcastIgnoresStopMidPacket) {
  PacketRef pkt = SmallPacket(3000, kAddrBroadcastAll);
  ctl_->Send(pkt);
  // Let transmission begin, then stop the link.
  sim_.RunUntil(sim_.now() + 30 * kMicrosecond);
  link0_->SetFlowDirective(Link::Side::kB, FlowDirective::kStop);
  sim_.RunUntil(sim_.now() + 2 * kMillisecond);
  ASSERT_EQ(switch0_.received.size(), 1u);  // completed despite stop
  EXPECT_FALSE(switch0_.received[0].truncated);
}

TEST_F(ControllerTest, PortFailoverSwitchesTransmission) {
  ctl_->SelectPort(1);
  sim_.RunUntil(sim_.now() + 30 * kMicrosecond);
  // Directive roles swap.
  ASSERT_FALSE(switch1_.directives.empty());
  EXPECT_EQ(switch1_.directives.back(), FlowDirective::kHost);

  ctl_->Send(SmallPacket(20));
  sim_.RunUntil(sim_.now() + 1 * kMillisecond);
  EXPECT_TRUE(switch0_.received.empty());
  EXPECT_EQ(switch1_.received.size(), 1u);
}

TEST_F(ControllerTest, FailoverMidPacketTruncates) {
  ctl_->Send(SmallPacket(5000));
  sim_.RunUntil(sim_.now() + 50 * kMicrosecond);  // mid-transmission
  ctl_->SelectPort(1);
  sim_.RunUntil(sim_.now() + 2 * kMillisecond);
  ASSERT_EQ(switch0_.received.size(), 1u);
  EXPECT_TRUE(switch0_.received[0].truncated);
}

TEST_F(ControllerTest, TxBufferRejectsWhenFull) {
  HostController::Config config;
  config.tx_buffer_bytes = 200;
  Link link(&sim_, 0.01);
  HostController small(&sim_, Uid(0xE), "small", config);
  small.AttachPort(0, &link, Link::Side::kA);
  // No start from the far side: use default latch (start) but block pump by
  // stop so packets accumulate.
  link.SetFlowDirective(Link::Side::kB, FlowDirective::kStop);
  sim_.RunUntil(sim_.now() + 100 * kMicrosecond);

  EXPECT_TRUE(small.Send(SmallPacket(50)));   // ~104 wire bytes
  EXPECT_FALSE(small.Send(SmallPacket(50)));  // buffer full
  EXPECT_EQ(small.stats().tx_rejected_full, 1u);
}

TEST_F(ControllerTest, ReceivesAndChecksPackets) {
  std::vector<Delivery> got;
  ctl_->SetReceiveHandler([&](Delivery d) { got.push_back(d); });
  PacketRef pkt = SmallPacket(40);
  // Transmit from the switch side at slot cadence.
  link0_->TransmitBegin(Link::Side::kB, pkt);
  for (std::uint32_t i = 0; i < pkt->WireSize(); ++i) {
    link0_->TransmitByte(Link::Side::kB, i);
  }
  link0_->TransmitEnd(Link::Side::kB, EndFlags{});
  sim_.RunUntil(sim_.now() + 1 * kMillisecond);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].intact());
  EXPECT_EQ(ctl_->stats().packets_received, 1u);
}

TEST_F(ControllerTest, SlowHostDiscardsInsteadOfStopping) {
  HostController::Config config;
  config.rx_buffer_bytes = 300;
  config.rx_process_ns_per_packet = 10 * kMillisecond;  // very slow host
  Link link(&sim_, 0.01);
  HostController slow(&sim_, Uid(0xF), "slow", config);
  slow.AttachPort(0, &link, Link::Side::kA);
  sim_.RunUntil(sim_.now() + 30 * kMicrosecond);

  for (int i = 0; i < 5; ++i) {
    PacketRef pkt = SmallPacket(60);
    link.TransmitBegin(Link::Side::kB, pkt);
    for (std::uint32_t b = 0; b < pkt->WireSize(); ++b) {
      link.TransmitByte(Link::Side::kB, b);
    }
    link.TransmitEnd(Link::Side::kB, EndFlags{});
  }
  sim_.RunUntil(sim_.now() + 1 * kMillisecond);
  EXPECT_GT(slow.stats().rx_discarded_full, 0u);
  // Crucially, the controller never sent stop: hosts may not.
  EXPECT_NE(link.flow_directive(Link::Side::kA), FlowDirective::kStop);
}

TEST_F(ControllerTest, LinkErrorVisibleOnCut) {
  EXPECT_FALSE(ctl_->link_error_on_active());
  link0_->SetMode(LinkMode::kCut);
  EXPECT_TRUE(ctl_->link_error_on_active());
}

}  // namespace
}  // namespace autonet
