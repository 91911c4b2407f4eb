// Golden bytes of the wire formats the committed protocheck corpus does not
// pin: the SRP GetState and GetStats reply bodies, the ARP body, the data
// tag Network::SendTagged writes, and the driver's loopback token.  Each
// format is pinned at its public surface (the bytes a switch or host puts
// on the wire, and what the receiving side decodes from them), plus the
// malformed inputs its decoder must refuse.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/network.h"
#include "src/host/localnet.h"
#include "src/host/srp_client.h"
#include "src/topo/spec.h"

namespace autonet {
namespace {

std::string Hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

std::vector<std::uint8_t> Unhex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// A converged 3-switch line with one host per switch, the flight recorder
// armed, and an SRP client on host 0, as fresh as a new client gets: its
// first request id is 1.
class WireNetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<Network>(MakeLine(3, 1));
    net_->sim().flight().Arm();
    net_->Boot();
    ASSERT_TRUE(net_->WaitForConsistency(60 * kSecond));
    ASSERT_TRUE(
        net_->WaitForHostsRegistered(net_->sim().now() + 30 * kSecond));
    client_ = std::make_unique<SrpClient>(&net_->driver_at(0));
  }

  // The raw reply body the local switch serves for `op`.
  std::vector<std::uint8_t> RawBody(SrpMsg::Op op, const std::string& arg) {
    auto reply = client_->Query(op, {}, 5 * kSecond,
                                std::vector<std::uint8_t>(arg.begin(),
                                                          arg.end()));
    EXPECT_TRUE(reply.has_value());
    return reply.has_value() ? reply->body : std::vector<std::uint8_t>{};
  }

  // Hands the client a reply to its next request (id 1) carrying `body`.
  // The test then queries along a route whose first hop does not exist, so
  // the local switch drops the request and only this reply answers it.
  void InjectReply(const std::vector<std::uint8_t>& body) {
    SrpMsg reply;
    reply.op = SrpMsg::Op::kReply;
    reply.request_id = 1;
    reply.body = body;
    Packet p;
    p.dest = kAddrLocalCp;
    p.type = PacketType::kSrp;
    p.payload = reply.Serialize();
    Delivery d;
    d.packet = MakePacket(std::move(p));
    net_->driver_at(0).receive_handler()(std::move(d));
  }
  static inline const std::vector<std::uint8_t> kDeadRoute = {200};
  static constexpr Tick kInjectedTimeout = 50 * kMillisecond;

  std::unique_ptr<Network> net_;
  std::unique_ptr<SrpClient> client_;
};

// u64 epoch, u16 switch number, u64 UID, bool reconfiguration in progress,
// then one PortState byte per port 1..12; all little-endian.
const char kStateBody[] =
    "0300000000000000"            // epoch 3
    "0100"                        // switch number 1
    "0000005000000000"            // UID 0x50000000
    "00"                          // not reconfiguring
    "050000000000000000000002";   // port 1 switch.good, port 12 host

TEST_F(WireNetTest, GetStateBodyGolden) {
  ASSERT_EQ(Hex(RawBody(SrpMsg::Op::kGetState, "")), kStateBody);
  auto state = client_->GetState({});
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->epoch, net_->autopilot_at(0).epoch());
  EXPECT_EQ(state->switch_num, net_->autopilot_at(0).switch_num());
  EXPECT_EQ(state->uid, net_->switch_at(0).uid());
  EXPECT_FALSE(state->reconfig_in_progress);
  ASSERT_EQ(state->port_states.size(), 12u);
  EXPECT_EQ(state->port_states[0], 5);
  EXPECT_EQ(state->port_states[11], 2);
}

TEST_F(WireNetTest, GetStateDecodesAnInjectedGoldenBody) {
  InjectReply(Unhex(kStateBody));
  auto state = client_->GetState(kDeadRoute, kInjectedTimeout);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->epoch, 3u);
  EXPECT_EQ(state->switch_num, 1);
  EXPECT_EQ(state->uid, Uid(0x50000000));
  EXPECT_EQ(state->port_states[0], 5);
}

TEST_F(WireNetTest, GetStateRejectsTruncatedBody) {
  std::vector<std::uint8_t> body = Unhex(kStateBody);
  body.pop_back();
  InjectReply(body);
  EXPECT_FALSE(client_->GetState(kDeadRoute, kInjectedTimeout).has_value());
}

TEST_F(WireNetTest, GetStateRejectsTrailingByte) {
  std::vector<std::uint8_t> body = Unhex(kStateBody);
  body.push_back(0);
  InjectReply(body);
  EXPECT_FALSE(client_->GetState(kDeadRoute, kInjectedTimeout).has_value());
}

TEST_F(WireNetTest, GetStateRejectsNonCanonicalBool) {
  std::vector<std::uint8_t> body = Unhex(kStateBody);
  body[18] = 2;  // the reconfiguration-in-progress flag
  InjectReply(body);
  EXPECT_FALSE(client_->GetState(kDeadRoute, kInjectedTimeout).has_value());
}

// u16 entry count, then per entry: u8 kind, u16 name length, the name, and
// the kind's payload (counter: u64; gauge: f64 bits; histogram: u64 count
// and f64 min, max, mean).  Each filter below selects one kind; the last
// selects the two synthetic flight-recorder counters.  Hosts 1 and 2 first
// flood host 0, so switch 0's flow-stop histogram has samples.
struct StatsGolden {
  const char* filter;
  const char* body;
};
const StatsGolden kStatsBodies[] = {
    {"packets_forwarded",
     "0100"
     "00" "1800" "6661627269632e7061636b6574735f666f72776172646564"
     "0b02000000000000"},  // 523
    {"port1.fifo",
     "0100"
     "01" "1b00" "6661627269632e706f7274312e6669666f5f68776d5f6279746573"
     "000000000022a040"},  // 2065.0
    {"stop_interval",
     "0100"
     "02" "1500" "6c696e6b2e73746f705f696e74657276616c5f6e73"
     "b001000000000000"    // 432 samples
     "0000000000003d40"    // min 29.0
     "0000000040b7d340"    // max
     "be84f612dabb8040"},  // mean
    {"flight.",
     "0200"
     "00" "0c00" "666c696768742e6465707468" "1600000000000000"  // 22
     "00" "1000" "666c696768742e7472756e6361746564" "0000000000000000"},
};

TEST_F(WireNetTest, GetStatsBodyGolden) {
  for (int round = 0; round < 40; ++round) {
    for (int h : {1, 2}) {
      while (net_->SendData(h, 0, 1500)) {
      }
    }
    net_->Run(kMillisecond);
  }
  net_->Run(100 * kMillisecond);
  for (const StatsGolden& g : kStatsBodies) {
    EXPECT_EQ(Hex(RawBody(SrpMsg::Op::kGetStats, g.filter)), g.body)
        << g.filter;
  }
}

TEST_F(WireNetTest, GetStatsDecodesEveryKind) {
  auto all = client_->GetStats({});
  ASSERT_TRUE(all.has_value());
  auto counters = client_->GetStats({}, "packets_forwarded");
  ASSERT_TRUE(counters.has_value());
  ASSERT_EQ(counters->size(), 1u);
  EXPECT_EQ((*counters)[0].kind, obs::MetricKind::kCounter);
  EXPECT_EQ((*counters)[0].name, "fabric.packets_forwarded");
  EXPECT_GT((*counters)[0].counter, 0u);
  auto gauges = client_->GetStats({}, "port1.fifo");
  ASSERT_TRUE(gauges.has_value());
  ASSERT_EQ(gauges->size(), 1u);
  EXPECT_EQ((*gauges)[0].kind, obs::MetricKind::kGauge);
  auto hists = client_->GetStats({}, "stop_interval");
  ASSERT_TRUE(hists.has_value());
  ASSERT_FALSE(hists->empty());
  EXPECT_EQ((*hists)[0].kind, obs::MetricKind::kHistogram);
  auto flight = client_->GetStats({}, "flight.");
  ASSERT_TRUE(flight.has_value());
  ASSERT_EQ(flight->size(), 2u);
  EXPECT_EQ((*flight)[0].name, "flight.depth");
  EXPECT_GT((*flight)[0].counter, 0u);
  EXPECT_EQ((*flight)[1].name, "flight.truncated");
}

// One counter entry, "x" = 7.
const char kOneCounter[] = "0100" "00" "0100" "78" "0700000000000000";

TEST_F(WireNetTest, GetStatsDecodesAnInjectedGoldenBody) {
  InjectReply(Unhex(kOneCounter));
  auto stats = client_->GetStats(kDeadRoute, "", kInjectedTimeout);
  ASSERT_TRUE(stats.has_value());
  ASSERT_EQ(stats->size(), 1u);
  EXPECT_EQ((*stats)[0].kind, obs::MetricKind::kCounter);
  EXPECT_EQ((*stats)[0].name, "x");
  EXPECT_EQ((*stats)[0].counter, 7u);
}

TEST_F(WireNetTest, GetStatsRejectsTruncatedBody) {
  std::vector<std::uint8_t> body = Unhex(kOneCounter);
  body.pop_back();
  InjectReply(body);
  EXPECT_FALSE(
      client_->GetStats(kDeadRoute, "", kInjectedTimeout).has_value());
}

TEST_F(WireNetTest, GetStatsRejectsTrailingByte) {
  std::vector<std::uint8_t> body = Unhex(kOneCounter);
  body.push_back(0);
  InjectReply(body);
  EXPECT_FALSE(
      client_->GetStats(kDeadRoute, "", kInjectedTimeout).has_value());
}

TEST_F(WireNetTest, GetStatsRejectsUnknownKind) {
  std::vector<std::uint8_t> body = Unhex(kOneCounter);
  body[2] = 3;  // no MetricKind 3
  InjectReply(body);
  EXPECT_FALSE(
      client_->GetStats(kDeadRoute, "", kInjectedTimeout).has_value());
}

// u8 op, then the target UID as u64 little-endian.
TEST(WireArp, BodyGolden) {
  ArpBody body{ArpBody::Op::kReply, Uid(0x0A0B0C0D0E0Full)};
  EXPECT_EQ(Hex(body.Serialize()), "020f0e0d0c0b0a0000");
  auto parsed = ArpBody::Parse(Unhex("010f0e0d0c0b0a0000"));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->op, ArpBody::Op::kRequest);
  EXPECT_EQ(parsed->target_uid, Uid(0x0A0B0C0D0E0Full));
}

TEST(WireArp, RejectsTruncatedBody) {
  EXPECT_FALSE(ArpBody::Parse(Unhex("020f0e0d0c0b0a00")).has_value());
}

TEST(WireArp, RejectsTrailingByte) {
  EXPECT_FALSE(ArpBody::Parse(Unhex("020f0e0d0c0b0a000000")).has_value());
}

TEST(WireArp, RejectsUnknownOp) {
  EXPECT_FALSE(ArpBody::Parse(Unhex("000f0e0d0c0b0a0000")).has_value());
  EXPECT_FALSE(ArpBody::Parse(Unhex("030f0e0d0c0b0a0000")).has_value());
}

TEST(WireArp, RejectsUidAboveTheMask) {
  EXPECT_FALSE(ArpBody::Parse(Unhex("020f0e0d0c0b0a0001")).has_value());
}

// The data tag: the first 8 payload bytes, big-endian; the rest of the
// payload is the 0xD5 fill of every client data packet.
TEST_F(WireNetTest, DataTagGolden) {
  ASSERT_TRUE(net_->SendTagged(0, 2, 12, 0x0800, 0x0102030405060708ull));
  net_->Run(100 * kMillisecond);
  ASSERT_EQ(net_->inbox(2).size(), 1u);
  EXPECT_EQ(Hex(net_->inbox(2)[0].packet->payload),
            "0102030405060708d5d5d5d5");
}

// The loopback token: 8 bytes little-endian.  The first test of a driver
// sends 0x10F0F0F0F0F0F0F1.
TEST_F(WireNetTest, LoopbackTokenGolden) {
  std::vector<std::uint8_t> reflected;
  net_->host_at(0).SetReceiveHandler([&](Delivery d) {
    if (d.packet->dest.IsLoopback()) {
      reflected = d.packet->payload;
    }
  });
  net_->driver_at(0).TestActiveLink([](bool) {});
  net_->Run(100 * kMillisecond);
  EXPECT_EQ(Hex(reflected), "f1f0f0f0f0f0f010");
}

}  // namespace
}  // namespace autonet
