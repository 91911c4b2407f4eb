#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/host/controller.h"
#include "src/link/link.h"
#include "src/link/slots.h"
#include "src/sim/simulator.h"

namespace autonet {
namespace {

// Records everything it receives.
class RecordingEndpoint : public LinkEndpoint {
 public:
  void OnPacketBegin(const PacketRef& packet) override {
    begins.push_back(packet);
  }
  // Never grants deferral, so every byte fires on its own.
  void OnDataBytes(std::uint32_t offset, std::uint32_t n,
                   std::uint32_t corrupt) override {
    EXPECT_EQ(n, 1u);
    bytes.push_back(offset);
    corrupt_bytes += static_cast<int>(corrupt);
  }
  void OnPacketEnd(EndFlags flags) override { ends.push_back(flags); }
  void OnFlowDirective(FlowDirective d) override { directives.push_back(d); }
  void OnCarrierChange(bool up) override { carrier_changes.push_back(up); }

  std::vector<PacketRef> begins;
  std::vector<std::uint32_t> bytes;
  std::vector<EndFlags> ends;
  std::vector<FlowDirective> directives;
  std::vector<bool> carrier_changes;
  int corrupt_bytes = 0;
};

PacketRef TestPacket() {
  Packet p;
  p.dest = ShortAddress(0x123);
  p.src = ShortAddress(0x456);
  p.type = PacketType::kReconfig;
  p.payload = {1, 2, 3};
  return MakePacket(std::move(p));
}

TEST(Slots, FlowSlotEvery256) {
  EXPECT_TRUE(IsFlowSlot(0));
  EXPECT_FALSE(IsFlowSlot(1));
  EXPECT_TRUE(IsFlowSlot(256));
  EXPECT_EQ(NextFlowSlotAt(0), 0);
  EXPECT_EQ(NextFlowSlotAt(1), 256 * kSlotNs);
  EXPECT_EQ(NextFlowSlotAt(256 * kSlotNs), 256 * kSlotNs);
}

TEST(Slots, NextDataSlotSkipsFlowSlots) {
  // Slot 0 is a flow slot, so the first data slot at t=0 is slot 1.
  EXPECT_EQ(NextDataSlotAt(0), kSlotNs);
  EXPECT_EQ(NextDataSlotAt(kSlotNs), kSlotNs);
  // Just before slot 256 (a flow slot): next data slot is 257.
  EXPECT_EQ(NextDataSlotAt(255 * kSlotNs + 1), 257 * kSlotNs);
  EXPECT_EQ(NextDataSlotAfter(kSlotNs), 2 * kSlotNs);
}

TEST(Link, DeliversSymbolsAfterPropagationDelay) {
  Simulator sim;
  Link link(&sim, 1.0);  // 1 km: 64.1 slots = 5128 ns
  RecordingEndpoint a;
  RecordingEndpoint b;
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);

  PacketRef pkt = TestPacket();
  link.TransmitBegin(Link::Side::kA, pkt);
  link.TransmitByte(Link::Side::kA, 0);
  link.TransmitEnd(Link::Side::kA, EndFlags{});
  sim.Run();

  ASSERT_EQ(b.begins.size(), 1u);
  EXPECT_EQ(b.begins[0]->id, pkt->id);
  EXPECT_EQ(b.bytes, (std::vector<std::uint32_t>{0}));
  ASSERT_EQ(b.ends.size(), 1u);
  EXPECT_FALSE(b.ends[0].truncated);
  EXPECT_EQ(sim.now(), PropagationDelayNs(1.0));
  EXPECT_TRUE(a.begins.empty());  // nothing came back
}

TEST(Link, FlowDirectiveChangeQuantizedToFlowSlot) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint a;
  RecordingEndpoint b;
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);

  sim.RunUntil(10 * kSlotNs);  // mid flow-slot period
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStop);
  sim.Run();
  ASSERT_EQ(b.directives.size(), 1u);
  EXPECT_EQ(b.directives[0], FlowDirective::kStop);
  EXPECT_EQ(sim.now(), 256 * kSlotNs + PropagationDelayNs(0.1));
}

TEST(Link, RedundantDirectiveGeneratesNoEvent) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint b;
  link.Attach(Link::Side::kB, &b);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStart);
  sim.Run();
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStart);
  sim.Run();
  EXPECT_EQ(b.directives.size(), 1u);
}

TEST(Link, SupersededDirectiveDeliversOnlyLatest) {
  // Two changes inside the same flow-slot period: the wire only carries the
  // latest latched value, so the receiver must see exactly one directive.
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint b;
  link.Attach(Link::Side::kB, &b);
  sim.RunUntil(10 * kSlotNs);  // mid flow-slot period
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStop);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStart);
  sim.Run();
  ASSERT_EQ(b.directives.size(), 1u);
  EXPECT_EQ(b.directives[0], FlowDirective::kStart);
}

TEST(Link, SupersededDirectiveDeliversOnlyLatestReversedOrder) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint b;
  link.Attach(Link::Side::kB, &b);
  sim.RunUntil(10 * kSlotNs);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStart);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStop);
  sim.Run();
  ASSERT_EQ(b.directives.size(), 1u);
  EXPECT_EQ(b.directives[0], FlowDirective::kStop);
}

TEST(Link, DirectiveSupersededByNoneDeliversNothing) {
  // Reverting to kNone before the flow slot cancels the pending delivery;
  // absence of directives generates no event.
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint b;
  link.Attach(Link::Side::kB, &b);
  sim.RunUntil(10 * kSlotNs);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStop);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kNone);
  sim.Run();
  EXPECT_TRUE(b.directives.empty());
}

TEST(Link, RedeliveryRacingInFlightChangeDoesNotDoubleDeliver) {
  // A redelivery (endpoint attach, mode change) while a changed directive is
  // still waiting for its flow slot must supersede the pending delivery, not
  // add a second one.
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint a;
  RecordingEndpoint b;
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);
  sim.RunUntil(10 * kSlotNs);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStop);
  link.Attach(Link::Side::kB, &b);  // re-attach redelivers latched directives
  sim.Run();
  ASSERT_EQ(b.directives.size(), 1u);
  EXPECT_EQ(b.directives[0], FlowDirective::kStop);
}

TEST(Link, CutSilencesBothSides) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint a;
  RecordingEndpoint b;
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);
  link.SetMode(LinkMode::kCut);

  EXPECT_FALSE(link.CarrierAt(Link::Side::kA));
  EXPECT_FALSE(link.CarrierAt(Link::Side::kB));
  ASSERT_FALSE(a.carrier_changes.empty());
  EXPECT_FALSE(a.carrier_changes.back());

  PacketRef pkt = TestPacket();
  link.TransmitBegin(Link::Side::kA, pkt);
  sim.Run();
  EXPECT_TRUE(b.begins.empty());
}

TEST(Link, ReflectionReturnsOwnSymbols) {
  Simulator sim;
  Link link(&sim, 0.5);
  RecordingEndpoint a;
  RecordingEndpoint b;
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);
  link.SetMode(LinkMode::kReflectA);

  PacketRef pkt = TestPacket();
  link.TransmitBegin(Link::Side::kA, pkt);
  sim.Run();
  // A hears its own transmission after a round trip; B hears nothing.
  ASSERT_EQ(a.begins.size(), 1u);
  EXPECT_TRUE(b.begins.empty());
  EXPECT_EQ(sim.now(), 2 * PropagationDelayNs(0.5));
  EXPECT_TRUE(link.CarrierAt(Link::Side::kA));
  EXPECT_FALSE(link.CarrierAt(Link::Side::kB));
}

TEST(Link, ModeChangeRedeliversLatchedDirective) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint a;
  RecordingEndpoint b;
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kStart);
  sim.Run();
  b.directives.clear();

  link.SetMode(LinkMode::kCut);
  sim.Run();
  EXPECT_TRUE(b.directives.empty());

  link.SetMode(LinkMode::kNormal);  // restore: directive reaches B again
  sim.Run();
  ASSERT_EQ(b.directives.size(), 1u);
  EXPECT_EQ(b.directives[0], FlowDirective::kStart);
}

TEST(Link, MissedDirectiveSlotsCountsSyncOnlyTransmitter) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint a;
  RecordingEndpoint b;
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);
  // A sends no directives (alternate host port): B misses one directive
  // per flow-slot period.
  Tick period = kFlowSlotPeriod * kSlotNs;
  sim.RunUntil(10 * period + 5);
  EXPECT_EQ(link.MissedDirectiveSlots(Link::Side::kB, 0), 10);
  EXPECT_EQ(link.MissedDirectiveSlots(Link::Side::kB, 5 * period), 5);

  // Once A sends directives, nothing is missed.
  link.SetFlowDirective(Link::Side::kA, FlowDirective::kHost);
  sim.RunUntil(20 * period);
  EXPECT_EQ(link.MissedDirectiveSlots(Link::Side::kB, 15 * period), 0);
}

TEST(Link, CorruptionRateDamagesBytes) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint b;
  link.Attach(Link::Side::kB, &b);
  link.SetCorruptionRate(1.0);

  PacketRef pkt = TestPacket();
  link.TransmitBegin(Link::Side::kA, pkt);
  for (std::uint32_t i = 0; i < 10; ++i) {
    link.TransmitByte(Link::Side::kA, i);
  }
  link.TransmitEnd(Link::Side::kA, EndFlags{});
  sim.Run();
  EXPECT_EQ(b.corrupt_bytes, 10);
}

TEST(Link, TruncatedEndFlagPropagates) {
  Simulator sim;
  Link link(&sim, 0.1);
  RecordingEndpoint b;
  link.Attach(Link::Side::kB, &b);
  link.TransmitBegin(Link::Side::kA, TestPacket());
  link.TransmitEnd(Link::Side::kA, EndFlags{.truncated = true});
  sim.Run();
  ASSERT_EQ(b.ends.size(), 1u);
  EXPECT_TRUE(b.ends[0].truncated);
}

// Records each symbol's kind, offset and arrival time, in arrival order.
// Endpoints given one shared `log` record into it instead, so the log holds
// the global firing order, each symbol tagged with its receiver's `name`.
class TimingEndpoint : public LinkEndpoint {
 public:
  struct Symbol {
    char kind;  // 'b'egin, 'd'ata or 'e'nd
    std::uint32_t offset;
    Tick at;
    char rx = 0;  // name of the receiving endpoint
    bool operator==(const Symbol&) const = default;
  };

  explicit TimingEndpoint(Simulator* sim, char name = 0,
                          std::vector<Symbol>* log = nullptr)
      : sim_(sim), name_(name), log_(log != nullptr ? log : &symbols) {}
  void OnPacketBegin(const PacketRef&) override { Record('b', 0); }
  // A settled run lands as one call; each of its bytes is recorded at the
  // look that applied it.
  void OnDataBytes(std::uint32_t offset, std::uint32_t n,
                   std::uint32_t) override {
    for (std::uint32_t i = 0; i < n; ++i) {
      Record('d', offset + i);
    }
  }
  void OnPacketEnd(EndFlags) override { Record('e', 0); }
  void OnFlowDirective(FlowDirective) override {}
  void OnCarrierChange(bool) override {}

  std::vector<Symbol> symbols;

 private:
  void Record(char kind, std::uint32_t offset) {
    log_->push_back({kind, offset, sim_->now(), name_});
  }

  Simulator* sim_;
  char name_;
  std::vector<Symbol>* log_;
};

TEST(Link, LongCableDeliversEverySymbolAfterOneDelayInOrder) {
  // A 2 km cable holds about 128 symbols in flight, so the channel's flit
  // ring grows by doubling from its small start.  A one-byte packet sent
  // and drained first leaves the ring's head mid-buffer, so the first
  // growth has to unwrap a wrapped ring.
  Simulator sim;
  Link link(&sim, 2.0);
  TimingEndpoint b(&sim);
  link.Attach(Link::Side::kB, &b);
  const Tick delay = PropagationDelayNs(2.0);
  ASSERT_GT(delay, 128 * kSlotNs);

  auto full_size = [] {
    Packet p;
    p.payload.assign(1500, 0xD5);
    return MakePacket(std::move(p));
  };
  const PacketRef packets[] = {TestPacket(), full_size(), full_size()};
  const std::uint32_t lengths[] = {1, 1500, 1500};
  // Symbols go out one per slot: the short packet at t = 0, then the two
  // 1500-byte packets back to back once it has drained.
  std::vector<TimingEndpoint::Symbol> sent;
  Tick t = 0;
  for (int i = 0; i < 3; ++i) {
    if (i == 1) {
      t = 2 * delay;
    }
    const PacketRef& pkt = packets[i];
    sent.push_back({'b', 0, t});
    sim.ScheduleAt(t, [&link, pkt] { link.TransmitBegin(Link::Side::kA, pkt); });
    t += kSlotNs;
    for (std::uint32_t off = 0; off < lengths[i]; ++off, t += kSlotNs) {
      sent.push_back({'d', off, t});
      sim.ScheduleAt(t, [&link, pkt, off] {
        link.TransmitByte(Link::Side::kA, off);
      });
    }
    sent.push_back({'e', 0, t});
    sim.ScheduleAt(t, [&link] {
      link.TransmitEnd(Link::Side::kA, EndFlags{});
    });
    t += kSlotNs;
  }
  sim.Run();

  std::vector<TimingEndpoint::Symbol> expected = sent;
  for (TimingEndpoint::Symbol& s : expected) {
    s.at += delay;
  }
  ASSERT_EQ(b.symbols.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(b.symbols[i], expected[i]) << "symbol " << i;
  }
}

TEST(Link, ReflectToNormalMidPacketDeliversEverySymbolOnce) {
  // An unterminated 2 km cable is restored while side A is mid-packet.  The
  // symbols A sent before the restore come back to A after the round trip
  // (2d); those sent after it reach B after one delay (d), so B hears them
  // while A's earlier symbols are still in flight.  Every symbol must
  // arrive exactly once, at its own receiver and time, and the two
  // receivers' arrivals must interleave in (arrival, transmit) order.
  Simulator sim;
  Link link(&sim, 2.0);
  std::vector<TimingEndpoint::Symbol> log;
  TimingEndpoint a(&sim, 'A', &log);
  TimingEndpoint b(&sim, 'B', &log);
  link.Attach(Link::Side::kA, &a);
  link.Attach(Link::Side::kB, &b);
  link.SetMode(LinkMode::kReflectA);
  const Tick d = PropagationDelayNs(2.0);

  PacketRef pkt = TestPacket();
  // Each transmitted symbol, tagged with its expected receiver and arrival.
  std::vector<TimingEndpoint::Symbol> sent;
  auto send = [&](char kind, std::uint32_t offset, Tick t) {
    bool reflected = t < 10 * kSlotNs + kSlotNs / 2;
    sent.push_back({kind, offset, t + (reflected ? 2 * d : d),
                    reflected ? 'A' : 'B'});
    sim.ScheduleAt(t, [&link, pkt, kind, offset] {
      if (kind == 'b') {
        link.TransmitBegin(Link::Side::kA, pkt);
      } else if (kind == 'd') {
        link.TransmitByte(Link::Side::kA, offset);
      } else {
        link.TransmitEnd(Link::Side::kA, EndFlags{});
      }
    });
  };
  // Begin and bytes 0..9 go out one per slot while the cable reflects.
  send('b', 0, 0);
  for (std::uint32_t off = 0; off < 10; ++off) {
    send('d', off, (off + 1) * kSlotNs);
  }
  sim.ScheduleAt(10 * kSlotNs + kSlotNs / 2,
                 [&link] { link.SetMode(LinkMode::kNormal); });
  // The rest go out after the restore, offset from the slot grid by
  // d mod 80 ns so that eleven of them reach B on the very tick a reflected
  // symbol reaches A.  Those ties fire in transmit order: A's symbol first.
  const Tick phase = d % kSlotNs;
  std::uint32_t off = 10;
  for (Tick slot = 11; off < 140; ++off, ++slot) {
    send('d', off, phase + slot * kSlotNs);
  }
  send('e', 0, phase + (11 + 130) * kSlotNs);
  sim.Run();

  std::vector<TimingEndpoint::Symbol> expected = sent;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const TimingEndpoint::Symbol& x,
                      const TimingEndpoint::Symbol& y) { return x.at < y.at; });
  int ties = 0;
  for (std::size_t i = 1; i < expected.size(); ++i) {
    ties += expected[i].at == expected[i - 1].at ? 1 : 0;
  }
  EXPECT_EQ(ties, 11);
  ASSERT_EQ(log.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(log[i], expected[i]) << "symbol " << i;
  }
}

// The data symbols `ep` has received so far, in order.
std::vector<TimingEndpoint::Symbol> DataSymbols(const TimingEndpoint& ep) {
  std::vector<TimingEndpoint::Symbol> data;
  for (const TimingEndpoint::Symbol& sym : ep.symbols) {
    if (sym.kind == 'd') {
      data.push_back(sym);
    }
  }
  return data;
}

// Sends begin at slot 1, byte i at slot 2 + i, and end after the last byte.
void ScheduleStream(Simulator& sim, Link& link, const PacketRef& pkt,
                    std::uint32_t bytes) {
  sim.ScheduleAt(kSlotNs, [&link, pkt] {
    link.TransmitBegin(Link::Side::kA, pkt);
  });
  for (std::uint32_t i = 0; i < bytes; ++i) {
    sim.ScheduleAt((2 + i) * kSlotNs,
                   [&link, i] { link.TransmitByte(Link::Side::kA, i); });
  }
  sim.ScheduleAt((2 + bytes) * kSlotNs, [&link] {
    link.TransmitEnd(Link::Side::kA, EndFlags{});
  });
}

TEST(Link, RevokedGrantDeliversEachRemainingByteAtItsReservedArrival) {
  Simulator sim;
  Link link(&sim, 1.0);  // 5128 ns: about 64 bytes in flight
  const Tick d = link.propagation_delay();
  TimingEndpoint b(&sim);
  link.Attach(Link::Side::kB, &b);
  link.GrantDeferral(Link::Side::kB, Link::kNoHorizon, 0);
  // The end is on the cable too when the grant is revoked.
  constexpr std::uint32_t kBytes = 60;
  ScheduleStream(sim, link, TestPacket(), kBytes);
  auto arrival = [d](std::uint32_t i) { return (2 + i) * kSlotNs + d; };

  // Bytes 0..38 have landed by the revoke; nobody has looked at them yet.
  const Tick revoke_at = d + 40 * kSlotNs + 1;
  std::size_t applied_before_revoke = 0;
  sim.ScheduleAt(revoke_at, [&] {
    applied_before_revoke = DataSymbols(b).size();
    link.RevokeDeferral(Link::Side::kB);
  });
  // Two looks on the tick byte 50 lands: one scheduled earlier for that
  // tick, which ranks before arrivals, and one scheduled on the tick
  // itself, which ranks after them.
  std::size_t seen_before = 0, seen_after = 0;
  sim.ScheduleAt(arrival(50), [&] {
    seen_before = DataSymbols(b).size();
    sim.ScheduleAt(arrival(50), [&] { seen_after = DataSymbols(b).size(); });
  });
  sim.Run();

  EXPECT_EQ(applied_before_revoke, 0u);
  std::vector<TimingEndpoint::Symbol> data = DataSymbols(b);
  ASSERT_EQ(data.size(), kBytes);
  for (std::uint32_t i = 0; i < kBytes; ++i) {
    EXPECT_EQ(data[i].offset, i);
    // The revoke applies the bytes already due; the rest fire on their own.
    EXPECT_EQ(data[i].at, i <= 38 ? revoke_at : arrival(i)) << i;
  }
  EXPECT_EQ(seen_before, 50u);
  EXPECT_EQ(seen_after, 51u);
  EXPECT_EQ(b.symbols.back().kind, 'e');
  EXPECT_EQ(b.symbols.back().at, arrival(kBytes));
}

TEST(Link, GrantDefersWithinItsHeadroomAndSettleAppliesWhatIsDue) {
  Simulator sim;
  Link link(&sim, 1.0);
  const Tick d = link.propagation_delay();
  TimingEndpoint b(&sim);
  link.Attach(Link::Side::kB, &b);
  auto arrival = [d](std::uint32_t i) { return (2 + i) * kSlotNs + d; };
  // Bytes 0..9 land at or before the horizon: the begin and two bytes fit
  // the headroom of 3, so bytes 2..9 fire as events of their own.  Bytes
  // from 10 on land beyond the horizon and are all deferred.
  link.GrantDeferral(Link::Side::kB, arrival(9), 3);
  constexpr std::uint32_t kBytes = 40;
  ScheduleStream(sim, link, TestPacket(), kBytes);
  const Tick look_at = arrival(20) + 1;
  std::size_t seen_at_look = 0;
  sim.ScheduleAt(look_at, [&] {
    link.Settle(Link::Side::kB);
    seen_at_look = DataSymbols(b).size();
  });
  sim.Run();

  EXPECT_EQ(seen_at_look, 21u);
  std::vector<TimingEndpoint::Symbol> data = DataSymbols(b);
  ASSERT_EQ(data.size(), kBytes);
  const Tick end_arrival = arrival(kBytes);
  for (std::uint32_t i = 0; i < kBytes; ++i) {
    EXPECT_EQ(data[i].offset, i);
    Tick want = i < 2    ? arrival(2)    // applied ahead of byte 2's firing
                : i < 10 ? arrival(i)    // undeferred: its own firing
                : i <= 20 ? look_at      // applied by the settle
                          : end_arrival; // applied ahead of the end
    EXPECT_EQ(data[i].at, want) << i;
  }
  EXPECT_EQ(b.symbols.back().kind, 'e');
  EXPECT_EQ(b.symbols.back().at, end_arrival);
}

// A host port counts a packet's bytes and notes damage only to judge the
// packet at its end: a short packet arrives truncated, a damaged byte
// marks it corrupted, and the verdicts land at the end symbol's arrival.
TEST(Link, HostPortByteCountAndCorruptFlag) {
  Simulator sim;
  Link link(&sim, 0.01);  // 51 ns
  RecordingEndpoint sender;
  HostController host(&sim, Uid(0xB0B), "host");
  link.Attach(Link::Side::kA, &sender);
  host.AttachPort(0, &link, Link::Side::kB);
  std::vector<Delivery> rx;
  host.SetReceiveHandler([&](Delivery d) { rx.push_back(std::move(d)); });

  PacketRef pkt = TestPacket();
  const auto wire = static_cast<std::uint32_t>(pkt->WireSize());
  // One symbol per slot from slot 1 on; `skip` drops a byte offset, and
  // `damage` sends one byte through a link that corrupts every byte.
  Tick t = kSlotNs;
  auto send_packet = [&](std::uint32_t skip, std::uint32_t damage) {
    sim.ScheduleAt(t, [&] { link.TransmitBegin(Link::Side::kA, pkt); });
    t += kSlotNs;
    for (std::uint32_t i = 0; i < wire; ++i) {
      if (i == skip) {
        continue;
      }
      sim.ScheduleAt(t, [&link, i, damage] {
        link.SetCorruptionRate(i == damage ? 1.0 : 0.0);
        link.TransmitByte(Link::Side::kA, i);
      });
      t += kSlotNs;
    }
    sim.ScheduleAt(t, [&] { link.TransmitEnd(Link::Side::kA, EndFlags{}); });
    t += 3 * kSlotNs;
  };
  constexpr std::uint32_t kNone = ~0u;
  send_packet(kNone, kNone);     // intact
  send_packet(wire - 1, kNone);  // one byte short
  send_packet(kNone, 5);         // byte 5 damaged
  sim.Run();

  ASSERT_EQ(rx.size(), 3u);
  const Tick first_end = (1 + 1 + wire) * kSlotNs + 51;
  EXPECT_TRUE(rx[0].intact());
  EXPECT_EQ(rx[0].delivered_at, first_end);
  EXPECT_TRUE(rx[1].truncated);
  EXPECT_FALSE(rx[1].corrupted);
  EXPECT_EQ(rx[1].delivered_at, first_end + (3 + wire) * kSlotNs);
  EXPECT_FALSE(rx[2].truncated);
  EXPECT_TRUE(rx[2].corrupted);
  EXPECT_EQ(rx[2].delivered_at, first_end + (7 + 2 * wire) * kSlotNs);
  EXPECT_EQ(host.stats().packets_received, 3u);
  EXPECT_EQ(host.stats().rx_truncated, 1u);
  EXPECT_EQ(host.stats().rx_crc_errors, 1u);
}

}  // namespace
}  // namespace autonet
