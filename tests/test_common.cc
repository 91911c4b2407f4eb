#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "src/common/crc.h"
#include "src/common/event_log.h"
#include "src/common/histogram.h"
#include "src/common/ids.h"
#include "src/common/packet.h"
#include "src/common/port_vector.h"
#include "src/common/serialize.h"
#include "src/common/time.h"
#include "src/common/tokens.h"

namespace autonet {
namespace {

TEST(Uid, MasksTo48Bits) {
  Uid uid(0xFFFF'1234'5678'9ABCull);
  EXPECT_EQ(uid.value(), 0x1234'5678'9ABCull);
  EXPECT_FALSE(uid.IsNil());
  EXPECT_TRUE(Uid().IsNil());
}

TEST(Uid, Ordering) {
  EXPECT_LT(Uid(1), Uid(2));
  EXPECT_EQ(Uid(7), Uid(7));
}

TEST(ShortAddress, PaperAddressMap) {
  // The assignments of section 6.3 (low 11 bits of the 16-bit constants).
  EXPECT_TRUE(ShortAddress(0x000).IsLocalCp());
  for (std::uint16_t v = 0x001; v <= 0x00F; ++v) {
    EXPECT_TRUE(ShortAddress(v).IsOneHop()) << v;
    EXPECT_FALSE(ShortAddress(v).IsAssignable()) << v;
  }
  EXPECT_TRUE(ShortAddress(0x010).IsAssignable());
  EXPECT_TRUE(ShortAddress(0x7EF).IsAssignable());
  EXPECT_TRUE(ShortAddress(0x7F0).IsReserved());
  EXPECT_TRUE(ShortAddress(0x7FB).IsReserved());
  EXPECT_TRUE(kAddrLoopback.IsLoopback());
  EXPECT_TRUE(kAddrBroadcastAll.IsBroadcastAll());
  EXPECT_TRUE(kAddrBroadcastSwitches.IsBroadcastSwitches());
  EXPECT_TRUE(kAddrBroadcastHosts.IsBroadcastHosts());
  EXPECT_TRUE(kAddrBroadcastAll.IsBroadcast());
  EXPECT_FALSE(ShortAddress(0x7FC).IsBroadcast());
}

TEST(ShortAddress, SwitchPortSplit) {
  ShortAddress addr = ShortAddress::FromSwitchPort(5, 7);
  EXPECT_EQ(addr.value(), (5u << 4) | 7u);
  EXPECT_EQ(addr.switch_num(), 5);
  EXPECT_EQ(addr.port(), 7);
  EXPECT_TRUE(addr.IsAssignable());
}

TEST(ShortAddress, MaxSwitchNumberStaysAssignable) {
  ShortAddress addr = ShortAddress::FromSwitchPort(kMaxSwitchNum, 12);
  EXPECT_TRUE(addr.IsAssignable());
  // Port 15 of the max switch number would collide with the reserved range;
  // switches only have ports 0..12, so this cannot arise.
  EXPECT_EQ(ShortAddress::FromSwitchPort(kMaxSwitchNum, 12).switch_num(),
            kMaxSwitchNum);
}

TEST(ShortAddress, Masks16BitValuesLikeThePrototype) {
  // Prototype switches interpret only the low-order 11 bits.
  EXPECT_EQ(ShortAddress(0xFFFD).value(), kAddrBroadcastAll.value());
  EXPECT_EQ(ShortAddress(0xFFFF).value(), kAddrBroadcastHosts.value());
}

TEST(PortVector, BasicSetOperations) {
  PortVector v;
  EXPECT_TRUE(v.empty());
  v.Set(3);
  v.Set(12);
  EXPECT_TRUE(v.Test(3));
  EXPECT_TRUE(v.Test(12));
  EXPECT_FALSE(v.Test(4));
  EXPECT_EQ(v.Count(), 2);
  EXPECT_EQ(v.Lowest(), 3);
  v.Clear(3);
  EXPECT_EQ(v.Lowest(), 12);
}

TEST(PortVector, MasksTo13Bits) {
  PortVector v(0xFFFF);
  EXPECT_EQ(v.bits(), 0x1FFF);
  EXPECT_EQ(v.Count(), 13);
}

TEST(PortVector, ForEachVisitsAscending) {
  PortVector v;
  v.Set(9);
  v.Set(0);
  v.Set(4);
  std::vector<PortNum> seen;
  v.ForEach([&](PortNum p) { seen.push_back(p); });
  EXPECT_EQ(seen, (std::vector<PortNum>{0, 4, 9}));
}

TEST(PortVector, SetAlgebra) {
  PortVector a = PortVector::Single(1) | PortVector::Single(2);
  PortVector b = PortVector::Single(2) | PortVector::Single(3);
  EXPECT_EQ((a & b), PortVector::Single(2));
  EXPECT_EQ((a | b).Count(), 3);
  EXPECT_FALSE((a & ~b).Test(2));
  EXPECT_TRUE((a & ~b).Test(1));
}

TEST(Packet, WireSizeAccounting) {
  Packet p;
  p.type = PacketType::kEthernetEncap;
  p.payload.assign(100, 0);
  // 32-byte Autonet header + 14-byte encap header + data + 8-byte CRC.
  EXPECT_EQ(p.WireSize(), 32u + 14u + 100u + 8u);

  Packet c;
  c.type = PacketType::kReconfig;
  c.payload.assign(20, 0);
  EXPECT_EQ(c.WireSize(), 32u + 20u + 8u);
}

TEST(Packet, MakePacketAssignsUniqueIds) {
  PacketRef a = MakePacket(Packet{});
  PacketRef b = MakePacket(Packet{});
  EXPECT_NE(a->id, b->id);
}

TEST(Crc64, KnownProperties) {
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  std::uint64_t crc = Crc64::Compute(data, sizeof(data));
  // CRC-64/WE check value for "123456789" (ECMA-182 polynomial with
  // all-ones init and final inversion).
  EXPECT_EQ(crc, 0x62EC59E3F1A4F00Aull);
}

TEST(Crc64, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(64, 0xAB);
  std::uint64_t before = Crc64::Compute(data.data(), data.size());
  data[17] ^= 0x04;
  EXPECT_NE(before, Crc64::Compute(data.data(), data.size()));
}

TEST(Crc64, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 300; ++i) {
    data.push_back(static_cast<std::uint8_t>(i * 7));
  }
  Crc64 inc;
  inc.Update(data.data(), 100);
  inc.Update(data.data() + 100, 200);
  EXPECT_EQ(inc.Finish(), Crc64::Compute(data.data(), data.size()));
}

TEST(Serialize, RoundTrip) {
  ByteWriter w;
  w.U8(0x12);
  w.U16(0x3456);
  w.U32(0x789ABCDE);
  w.U64(0x1122334455667788ull);
  w.Id(Uid(0xABCDEF));
  w.Address(ShortAddress(0x123));
  std::vector<std::uint8_t> bytes = w.Take();

  ByteReader r(bytes);
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  Uid uid;
  ShortAddress addr;
  r.U8(u8);
  r.U16(u16);
  r.U32(u32);
  r.U64(u64);
  r.Id(uid);
  r.Address(addr);
  EXPECT_EQ(u8, 0x12);
  EXPECT_EQ(u16, 0x3456);
  EXPECT_EQ(u32, 0x789ABCDEu);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_EQ(uid, Uid(0xABCDEF));
  EXPECT_EQ(addr, ShortAddress(0x123));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serialize, TruncatedReadSetsError) {
  ByteWriter w;
  w.U16(7);
  std::vector<std::uint8_t> bytes = w.Take();
  ByteReader r(bytes);
  std::uint32_t v = 0;
  r.U32(v);
  EXPECT_EQ(v, 7u);  // reads past end: zeros
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, ReaderRefusesTemporaryVectors) {
  // The reader borrows the vector's storage; binding a temporary would
  // leave it dangling before the first read.
  static_assert(
      !std::is_constructible_v<ByteReader, std::vector<std::uint8_t>>,
      "ByteReader must not bind an rvalue vector");
  static_assert(
      std::is_constructible_v<ByteReader, const std::vector<std::uint8_t>&>,
      "ByteReader still binds lvalue vectors");
}

TEST(Serialize, UidWithBitsAboveTheMaskIsAnError) {
  // Only 48 bits of a wire UID field are meaningful and every writer
  // masks, so set high bits can only be corruption.  Constructing the Uid
  // would silently drop them — and the message would re-serialize
  // differently from what was received.
  ByteWriter w;
  w.U64(Uid::kMask + 1);
  std::vector<std::uint8_t> bytes = w.Take();
  ByteReader r(bytes);
  Uid uid;
  r.Id(uid);
  EXPECT_EQ(uid, Uid(0));
  EXPECT_FALSE(r.ok());

  ByteWriter w2;
  w2.Id(Uid(0xABCDEF));
  std::vector<std::uint8_t> bytes2 = w2.Take();
  ByteReader r2(bytes2);
  r2.Id(uid);
  EXPECT_EQ(uid, Uid(0xABCDEF));
  EXPECT_TRUE(r2.ok());
}

TEST(Serialize, ShortAddressWithBitsAboveTheMaskIsAnError) {
  ByteWriter w;
  w.U16(static_cast<std::uint16_t>(ShortAddress::kMask + 1));
  std::vector<std::uint8_t> bytes = w.Take();
  ByteReader r(bytes);
  ShortAddress addr;
  r.Address(addr);
  EXPECT_FALSE(r.ok());
}

TEST(EventLog, MergeOrdersByTime) {
  EventLog a("a");
  EventLog b("b");
  a.Log(300, "third");
  b.Log(100, "first");
  a.Log(200, "second");
  auto merged = EventLog::Merge({&a, &b});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].message, "first");
  EXPECT_EQ(merged[1].message, "second");
  EXPECT_EQ(merged[2].message, "third");
}

TEST(EventLog, MergeBreaksTimestampTiesBySeq) {
  EventLog a("a");
  EventLog b("b");
  // All four entries share one timestamp; the global seq counter (one
  // fetch_add per Log call, across all logs) must decide the order.
  a.Log(500, "first");
  b.Log(500, "second");
  b.Log(500, "third");
  a.Log(500, "fourth");
  auto merged = EventLog::Merge({&b, &a});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].message, "first");
  EXPECT_EQ(merged[1].message, "second");
  EXPECT_EQ(merged[2].message, "third");
  EXPECT_EQ(merged[3].message, "fourth");
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LT(merged[i - 1].seq, merged[i].seq);
  }
}

TEST(EventLog, LogfTruncatesLongMessages) {
  EventLog log("x");
  std::string big(1000, 'y');
  log.Logf(1, "head %s", big.c_str());
  ASSERT_EQ(log.entries().size(), 1u);
  // vsnprintf into the 512-byte stack buffer: 511 characters + NUL.
  const std::string& msg = log.entries().front().message;
  EXPECT_EQ(msg.size(), 511u);
  EXPECT_EQ(msg.substr(0, 5), "head ");
  EXPECT_EQ(msg.back(), 'y');
}

TEST(EventLog, CircularCapacity) {
  EventLog log("x", 4);
  for (int i = 0; i < 10; ++i) {
    log.Logf(i, "entry %d", i);
  }
  ASSERT_EQ(log.entries().size(), 4u);
  EXPECT_EQ(log.entries().front().message, "entry 6");
}

TEST(EventLog, DisabledLogsNothing) {
  EventLog log("x");
  log.set_enabled(false);
  log.Log(1, "dropped");
  EXPECT_TRUE(log.entries().empty());
}

TEST(Histogram, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Add(i);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Min(), 1);
  EXPECT_DOUBLE_EQ(h.Max(), 100);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.51);
  EXPECT_NEAR(h.Percentile(99), 99.01, 0.1);
}

TEST(Histogram, MergeIsSampleExact) {
  Histogram a;
  Histogram b;
  Histogram all;
  for (int i = 1; i <= 50; ++i) {
    a.Add(i);
    all.Add(i);
  }
  for (int i = 51; i <= 100; ++i) {
    b.Add(i);
    all.Add(i);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.Min(), all.Min());
  EXPECT_DOUBLE_EQ(a.Max(), all.Max());
  EXPECT_DOUBLE_EQ(a.Sum(), all.Sum());
  EXPECT_DOUBLE_EQ(a.Percentile(50), all.Percentile(50));
  EXPECT_DOUBLE_EQ(a.Percentile(99), all.Percentile(99));

  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 100u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 100u);
  EXPECT_DOUBLE_EQ(empty.Min(), 1);
}

TEST(Histogram, P999InterpolatesIntoSparseTail) {
  // One outlier among 1000 samples: p999 should land just off the bulk,
  // not jump straight to the outlier (that is p100's job).
  Histogram h;
  for (int i = 0; i < 999; ++i) {
    h.Add(1.0);
  }
  h.Add(100.0);
  // rank = 0.999 * 999 = 998.001: between the last 1.0 and the outlier.
  EXPECT_NEAR(h.Percentile(99.9), 1.0 + 0.001 * 99.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
}

TEST(Histogram, P999WithFewerSamplesThanATail) {
  // Far fewer than 1000 samples: p999 must interpolate inside the range,
  // never index past the max.
  Histogram h;
  h.Add(5.0);
  h.Add(7.0);
  h.Add(9.0);
  // rank = 0.999 * 2 = 1.998 -> 7 + 0.998 * 2.
  EXPECT_NEAR(h.Percentile(99.9), 8.996, 1e-9);

  Histogram one;
  one.Add(42.0);
  EXPECT_DOUBLE_EQ(one.Percentile(99.9), 42.0);

  Histogram none;
  EXPECT_DOUBLE_EQ(none.Percentile(99.9), 0.0);
}

TEST(Time, PropagationDelayMatchesPaperFormula) {
  // W = 64.1 slots/km: a 2 km link is 128.2 slots one way (section 6.2).
  EXPECT_EQ(PropagationDelayNs(2.0), static_cast<Tick>(128.2 * 80));
}

TEST(Time, LiteralsRoundTrip) {
  for (Tick t : {Tick{0}, 7 * kSecond, 250 * kMillisecond, 1500 * kMillisecond,
                 100 * kMicrosecond, Tick{870}}) {
    Tick back = -1;
    ASSERT_TRUE(ParseTime(FormatTime(t), &back)) << FormatTime(t);
    EXPECT_EQ(back, t);
  }
  EXPECT_EQ(FormatTime(2 * kSecond), "2s");
  EXPECT_EQ(FormatTime(1500 * kMillisecond), "1500ms");
  EXPECT_EQ(FormatTime(100 * kMicrosecond), "100us");
  EXPECT_EQ(FormatTime(0), "0ns");

  Tick t = 0;
  EXPECT_TRUE(ParseTime("1.5s", &t));
  EXPECT_EQ(t, 1500 * kMillisecond);
  EXPECT_TRUE(ParseTime("250ms", &t));
  EXPECT_EQ(t, 250 * kMillisecond);
}

TEST(Time, LiteralsRejectMalformedText) {
  Tick t = 42;
  EXPECT_FALSE(ParseTime("5", &t));     // no unit
  EXPECT_FALSE(ParseTime("ms", &t));    // no number
  EXPECT_FALSE(ParseTime("1.5x", &t));  // unknown unit
  EXPECT_FALSE(ParseTime("-1ms", &t));  // negative
  EXPECT_FALSE(ParseTime("", &t));
  EXPECT_EQ(t, 42) << "a rejected literal must leave the output alone";
}

TEST(Tokens, SplitDropsCommentsToEndOfLine) {
  EXPECT_EQ(SplitTokens("  at 1s\tcut cable 0 # note\nat 2s#x\n restore"),
            (std::vector<std::string>{"at", "1s", "cut", "cable", "0", "at",
                                      "2s", "restore"}));
  EXPECT_TRUE(SplitTokens(" # only a comment\n\n").empty());
}

TEST(Tokens, NumbersMustFillTheWholeToken) {
  long long n = 7;
  EXPECT_TRUE(ParseNumber("64", 1LL, 64LL, &n));
  EXPECT_EQ(n, 64);
  for (const char* bad : {"", "3x", "2.9", "+1", "0", "65", " 5",
                          "99999999999999999999"}) {
    EXPECT_FALSE(ParseNumber(bad, 1LL, 64LL, &n)) << bad;
  }
  EXPECT_EQ(n, 64) << "a rejected token must leave the output alone";

  double r = 0.25;
  EXPECT_TRUE(ParseNumber("1e-3", 0.0, 1.0, &r));
  EXPECT_DOUBLE_EQ(r, 0.001);
  for (const char* bad : {"0.5abc", "nan", "inf", "1.5", "-0.1"}) {
    EXPECT_FALSE(ParseNumber(bad, 0.0, 1.0, &r)) << bad;
  }
  EXPECT_DOUBLE_EQ(r, 0.001);
}

}  // namespace
}  // namespace autonet
