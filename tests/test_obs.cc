// Telemetry subsystem tests: metric registry semantics, the flight recorder
// and its post-mortem Chrome-trace export, snapshot JSON round-trips through
// the bundled parser, and the two end-to-end acceptance paths — a 3x3 torus
// reconfiguration producing nested epoch and phase spans, and SRP GetStats
// pulling a remote switch's counters across the fabric.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/event_log.h"
#include "src/core/network.h"
#include "src/host/srp_client.h"
#include "src/obs/flight.h"
#include "src/obs/metrics.h"
#include "src/obs/postmortem.h"
#include "src/topo/spec.h"
#include "tests/json_parse.h"

namespace autonet {
namespace {

using obs::MetricKind;
using obs::MetricRegistry;

// --- registry ---

TEST(MetricRegistry, RegistrationReturnsStableHandles) {
  MetricRegistry reg;
  obs::Counter* c = reg.GetCounter("switch.sw0.fabric.packets_forwarded");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reg.GetCounter("switch.sw0.fabric.packets_forwarded"), c);
  EXPECT_EQ(reg.size(), 1u);

  const MetricRegistry::Entry* e =
      reg.Find("switch.sw0.fabric.packets_forwarded");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, MetricKind::kCounter);
  EXPECT_EQ(reg.Find("no.such.metric"), nullptr);
}

TEST(MetricRegistry, KindMismatchReturnsNull) {
  MetricRegistry reg;
  ASSERT_NE(reg.GetCounter("x"), nullptr);
  EXPECT_EQ(reg.GetGauge("x"), nullptr);
  EXPECT_EQ(reg.GetHistogram("x"), nullptr);
  ASSERT_NE(reg.GetGauge("y"), nullptr);
  EXPECT_EQ(reg.GetCounter("y"), nullptr);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricRegistry, InstrumentSemantics) {
  MetricRegistry reg;
  obs::Counter* c = reg.GetCounter("c");
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);

  obs::Gauge* g = reg.GetGauge("g");
  g->Set(3.0);
  g->Add(-1.5);
  EXPECT_DOUBLE_EQ(g->value(), 1.5);
  g->SetMax(9.0);
  g->SetMax(4.0);  // high-water mark keeps the larger value
  EXPECT_DOUBLE_EQ(g->value(), 9.0);

  Histogram* h = reg.GetHistogram("h");
  h->Add(10);
  h->Add(30);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->Min(), 10);
  EXPECT_DOUBLE_EQ(h->Max(), 30);
  EXPECT_DOUBLE_EQ(h->Mean(), 20);
}

TEST(MetricRegistry, VisitSelectsPrefixInOrder) {
  MetricRegistry reg;
  reg.GetCounter("switch.sw1.fabric.resets");
  reg.GetCounter("switch.sw0.reconfig.triggers");
  reg.GetCounter("switch.sw0.fabric.resets");
  reg.GetCounter("host.h0.uidcache.hit");

  std::vector<std::string> seen;
  reg.Visit("switch.sw0.",
            [&](const MetricRegistry::Entry& e) { seen.push_back(e.name); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "switch.sw0.fabric.resets");
  EXPECT_EQ(seen[1], "switch.sw0.reconfig.triggers");

  seen.clear();
  reg.Visit("", [&](const MetricRegistry::Entry& e) { seen.push_back(e.name); });
  EXPECT_EQ(seen.size(), 4u);
}

TEST(MetricRegistry, MergeFromFoldsByKind) {
  MetricRegistry a;
  a.GetCounter("packets")->Increment(10);
  a.GetGauge("fifo_hwm")->SetMax(5.0);
  a.GetHistogram("latency")->Add(1.0);
  a.GetCounter("only_in_a")->Increment(1);

  MetricRegistry b;
  b.GetCounter("packets")->Increment(32);
  b.GetGauge("fifo_hwm")->SetMax(9.0);
  b.GetHistogram("latency")->Add(3.0);
  b.GetHistogram("only_in_b")->Add(7.0);
  // Same name, different kind: must not alias into a's counter.
  b.GetGauge("only_in_a")->Set(99.0);

  a.MergeFrom(b);
  EXPECT_EQ(a.GetCounter("packets")->value(), 42u);          // counters add
  EXPECT_DOUBLE_EQ(a.GetGauge("fifo_hwm")->value(), 9.0);    // high water
  EXPECT_EQ(a.GetHistogram("latency")->count(), 2u);         // sample-exact
  EXPECT_DOUBLE_EQ(a.GetHistogram("latency")->Max(), 3.0);
  EXPECT_EQ(a.GetHistogram("only_in_b")->count(), 1u);       // created
  EXPECT_EQ(a.GetCounter("only_in_a")->value(), 1u);         // kind mismatch
}

TEST(Histogram, MergeEdgeCases) {
  Histogram a;
  a.Add(2.0);
  a.Add(4.0);

  Histogram empty;
  a.Merge(empty);  // empty source: aggregates untouched
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Min(), 2.0);
  EXPECT_DOUBLE_EQ(a.Max(), 4.0);
  EXPECT_DOUBLE_EQ(a.Mean(), 3.0);

  Histogram b;
  b.Merge(a);  // nonempty into empty: adopts every aggregate exactly
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.Min(), 2.0);
  EXPECT_DOUBLE_EQ(b.Max(), 4.0);
  EXPECT_DOUBLE_EQ(b.Percentile(50), 3.0);

  // Self-merge doubles the population and preserves shape; the sample
  // vector reallocates mid-merge, so this also pins the no-dangling-
  // iterator contract of Merge.
  a.Merge(a);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.Sum(), 12.0);
  EXPECT_DOUBLE_EQ(a.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.Min(), 2.0);
  EXPECT_DOUBLE_EQ(a.Max(), 4.0);
}

TEST(MetricRegistry, MergeFromEdgeCases) {
  MetricRegistry a;
  MetricRegistry b;
  b.GetCounter("c")->Increment(5);
  b.GetHistogram("h")->Add(1.0);

  a.MergeFrom(b);  // into an empty registry: every entry is created
  EXPECT_EQ(a.size(), 2u);
  ASSERT_NE(a.GetCounter("c"), nullptr);
  EXPECT_EQ(a.GetCounter("c")->value(), 5u);
  EXPECT_EQ(a.GetHistogram("h")->count(), 1u);

  MetricRegistry none;
  a.MergeFrom(none);  // empty source: no-op
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.GetCounter("c")->value(), 5u);

  a.MergeFrom(a);  // self-merge: counters and sample counts double
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.GetCounter("c")->value(), 10u);
  EXPECT_EQ(a.GetHistogram("h")->count(), 2u);

  // Kind mismatch on merge: the source entry is skipped, never aliased,
  // and the destination keeps both its value and its kind.
  MetricRegistry wrong;
  wrong.GetGauge("c")->Set(123.0);
  a.MergeFrom(wrong);
  ASSERT_NE(a.GetCounter("c"), nullptr);
  EXPECT_EQ(a.GetCounter("c")->value(), 10u);
  EXPECT_EQ(a.GetGauge("c"), nullptr);
}

TEST(MetricRegistry, SnapshotJsonRoundTrips) {
  MetricRegistry reg;
  reg.GetCounter("a.count")->Increment(3);
  reg.GetGauge("a.level")->Set(2.5);
  Histogram* h = reg.GetHistogram("a.lat");
  h->Add(1);
  h->Add(3);
  reg.GetCounter("b.count")->Increment(7);

  auto doc = ParseJson(reg.SnapshotJson());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("a.count"), nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("a.count")->number, 3.0);
  EXPECT_DOUBLE_EQ(counters->Find("b.count")->number, 7.0);

  const JsonValue* gauges = doc->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("a.level")->number, 2.5);

  const JsonValue* lat = doc->Find("histograms")->Find("a.lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->Find("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(lat->Find("min")->number, 1.0);
  EXPECT_DOUBLE_EQ(lat->Find("max")->number, 3.0);
  EXPECT_DOUBLE_EQ(lat->Find("mean")->number, 2.0);

  // Prefix restriction selects a subtree.
  auto sub = ParseJson(reg.SnapshotJson("a."));
  ASSERT_TRUE(sub.has_value());
  EXPECT_NE(sub->Find("counters")->Find("a.count"), nullptr);
  EXPECT_EQ(sub->Find("counters")->Find("b.count"), nullptr);
}

// --- flight recorder & post-mortem ---

TEST(FlightRecorder, DisarmedRecordsNothingAndArmResets) {
  obs::FlightRecorder rec;
  obs::FlightRing* ring = rec.Ring("sw0", Uid(0x10));
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(rec.Ring("sw0", Uid(0x10)), ring);  // stable handle
  EXPECT_FALSE(ring->armed());

  obs::FlightEvent ev;
  ev.time = 1;
  ring->Record(ev);  // disarmed: dropped without accounting
  EXPECT_EQ(ring->depth(), 0u);
  EXPECT_EQ(ring->total(), 0u);

  rec.Arm(4);
  EXPECT_TRUE(ring->armed());
  ring->Record(ev);
  EXPECT_EQ(ring->depth(), 1u);

  rec.Disarm();  // keeps the history for post-mortem reading
  ring->Record(ev);
  EXPECT_EQ(ring->depth(), 1u);
  EXPECT_EQ(ring->total(), 1u);

  rec.Arm(4);  // re-arming starts a fresh recording
  EXPECT_EQ(ring->depth(), 0u);
  EXPECT_EQ(ring->total(), 0u);
}

TEST(FlightRecorder, RingWrapKeepsNewestAndCountsTruncation) {
  obs::FlightRecorder rec;
  rec.Arm(4);
  obs::FlightRing* ring = rec.Ring("sw0", Uid(0x10));
  for (int i = 0; i < 10; ++i) {
    obs::FlightEvent ev;
    ev.time = 100 + i;
    ev.a = static_cast<std::uint64_t>(i);
    ring->Record(ev);
  }
  EXPECT_EQ(ring->depth(), 4u);
  EXPECT_EQ(ring->total(), 10u);
  EXPECT_EQ(ring->truncated(), 6u);

  // The retained window is the newest four events, oldest first.
  std::vector<obs::FlightEvent> events = ring->Chronological();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 6 + i);
    EXPECT_EQ(events[i].time, static_cast<Tick>(106 + i));
  }
}

// Each kind with a section 6.7 text line renders the exact wording the
// EventLog has always carried (the chaos log hashes are taken over it).
TEST(FlightEvent, RendersTheEventLogLineOfEachTextKind) {
  auto render = [](const obs::FlightEvent& e) {
    char buf[256];
    return obs::RenderFlightEvent(e, buf, sizeof(buf)) ? std::string(buf)
                                                       : "<none>";
  };
  obs::FlightEvent e;
  e.kind = obs::FlightEventKind::kEpochJoin;
  e.epoch = 7;
  e.detail = "higher epoch seen";
  EXPECT_EQ(render(e), "reconfig: join epoch 7 (higher epoch seen)");

  e = {};
  e.kind = obs::FlightEventKind::kPositionChange;
  e.origin = Uid(0xABC);
  e.a = 2;
  e.port = 5;
  EXPECT_EQ(render(e), "reconfig: position root=abc level=2 parent-port=5");
  e.a = 0;
  e.port = -1;
  EXPECT_EQ(render(e), "reconfig: position root=abc level=0 parent-port=-1");

  e = {};
  e.kind = obs::FlightEventKind::kEpochResync;
  e.epoch = 0xFFFFFFFFFFFFFFF0ull;
  e.a = 12;
  EXPECT_EQ(render(e),
            "reconfig: epoch register 18446744073709551600 implausibly "
            "ahead of neighbors (12); resyncing");

  e = {};
  e.kind = obs::FlightEventKind::kEpochRejected;
  e.epoch = 0x100000009ull;
  e.b = 4;
  EXPECT_EQ(render(e),
            "reconfig: ignored implausible epoch 4294967305 (current 4)");

  e = {};
  e.kind = obs::FlightEventKind::kEpochHeld;
  e.epoch = 9;
  e.b = 4;
  EXPECT_EQ(render(e),
            "reconfig: holding suspect epoch 9 (current 4) for confirmation");

  e = {};
  e.kind = obs::FlightEventKind::kReportSend;
  e.a = 3;
  e.port = 11;
  EXPECT_EQ(render(e), "reconfig: stable, reporting 3 switches to port 11");

  e = {};
  e.kind = obs::FlightEventKind::kTermination;
  e.epoch = 5;
  e.a = 9;
  EXPECT_EQ(render(e), "reconfig: root terminated epoch 5 with 9 switches");

  e = {};
  e.kind = obs::FlightEventKind::kPortTransition;
  e.port = 3;
  e.from = "s.dead";
  e.to = "s.checking";
  e.detail = "clean holddown served";
  EXPECT_EQ(render(e), "port 3: s.dead -> s.checking (clean holddown served)");

  // The rest live in the ring only.
  for (obs::FlightEventKind kind :
       {obs::FlightEventKind::kSkepticTrip, obs::FlightEventKind::kTrigger,
        obs::FlightEventKind::kLinkChange, obs::FlightEventKind::kReportRecv,
        obs::FlightEventKind::kConfigRecv,
        obs::FlightEventKind::kConfigCompute,
        obs::FlightEventKind::kRouteInstall,
        obs::FlightEventKind::kAdversary}) {
    e = {};
    e.kind = kind;
    EXPECT_EQ(render(e), "<none>") << obs::FlightEventKindName(kind);
  }
}

// Emit writes the text line and bumps the counter whether or not the
// recorder is armed; only the ring depends on arming.
TEST(Emitter, LogsAndCountsWhileDisarmedAndRecordsOnlyWhenArmed) {
  obs::FlightRecorder rec;
  MetricRegistry reg;
  EventLog log("sw0");
  obs::Emitter emitter(rec.Ring("sw0", Uid(0x10)), &log, &reg);
  EXPECT_EQ(reg.size(), 0u);  // counters register on first use

  obs::FlightEvent e;
  e.time = 40;
  e.kind = obs::FlightEventKind::kTermination;
  e.epoch = 2;
  e.a = 3;
  emitter.Emit(e);
  ASSERT_EQ(log.entries().size(), 1u);
  EXPECT_EQ(log.entries()[0].time, 40);
  EXPECT_EQ(log.entries()[0].message,
            "reconfig: root terminated epoch 2 with 3 switches");
  obs::Counter* roots = reg.GetCounter("switch.sw0.reconfig.roots_terminated");
  EXPECT_EQ(emitter.counter(obs::FlightEventKind::kTermination), roots);
  EXPECT_EQ(roots->value(), 1u);
  EXPECT_EQ(emitter.ring().total(), 0u);
  EXPECT_EQ(emitter.counter(obs::FlightEventKind::kLinkChange), nullptr);

  rec.Arm();
  e.kind = obs::FlightEventKind::kRouteInstall;
  emitter.Emit(e);
  EXPECT_EQ(log.entries().size(), 1u);  // route installs have no line
  EXPECT_EQ(reg.GetCounter("switch.sw0.fabric.table_loads")->value(), 1u);
  ASSERT_EQ(emitter.ring().depth(), 1u);
  EXPECT_EQ(emitter.ring().Last()->kind, obs::FlightEventKind::kRouteInstall);
}

// A hand-built two-switch recording: sw0 sees a link die, trips a skeptic,
// triggers epoch 5, and the epoch propagates to sw1.  Nine flight events in
// all; phases are monitor 200->1000, tree 1000->1500, fan-in 1500->2000,
// compute 2000->2100, install 2100->2300.
void RecordEpochFive(obs::FlightRecorder* rec) {
  rec->Arm();
  obs::FlightRing* sw0 = rec->Ring("sw0", Uid(0x10));
  obs::FlightRing* sw1 = rec->Ring("sw1", Uid(0x11));

  auto make_event = [](Tick t, obs::FlightEventKind kind,
                       std::uint64_t epoch) {
    obs::FlightEvent ev;
    ev.time = t;
    ev.kind = kind;
    ev.epoch = epoch;
    return ev;  // caller tweaks fields, then ring->Record
  };
  obs::FlightEvent ev;

  // Precursors carry the previous epoch's tag (4).
  ev = make_event(100, obs::FlightEventKind::kLinkChange, 4);
  ev.port = 2;
  ev.a = 0;  // down
  ev.detail = "carrier loss";
  sw0->Record(ev);
  ev = make_event(200, obs::FlightEventKind::kSkepticTrip, 4);
  ev.a = 0;  // status skeptic
  ev.b = 1;
  sw0->Record(ev);

  ev = make_event(1000, obs::FlightEventKind::kTrigger, 5);
  ev.detail = "port change";
  sw0->Record(ev);
  ev = make_event(1000, obs::FlightEventKind::kEpochJoin, 5);
  sw0->Record(ev);  // local: nil origin, port -1
  ev = make_event(1500, obs::FlightEventKind::kEpochJoin, 5);
  ev.origin = Uid(0x10);
  ev.port = 3;
  sw1->Record(ev);
  ev = make_event(2000, obs::FlightEventKind::kTermination, 5);
  ev.a = 2;
  sw0->Record(ev);
  ev = make_event(2100, obs::FlightEventKind::kConfigCompute, 5);
  sw0->Record(ev);
  // Route installs are recorded by the fabric with no epoch; the
  // reconstructor must attribute them to the latest join on the same ring.
  ev = make_event(2200, obs::FlightEventKind::kRouteInstall, 0);
  ev.a = 1;
  sw0->Record(ev);
  ev = make_event(2300, obs::FlightEventKind::kRouteInstall, 0);
  ev.a = 1;
  sw1->Record(ev);
}

// The reconstructor must recover the blame chain, the wavefront, and every
// phase duration from the recording.
TEST(PostMortem, ReconstructsBlameChainWavefrontAndPhases) {
  obs::FlightRecorder rec;
  RecordEpochFive(&rec);

  obs::PostMortem pm = obs::PostMortem::Build(rec);
  const obs::EpochTimeline* tl = pm.FindEpoch(5);
  ASSERT_NE(tl, nullptr);
  EXPECT_EQ(pm.FindEpoch(99), nullptr);

  EXPECT_EQ(tl->trigger_node, "sw0");
  EXPECT_EQ(tl->trigger_time, 1000);
  ASSERT_TRUE(tl->root_cause.has_value());
  EXPECT_EQ(tl->root_cause->ev.kind, obs::FlightEventKind::kLinkChange);
  EXPECT_EQ(tl->root_cause->ev.port, 2);
  ASSERT_TRUE(tl->first_skeptic.has_value());
  EXPECT_EQ(tl->first_skeptic->ev.time, 200);

  ASSERT_EQ(tl->wavefront.size(), 2u);
  EXPECT_EQ(tl->wavefront[0].node, "sw0");
  EXPECT_TRUE(tl->wavefront[0].from.empty());  // local trigger
  EXPECT_EQ(tl->wavefront[1].node, "sw1");
  EXPECT_EQ(tl->wavefront[1].from, "sw0");  // causal tag resolved to a name
  EXPECT_EQ(tl->wavefront[1].port, 3);

  // Phases: monitor 200->1000, tree 1000->1500, fan-in 1500->2000,
  // compute 2000->2100, install 2100->2300.
  EXPECT_EQ(tl->phases.monitor, 800);
  EXPECT_EQ(tl->phases.tree, 500);
  EXPECT_EQ(tl->phases.fanin, 500);
  EXPECT_EQ(tl->phases.compute, 100);
  EXPECT_EQ(tl->phases.install, 200);
  EXPECT_EQ(tl->termination_time, 2000);
  EXPECT_EQ(tl->route_installs, 2);

  const std::string blame = tl->BlameChain();
  EXPECT_NE(blame.find("link down at sw0 port 2 (carrier loss)"),
            std::string::npos);
  EXPECT_NE(blame.find("sw0 skeptic trip (status, level 1)"),
            std::string::npos);
  EXPECT_NE(blame.find("sw0 trigger \"port change\""), std::string::npos);
  EXPECT_NE(blame.find("2 switches joined"), std::string::npos);

  // The rendered timeline agrees with the model.
  const std::string text = pm.RenderText(true);
  EXPECT_NE(text.find("=== epoch 5"), std::string::npos);
  EXPECT_NE(text.find("<- sw0 (port 3)"), std::string::npos);
}

// An epoch whose events are out of order, as a cascade of epochs leaves
// them: its only termination precedes its last join, its configuration
// arrived before that termination, and a route install still landed in it.
// Fan-in would be negative and install would be measured from a compute
// phase that never happened; both are reported absent.
TEST(PostMortem, OutOfOrderEpochReportsImpossiblePhasesAbsent) {
  obs::FlightRecorder rec;
  rec.Arm();
  obs::FlightRing* sw0 = rec.Ring("sw0", Uid(0x10));
  obs::FlightRing* sw1 = rec.Ring("sw1", Uid(0x11));
  auto record = [](obs::FlightRing* ring, Tick t, obs::FlightEventKind kind,
                   std::uint64_t epoch) {
    obs::FlightEvent ev;
    ev.time = t;
    ev.kind = kind;
    ev.epoch = epoch;
    ring->Record(ev);
  };
  record(sw0, 1000, obs::FlightEventKind::kTrigger, 4);
  record(sw0, 1000, obs::FlightEventKind::kEpochJoin, 4);
  record(sw0, 1100, obs::FlightEventKind::kConfigRecv, 4);
  record(sw0, 1200, obs::FlightEventKind::kTermination, 4);
  record(sw1, 2000, obs::FlightEventKind::kEpochJoin, 4);
  record(sw1, 2100, obs::FlightEventKind::kRouteInstall, 0);

  obs::PostMortem pm = obs::PostMortem::Build(rec);
  const obs::EpochTimeline* tl = pm.FindEpoch(4);
  ASSERT_NE(tl, nullptr);
  EXPECT_EQ(tl->phases.tree, 1000);
  EXPECT_EQ(tl->phases.fanin, -1) << "fan-in ends before it starts";
  EXPECT_EQ(tl->phases.compute, -1);
  EXPECT_EQ(tl->phases.install, -1) << "install without a compute phase";
  EXPECT_EQ(tl->route_installs, 1);
}

// The Perfetto export of the same recording: one thread_name record per
// track, events in begin-time order with the longer one first on a tie,
// thread-scoped instants, and span durations in microseconds.
TEST(PostMortem, ChromeExportShapesEvents) {
  obs::FlightRecorder rec;
  RecordEpochFive(&rec);

  const obs::PostMortem pm = obs::PostMortem::Build(rec);
  auto doc = ParseJson(pm.ToChromeTraceJson());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::map<std::string, int> tracks;  // thread_name -> records
  std::map<std::string, double> span_dur;  // X name -> dur (us)
  std::vector<std::string> span_order;     // X names as emitted
  int instants = 0;
  double prev_ts = -1.0;
  double prev_dur = 0.0;
  for (const JsonValue& e : events->array) {
    const std::string& ph = e.Find("ph")->str;
    if (ph == "M") {
      EXPECT_EQ(e.Find("name")->str, "thread_name");
      ++tracks[e.Find("args")->Find("name")->str];
      continue;
    }
    const double ts = e.Find("ts")->number;
    double dur = 0.0;
    if (ph == "X") {
      dur = e.Find("dur")->number;
      span_dur[e.Find("name")->str] = dur;
      span_order.push_back(e.Find("name")->str);
    } else {
      EXPECT_EQ(ph, "i");
      EXPECT_EQ(e.Find("s")->str, "t");  // thread-scoped instant
      ++instants;
    }
    // Begin-time order; on a tie the longer event comes first so viewers
    // nest it around the shorter one.
    EXPECT_GE(ts, prev_ts);
    if (ts == prev_ts) {
      EXPECT_GE(prev_dur, dur) << e.Find("name")->str << " at " << ts;
    }
    prev_ts = ts;
    prev_dur = dur;
  }
  // One thread_name record per track.
  EXPECT_EQ(tracks, (std::map<std::string, int>{{"reconfig", 1},
                                                {"reconfig.phase", 1},
                                                {"sw0.flight", 1},
                                                {"sw1.flight", 1}}));
  EXPECT_EQ(instants, 9);  // one per recorded flight event
  ASSERT_TRUE(span_dur.count("epoch 5"));
  // The epoch span is widened to the monitor phase's start (200 ns), so the
  // two begin together and the longer epoch span must come first.
  EXPECT_EQ(std::find(span_order.begin(), span_order.end(), "epoch 5") + 1,
            std::find(span_order.begin(), span_order.end(), "monitor"));
  // Durations are microseconds of sim time: monitor 800 ns, tree 500 ns.
  EXPECT_DOUBLE_EQ(span_dur["monitor"], 0.8);
  EXPECT_DOUBLE_EQ(span_dur["tree"], 0.5);
  EXPECT_DOUBLE_EQ(span_dur["fan-in"], 0.5);
  EXPECT_DOUBLE_EQ(span_dur["compute"], 0.1);
  EXPECT_DOUBLE_EQ(span_dur["install"], 0.2);
}

// --- end-to-end acceptance ---

// A 3x3 torus boots with the flight recorder armed, converges, then loses
// its spanning-tree root: every surviving switch must join a fresh epoch.
// The post-mortem's Chrome trace must carry an epoch span for the boot and
// the final epoch, every switch's epoch-join for each epoch it joined,
// phase spans nested inside epoch spans, and monotonic timestamps.
TEST(Telemetry, TorusReconfigurationTraceSpans) {
  Network net(MakeTorus(3, 3, 1));
  net.sim().flight().Arm();
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(120 * kSecond));
  const std::uint64_t boot_epoch = net.autopilot_at(0).epoch();

  // Crash the root: its disappearance can never be a localizable delta.
  const Uid root_uid = net.autopilot_at(0).engine().position_root();
  int root = -1;
  for (int i = 0; i < net.num_switches(); ++i) {
    if (net.autopilot_at(i).uid() == root_uid) {
      root = i;
    }
  }
  ASSERT_GE(root, 0);
  net.CrashSwitch(root);
  ASSERT_TRUE(net.WaitForConsistency(net.sim().now() + 300 * kSecond));

  const int survivor = root == 0 ? 1 : 0;
  const std::uint64_t final_epoch = net.autopilot_at(survivor).epoch();
  EXPECT_GT(final_epoch, boot_epoch);

  const obs::PostMortem pm = obs::PostMortem::Build(net.sim().flight());
  auto doc = ParseJson(pm.ToChromeTraceJson());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::map<int, std::string> track_of;  // tid -> track name
  for (const JsonValue& ev : events->array) {
    if (ev.Find("ph")->str == "M") {
      track_of[static_cast<int>(ev.Find("tid")->number)] =
          ev.Find("args")->Find("name")->str;
    }
  }

  struct Span {
    double ts = 0;
    double dur = 0;
  };
  std::map<std::string, Span> epoch_spans;  // name -> span
  std::vector<std::pair<std::string, Span>> phase_spans;
  std::map<std::string, std::vector<double>> joins;  // track -> join ts
  double last_ts = -1.0;
  for (const JsonValue& ev : events->array) {
    const std::string& ph = ev.Find("ph")->str;
    if (ph == "M") {
      continue;
    }
    const double ts = ev.Find("ts")->number;
    // Events are exported in begin-time order: monotonic timestamps.
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    const std::string& track =
        track_of[static_cast<int>(ev.Find("tid")->number)];
    const std::string& name = ev.Find("name")->str;
    if (ph == "i") {
      if (name.rfind("epoch-join", 0) == 0) {
        joins[track].push_back(ts);
      }
      continue;
    }
    ASSERT_EQ(ph, "X");
    Span span{ts, ev.Find("dur")->number};
    EXPECT_GE(span.dur, 0.0);
    if (track == "reconfig") {
      epoch_spans[name] = span;
    } else {
      EXPECT_EQ(track, "reconfig.phase");
      phase_spans.emplace_back(name, span);
    }
  }

  for (std::uint64_t epoch : {boot_epoch, final_epoch}) {
    const std::string name = "epoch " + std::to_string(epoch);
    SCOPED_TRACE(name);
    EXPECT_TRUE(epoch_spans.count(name));
    const obs::EpochTimeline* tl = pm.FindEpoch(epoch);
    ASSERT_NE(tl, nullptr);
    // Everyone joined the boot epoch, and every survivor joined the final
    // one; each join is an epoch-join instant on that switch's track.
    for (int i = 0; i < net.num_switches(); ++i) {
      if (epoch == final_epoch && i == root) {
        continue;
      }
      const std::string node = "sw" + std::to_string(i);
      auto hop = std::find_if(
          tl->wavefront.begin(), tl->wavefront.end(),
          [&](const obs::WavefrontHop& h) { return h.node == node; });
      ASSERT_NE(hop, tl->wavefront.end()) << node;
      const std::vector<double>& at = joins[node + ".flight"];
      const double ts = static_cast<double>(hop->time) / 1000.0;
      EXPECT_TRUE(std::any_of(at.begin(), at.end(), [&](double t) {
        return std::abs(t - ts) < 1e-6;
      })) << node << " has no epoch-join at " << ts;
    }
  }

  // Every phase span nests inside some epoch span.
  EXPECT_FALSE(phase_spans.empty());
  for (const auto& [name, p] : phase_spans) {
    bool nested = false;
    for (const auto& [epoch, e] : epoch_spans) {
      if (e.ts <= p.ts + 1e-9 && p.ts + p.dur <= e.ts + e.dur + 1e-9) {
        nested = true;
        break;
      }
    }
    EXPECT_TRUE(nested) << name << " at " << p.ts << " not nested";
  }
}

// From a host on one switch, fetch another switch's reconfiguration
// counters over SRP and check them against that switch's actual registry.
TEST(Telemetry, SrpGetStatsFetchesRemoteCounters) {
  Network net(MakeTorus(3, 3, 1));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(120 * kSecond));
  ASSERT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond));

  SrpClient client(&net.driver_at(0));
  auto entries = client.CrawlTopology();
  ASSERT_FALSE(entries.empty());
  // The BFS crawl ends at the most distant switch; it is not the local one.
  const auto& far = entries.back();
  ASSERT_FALSE(far.route.empty());

  auto stats = client.GetStats(far.route, "reconfig.");
  ASSERT_TRUE(stats.has_value());
  ASSERT_FALSE(stats->empty());

  // Ground truth: the remote switch's own registry entry.
  int remote = -1;
  for (int i = 0; i < net.num_switches(); ++i) {
    if (net.switch_at(i).uid() == far.state.uid) {
      remote = i;
    }
  }
  ASSERT_GE(remote, 0);
  const std::string full_name = "switch." + net.switch_at(remote).name() +
                                ".reconfig.epochs_joined";
  const MetricRegistry::Entry* truth = net.sim().metrics().Find(full_name);
  ASSERT_NE(truth, nullptr);

  bool found = false;
  for (const auto& s : *stats) {
    EXPECT_NE(s.name.find("reconfig."), std::string::npos);
    if (s.name == "reconfig.epochs_joined") {
      found = true;
      EXPECT_EQ(s.kind, MetricKind::kCounter);
      EXPECT_EQ(s.counter, truth->counter.value());
      EXPECT_GE(s.counter, 1u);
    }
  }
  EXPECT_TRUE(found);
}

// GetStats also serves the flight recorder's synthetic depth/truncated
// counters.  With a deliberately tiny ring the boot reconfiguration
// overflows it, and the remotely fetched accounting must match the ring's
// ground truth exactly: depth capped at capacity, truncated = total - depth.
TEST(Telemetry, SrpGetStatsServesFlightRecorderAccounting) {
  Network net(MakeTorus(3, 3, 1));
  net.sim().flight().Arm(8);
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(120 * kSecond));
  ASSERT_TRUE(net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond));

  SrpClient client(&net.driver_at(0));
  auto entries = client.CrawlTopology();
  ASSERT_FALSE(entries.empty());
  const auto& far = entries.back();
  ASSERT_FALSE(far.route.empty());

  auto stats = client.GetStats(far.route, "flight.");
  ASSERT_TRUE(stats.has_value());

  // Ground truth: the remote switch's own ring.
  int remote = -1;
  for (int i = 0; i < net.num_switches(); ++i) {
    if (net.switch_at(i).uid() == far.state.uid) {
      remote = i;
    }
  }
  ASSERT_GE(remote, 0);
  const obs::FlightRing* ring =
      net.sim().flight().Find(net.switch_at(remote).name());
  ASSERT_NE(ring, nullptr);
  // Boot reconfiguration writes far more than 8 events per switch: the
  // ring wrapped, and the wrap is visible in the accounting.
  EXPECT_EQ(ring->depth(), 8u);
  EXPECT_GT(ring->truncated(), 0u);
  EXPECT_EQ(ring->total(), ring->depth() + ring->truncated());

  std::uint64_t depth = 0;
  std::uint64_t truncated = 0;
  bool saw_depth = false;
  bool saw_truncated = false;
  for (const auto& s : *stats) {
    if (s.name == "flight.depth") {
      saw_depth = true;
      EXPECT_EQ(s.kind, MetricKind::kCounter);
      depth = s.counter;
    } else if (s.name == "flight.truncated") {
      saw_truncated = true;
      EXPECT_EQ(s.kind, MetricKind::kCounter);
      truncated = s.counter;
    }
  }
  ASSERT_TRUE(saw_depth);
  ASSERT_TRUE(saw_truncated);
  EXPECT_EQ(depth, ring->depth());
  EXPECT_EQ(truncated, ring->truncated());
}

// The registry view of a live network: booting a torus populates fabric,
// link, reconfig, and host cache metrics under the documented name scheme.
TEST(Telemetry, NetworkSnapshotCoversSubsystems) {
  Network net(MakeTorus(3, 3, 1));
  net.Boot();
  ASSERT_TRUE(net.WaitForConsistency(120 * kSecond));

  auto doc = ParseJson(net.DumpMetricsJson());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);

  const JsonValue* joined =
      counters->Find("switch.sw0.reconfig.epochs_joined");
  ASSERT_NE(joined, nullptr);
  EXPECT_GE(joined->number, 1.0);
  const JsonValue* forwarded =
      counters->Find("switch.sw0.fabric.packets_forwarded");
  ASSERT_NE(forwarded, nullptr);
  EXPECT_GE(forwarded->number, 1.0);

  // Control traffic has exercised the FIFOs: some high-water gauge moved.
  bool fifo_moved = false;
  net.sim().metrics().Visit(
      "switch.sw0.fabric.port", [&](const MetricRegistry::Entry& e) {
        fifo_moved = fifo_moved || e.gauge.value() > 0;
      });
  EXPECT_TRUE(fifo_moved);

  // The global epoch-duration histogram saw every completed epoch.
  const JsonValue* epoch_ms =
      doc->Find("histograms")->Find("autopilot.reconfig.epoch_ms");
  ASSERT_NE(epoch_ms, nullptr);
  EXPECT_GE(epoch_ms->Find("count")->number, 1.0);
}

}  // namespace
}  // namespace autonet
