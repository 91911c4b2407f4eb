#include "src/obs/postmortem.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "src/obs/json.h"

namespace autonet {
namespace obs {

namespace {

std::string FormatTimeNs(Tick ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "t=%.3fms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

bool IsPrecursorKind(FlightEventKind kind) {
  return kind == FlightEventKind::kLinkChange ||
         kind == FlightEventKind::kSkepticTrip;
}

// Chrome trace-event JSON of complete ("X") spans and thread-scoped
// instants on named tracks.  Track ids follow first use, and Perfetto
// names each track from its thread_name record.  Timestamps are
// microseconds of simulated time.
class ChromeTrace {
 public:
  void Span(const std::string& track, std::string name, Tick begin,
            Tick end) {
    events_.push_back(Event{Track(track), std::move(name), begin, end, false});
  }
  void Instant(const std::string& track, std::string name, Tick at) {
    events_.push_back(Event{Track(track), std::move(name), at, at, true});
  }

  std::string ToJson() {
    JsonWriter w;
    w.BeginObject();
    w.Key("displayTimeUnit").String("ms");
    w.Key("traceEvents").BeginArray();
    for (const auto& [track, tid] : tracks_) {
      w.BeginObject();
      w.Key("ph").String("M");
      w.Key("name").String("thread_name");
      w.Key("pid").Int(1);
      w.Key("tid").Int(tid);
      w.Key("args").BeginObject().Key("name").String(track).EndObject();
      w.EndObject();
    }
    // By begin time, longer first, so equal-start spans nest outer-first.
    std::stable_sort(events_.begin(), events_.end(),
                     [](const Event& a, const Event& b) {
                       if (a.begin != b.begin) {
                         return a.begin < b.begin;
                       }
                       return a.end - a.begin > b.end - b.begin;
                     });
    for (const Event& e : events_) {
      w.BeginObject();
      w.Key("name").String(e.name);
      w.Key("pid").Int(1);
      w.Key("tid").Int(e.tid);
      w.Key("ts").Number(static_cast<double>(e.begin) / 1000.0);
      if (e.instant) {
        w.Key("ph").String("i");
        w.Key("s").String("t");
      } else {
        w.Key("ph").String("X");
        w.Key("dur").Number(static_cast<double>(e.end - e.begin) / 1000.0);
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    return w.Take();
  }

 private:
  struct Event {
    int tid;
    std::string name;
    Tick begin;
    Tick end;
    bool instant;
  };

  int Track(const std::string& track) {
    return tracks_.try_emplace(track, static_cast<int>(tracks_.size()) + 1)
        .first->second;
  }

  std::map<std::string, int> tracks_;  // name -> tid
  std::vector<Event> events_;
};

}  // namespace

std::string FormatDurationNs(Tick ns) {
  if (ns < 0) {
    return "n/a";
  }
  char buf[64];
  if (ns < 10 * kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns));
  } else if (ns < 10 * kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.1fus",
                  static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fms",
                  static_cast<double>(ns) / 1e6);
  }
  return buf;
}

std::string EpochTimeline::BlameChain() const {
  std::string out;
  if (root_cause.has_value()) {
    const FlightEvent& rc = root_cause->ev;
    out += "link ";
    out += rc.a != 0 ? "up" : "down";
    out += " at " + root_cause->node + " port " + std::to_string(rc.port);
    if (rc.detail[0] != '\0') {
      out += std::string(" (") + rc.detail + ")";
    }
    out += " " + FormatTimeNs(rc.time);
  }
  if (first_skeptic.has_value()) {
    const FlightEvent& sk = first_skeptic->ev;
    if (!out.empty()) {
      out += " -> ";
    }
    out += first_skeptic->node + " skeptic trip (";
    out += sk.a == 0 ? "status" : "conn";
    out += ", level " + std::to_string(sk.b) + ") " + FormatTimeNs(sk.time);
  }
  if (!trigger_node.empty()) {
    if (!out.empty()) {
      out += " -> ";
    }
    out += trigger_node + " trigger \"" + trigger_reason + "\" " +
           FormatTimeNs(trigger_time);
  }
  if (out.empty()) {
    out = "no trigger recorded";
  }
  if (!wavefront.empty()) {
    out += " -> " + std::to_string(wavefront.size()) + " switch" +
           (wavefront.size() == 1 ? "" : "es") + " joined";
    if (wavefront.size() > 1) {
      out += " within " +
             FormatDurationNs(wavefront.back().time - wavefront.front().time);
    }
  }
  return out;
}

PostMortem PostMortem::Build(const FlightRecorder& recorder) {
  // Per-switch chronological event lists and a uid -> node name map for
  // resolving causal tags.
  struct RingEvents {
    std::string node;
    Uid uid;
    std::vector<FlightEvent> events;
  };
  std::vector<RingEvents> rings;
  std::unordered_map<std::uint64_t, std::string> uid_to_node;
  recorder.Visit([&](const FlightRing& ring) {
    rings.push_back({ring.node(), ring.uid(), ring.Chronological()});
    uid_to_node[ring.uid().value()] = ring.node();
  });

  // Route installs are recorded by the fabric switch, which does not know
  // the reconfiguration epoch: attribute each to the latest epoch join at
  // or before it on the same ring.
  for (RingEvents& r : rings) {
    std::uint64_t current = 0;
    for (FlightEvent& ev : r.events) {
      if (ev.kind == FlightEventKind::kEpochJoin) {
        current = ev.epoch;
      } else if (ev.kind == FlightEventKind::kRouteInstall) {
        ev.epoch = current;
      }
    }
  }

  // Global order: (time, node name, ring position).  Ring position is
  // implied by a stable sort over per-ring chronological lists.
  std::vector<PostMortemEvent> all;
  for (const RingEvents& r : rings) {
    for (const FlightEvent& ev : r.events) {
      all.push_back({r.node, r.uid, ev});
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const PostMortemEvent& a, const PostMortemEvent& b) {
                     if (a.ev.time != b.ev.time) {
                       return a.ev.time < b.ev.time;
                     }
                     return a.node < b.node;
                   });

  // Group by epoch.
  std::map<std::uint64_t, EpochTimeline> by_epoch;
  for (const PostMortemEvent& pe : all) {
    EpochTimeline& tl = by_epoch[pe.ev.epoch];
    if (tl.events.empty()) {
      tl.epoch = pe.ev.epoch;
      tl.begin = pe.ev.time;
    }
    tl.end = pe.ev.time;
    tl.events.push_back(pe);
  }

  PostMortem pm;
  for (auto& [epoch, tl] : by_epoch) {
    // Trigger: the earliest kTrigger of the epoch (ties broken by the
    // deterministic global order).
    for (const PostMortemEvent& pe : tl.events) {
      if (pe.ev.kind == FlightEventKind::kTrigger) {
        tl.trigger_node = pe.node;
        tl.trigger_reason = pe.ev.detail;
        tl.trigger_time = pe.ev.time;
        break;
      }
    }

    // Blame chain: on the trigger switch's own ring, the nearest link
    // change and skeptic trip before (or at) the trigger.  These precursor
    // events carry the *previous* epoch's tag, so the scan runs over the
    // ring, not the epoch group.
    if (!tl.trigger_node.empty()) {
      for (const RingEvents& r : rings) {
        if (r.node != tl.trigger_node) {
          continue;
        }
        // Position of this epoch's trigger in the ring.
        std::size_t trig = r.events.size();
        for (std::size_t i = 0; i < r.events.size(); ++i) {
          if (r.events[i].kind == FlightEventKind::kTrigger &&
              r.events[i].epoch == epoch) {
            trig = i;
            break;
          }
        }
        for (std::size_t i = trig; i-- > 0;) {
          const FlightEvent& ev = r.events[i];
          if (!IsPrecursorKind(ev.kind)) {
            continue;
          }
          if (ev.kind == FlightEventKind::kLinkChange &&
              !tl.root_cause.has_value()) {
            tl.root_cause = PostMortemEvent{r.node, r.uid, ev};
          } else if (ev.kind == FlightEventKind::kSkepticTrip &&
                     !tl.first_skeptic.has_value()) {
            tl.first_skeptic = PostMortemEvent{r.node, r.uid, ev};
          }
          if (tl.root_cause.has_value() && tl.first_skeptic.has_value()) {
            break;
          }
        }
        break;
      }
    }

    // Wavefront and phase boundary marks.
    Tick last_compute = -1;
    Tick last_install = -1;
    for (const PostMortemEvent& pe : tl.events) {
      switch (pe.ev.kind) {
        case FlightEventKind::kEpochJoin: {
          WavefrontHop hop;
          hop.time = pe.ev.time;
          hop.node = pe.node;
          hop.port = pe.ev.port;
          if (!pe.ev.origin.IsNil()) {
            auto it = uid_to_node.find(pe.ev.origin.value());
            hop.from = it != uid_to_node.end() ? it->second
                                               : pe.ev.origin.ToString();
          }
          tl.wavefront.push_back(hop);
          break;
        }
        case FlightEventKind::kTermination:
          tl.termination_time = pe.ev.time;
          break;
        case FlightEventKind::kConfigCompute:
        case FlightEventKind::kConfigRecv:
          last_compute = std::max(last_compute, pe.ev.time);
          break;
        case FlightEventKind::kRouteInstall:
          last_install = std::max(last_install, pe.ev.time);
          ++tl.route_installs;
          break;
        default:
          break;
      }
    }
    tl.switches_joined = tl.wavefront.size();

    // A phase exists only when both of its marks were recorded in order;
    // an epoch whose events are out of order (one that never terminated,
    // say, while a later epoch's install was attributed to it) reports the
    // phase absent rather than a negative or unanchored span.
    auto span = [](Tick start, Tick end) {
      return start >= 0 && end >= start ? end - start : Tick{-1};
    };
    PhaseBreakdown& ph = tl.phases;
    if (tl.first_skeptic.has_value()) {
      ph.monitor = span(tl.first_skeptic->ev.time, tl.trigger_time);
    } else if (tl.root_cause.has_value()) {
      ph.monitor = span(tl.root_cause->ev.time, tl.trigger_time);
    }
    if (!tl.wavefront.empty()) {
      ph.tree = tl.wavefront.back().time - tl.wavefront.front().time;
      ph.fanin = span(tl.wavefront.back().time, tl.termination_time);
    }
    ph.compute = span(tl.termination_time, last_compute);
    if (ph.compute >= 0) {
      ph.install = span(last_compute, last_install);
    }
    ph.total = tl.end - tl.begin;

    pm.epochs_.push_back(std::move(tl));
  }
  return pm;
}

const EpochTimeline* PostMortem::FindEpoch(std::uint64_t epoch) const {
  for (const EpochTimeline& tl : epochs_) {
    if (tl.epoch == epoch) {
      return &tl;
    }
  }
  return nullptr;
}

std::string PostMortem::RenderEpochText(const EpochTimeline& tl,
                                        bool with_events) const {
  std::string out;
  out += "=== epoch " + std::to_string(tl.epoch) + ": " +
         std::to_string(tl.switches_joined) + " switch" +
         (tl.switches_joined == 1 ? "" : "es") + " joined, " +
         std::to_string(tl.events.size()) + " events, span " +
         FormatDurationNs(tl.phases.total) + " ===\n";
  out += "  blame   : " + tl.BlameChain() + "\n";
  if (!tl.wavefront.empty()) {
    out += "  wavefront:\n";
    for (const WavefrontHop& hop : tl.wavefront) {
      out += "    " + FormatTimeNs(hop.time) + "  " + hop.node;
      if (hop.from.empty()) {
        out += "  (local trigger)";
      } else {
        out += "  <- " + hop.from + " (port " + std::to_string(hop.port) + ")";
      }
      out += "\n";
    }
  }
  out += "  phases  : monitor " + FormatDurationNs(tl.phases.monitor) +
         " | tree " + FormatDurationNs(tl.phases.tree) + " | fan-in " +
         FormatDurationNs(tl.phases.fanin) + " | compute " +
         FormatDurationNs(tl.phases.compute) + " | install " +
         FormatDurationNs(tl.phases.install) + "\n";
  if (tl.termination_time >= 0) {
    out += "  outcome : root terminated " + FormatTimeNs(tl.termination_time) +
           ", " + std::to_string(tl.route_installs) + " route install" +
           (tl.route_installs == 1 ? "" : "s") + "\n";
  } else {
    out += "  outcome : never terminated (superseded or still converging)\n";
  }
  if (with_events) {
    out += "  events  :\n";
    for (const PostMortemEvent& pe : tl.events) {
      const FlightEvent& ev = pe.ev;
      out += "    " + FormatTimeNs(ev.time) + "  " + pe.node + "  " +
             FlightEventKindName(ev.kind);
      if (ev.port >= 0) {
        out += " port=" + std::to_string(ev.port);
      }
      if (ev.kind == FlightEventKind::kPortTransition) {
        out += std::string(" ") + ev.from + "->" + ev.to;
      }
      if (ev.detail[0] != '\0') {
        out += std::string(" \"") + ev.detail + "\"";
      }
      if (!ev.origin.IsNil()) {
        auto blame = ev.origin.ToString();
        out += " origin=" + blame;
      }
      out += "\n";
    }
  }
  return out;
}

std::string PostMortem::RenderText(bool with_events) const {
  if (epochs_.empty()) {
    return "flight recorder empty (was it armed?)\n";
  }
  std::string out;
  for (const EpochTimeline& tl : epochs_) {
    out += RenderEpochText(tl, with_events);
  }
  return out;
}

std::string PostMortem::ToChromeTraceJson() const {
  ChromeTrace trace;
  for (const EpochTimeline& tl : epochs_) {
    // The monitor phase begins on the previous epoch's ring (the skeptic
    // trip that gated the trigger), so the epoch span is widened to keep
    // the phase spans nested inside it.
    Tick begin = tl.begin;
    Tick monitor_start = -1;
    if (tl.phases.monitor >= 0 && tl.trigger_time >= 0) {
      monitor_start = tl.trigger_time - tl.phases.monitor;
      begin = std::min(begin, monitor_start);
    }
    trace.Span("reconfig", "epoch " + std::to_string(tl.epoch), begin, tl.end);
    auto phase = [&](const char* name, Tick from, Tick to) {
      if (from >= 0 && to >= from) {
        trace.Span("reconfig.phase", name, from, to);
      }
    };
    if (monitor_start >= 0) {
      phase("monitor", monitor_start, tl.trigger_time);
    }
    if (!tl.wavefront.empty()) {
      phase("tree", tl.wavefront.front().time, tl.wavefront.back().time);
      if (tl.termination_time >= 0) {
        phase("fan-in", tl.wavefront.back().time, tl.termination_time);
        if (tl.phases.compute >= 0) {
          phase("compute", tl.termination_time,
                tl.termination_time + tl.phases.compute);
          if (tl.phases.install >= 0) {
            phase("install", tl.termination_time + tl.phases.compute,
                  tl.termination_time + tl.phases.compute +
                      tl.phases.install);
          }
        }
      }
    }
    for (const PostMortemEvent& pe : tl.events) {
      std::string name = FlightEventKindName(pe.ev.kind);
      if (pe.ev.detail[0] != '\0') {
        name += std::string(" ") + pe.ev.detail;
      }
      trace.Instant(pe.node + ".flight", std::move(name), pe.ev.time);
    }
  }
  return trace.ToJson();
}

}  // namespace obs
}  // namespace autonet
