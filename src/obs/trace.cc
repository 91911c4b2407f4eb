#include "src/obs/trace.h"

#include <algorithm>

#include "src/obs/json.h"

namespace autonet {
namespace obs {

TraceRecorder::SpanId TraceRecorder::BeginSpan(const std::string& track,
                                               std::string name, Tick now) {
  if (!enabled_ || spans_.size() >= capacity_) {
    if (enabled_) {
      ++dropped_;
    }
    return 0;
  }
  TrackId(track);
  SpanId id = next_id_++;
  open_.emplace(id, spans_.size());
  spans_.push_back(Span{track, std::move(name), now, -1, false});
  return id;
}

void TraceRecorder::EndSpan(SpanId id, Tick now) {
  auto it = open_.find(id);
  if (it == open_.end()) {
    return;
  }
  spans_[it->second].end = now;
  open_.erase(it);
}

void TraceRecorder::Instant(const std::string& track, std::string name,
                            Tick now) {
  if (!enabled_ || spans_.size() >= capacity_) {
    if (enabled_) {
      ++dropped_;
    }
    return;
  }
  TrackId(track);
  spans_.push_back(Span{track, std::move(name), now, now, true});
}

void TraceRecorder::Clear() {
  spans_.clear();
  open_.clear();
  track_ids_.clear();
  dropped_ = 0;
}

int TraceRecorder::TrackId(const std::string& track) {
  auto it = track_ids_.find(track);
  if (it != track_ids_.end()) {
    return it->second;
  }
  int id = static_cast<int>(track_ids_.size()) + 1;
  track_ids_.emplace(track, id);
  return id;
}

std::string TraceRecorder::ToChromeTraceJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();

  // Thread-name metadata: one Perfetto track per recorder track.
  for (const auto& [track, tid] : track_ids_) {
    w.BeginObject();
    w.Key("ph").String("M");
    w.Key("name").String("thread_name");
    w.Key("pid").Int(1);
    w.Key("tid").Int(tid);
    w.Key("args").BeginObject().Key("name").String(track).EndObject();
    w.EndObject();
  }

  // Emit spans sorted by (begin, -duration) so complete events with equal
  // start times nest outer-first in viewers.
  std::vector<const Span*> order;
  order.reserve(spans_.size());
  for (const Span& s : spans_) {
    order.push_back(&s);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Span* a, const Span* b) {
                     if (a->begin != b->begin) {
                       return a->begin < b->begin;
                     }
                     return (a->end - a->begin) > (b->end - b->begin);
                   });

  for (const Span* s : order) {
    auto tid = track_ids_.find(s->track);
    w.BeginObject();
    w.Key("name").String(s->name);
    w.Key("pid").Int(1);
    w.Key("tid").Int(tid == track_ids_.end() ? 0 : tid->second);
    w.Key("ts").Number(static_cast<double>(s->begin) / 1000.0);
    if (s->instant) {
      w.Key("ph").String("i");
      w.Key("s").String("t");  // thread-scoped instant
    } else if (s->open()) {
      w.Key("ph").String("B");
    } else {
      w.Key("ph").String("X");
      w.Key("dur").Number(static_cast<double>(s->end - s->begin) / 1000.0);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

bool TraceRecorder::WriteChromeTraceFile(const std::string& path) const {
  return WriteFile(path, ToChromeTraceJson());
}

}  // namespace obs
}  // namespace autonet
