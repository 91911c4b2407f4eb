#include "src/obs/flight.h"

#include <cstdio>
#include <iterator>

namespace autonet {
namespace obs {

namespace {

using Ull = unsigned long long;

// What each kind renders and counts, in FlightEventKind order.
struct KindRow {
  const char* name;
  // The section 6.7 EventLog line, or nullptr for kinds only the ring holds.
  int (*render)(const FlightEvent& e, char* buf, std::size_t size);
  // Registry counter under "switch.<node>.", or nullptr.
  const char* counter;
};

constexpr KindRow kKinds[] = {
    {"skeptic-trip", nullptr, nullptr},
    {"port-transition",
     [](const FlightEvent& e, char* buf, std::size_t size) {
       return std::snprintf(buf, size, "port %d: %s -> %s (%s)", e.port,
                            e.from, e.to, e.detail);
     },
     nullptr},
    {"link-change", nullptr, nullptr},
    {"trigger", nullptr, "reconfig.triggers"},
    {"epoch-join",
     [](const FlightEvent& e, char* buf, std::size_t size) {
       return std::snprintf(buf, size, "reconfig: join epoch %llu (%s)",
                            Ull{e.epoch}, e.detail);
     },
     "reconfig.epochs_joined"},
    {"epoch-held",
     [](const FlightEvent& e, char* buf, std::size_t size) {
       return std::snprintf(buf, size,
                            "reconfig: holding suspect epoch %llu (current "
                            "%llu) for confirmation",
                            Ull{e.epoch}, Ull{e.b});
     },
     "reconfig.suspect_epochs_held"},
    {"epoch-rejected",
     [](const FlightEvent& e, char* buf, std::size_t size) {
       return std::snprintf(buf, size,
                            "reconfig: ignored implausible epoch %llu "
                            "(current %llu)",
                            Ull{e.epoch}, Ull{e.b});
     },
     nullptr},
    {"position-change",
     [](const FlightEvent& e, char* buf, std::size_t size) {
       return std::snprintf(buf, size,
                            "reconfig: position root=%llx level=%d "
                            "parent-port=%d",
                            Ull{e.origin.value()}, static_cast<int>(e.a),
                            e.port);
     },
     nullptr},
    {"report-send",
     [](const FlightEvent& e, char* buf, std::size_t size) {
       return std::snprintf(buf, size,
                            "reconfig: stable, reporting %llu switches to "
                            "port %d",
                            Ull{e.a}, e.port);
     },
     nullptr},
    {"report-recv", nullptr, nullptr},
    {"termination",
     [](const FlightEvent& e, char* buf, std::size_t size) {
       return std::snprintf(buf, size,
                            "reconfig: root terminated epoch %llu with %d "
                            "switches",
                            Ull{e.epoch}, static_cast<int>(e.a));
     },
     "reconfig.roots_terminated"},
    {"config-recv", nullptr, nullptr},
    {"config-compute", nullptr, nullptr},
    {"route-install", nullptr, "fabric.table_loads"},
    {"epoch-resync",
     [](const FlightEvent& e, char* buf, std::size_t size) {
       return std::snprintf(buf, size,
                            "reconfig: epoch register %llu implausibly ahead "
                            "of neighbors (%llu); resyncing",
                            Ull{e.epoch}, Ull{e.a});
     },
     "reconfig.epoch_resyncs"},
    {"adversary", nullptr, nullptr},
};
static_assert(std::size(kKinds) == kFlightEventKinds);

const KindRow& RowOf(FlightEventKind kind) {
  return kKinds[static_cast<std::size_t>(kind)];
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) {
  return static_cast<std::size_t>(kind) < kFlightEventKinds
             ? RowOf(kind).name
             : "unknown";
}

bool RenderFlightEvent(const FlightEvent& e, char* buf, std::size_t size) {
  const KindRow& row = RowOf(e.kind);
  if (row.render == nullptr) {
    return false;
  }
  row.render(e, buf, size);
  return true;
}

void Emitter::Emit(const FlightEvent& e) {
  ring_->Record(e);
  char line[256];
  if (log_->enabled() && RenderFlightEvent(e, line, sizeof(line))) {
    log_->Log(e.time, line);
  }
  if (Counter* c = counter(e.kind)) {
    c->Increment();
  }
}

Counter* Emitter::counter(FlightEventKind kind) {
  Counter*& c = counters_[static_cast<std::size_t>(kind)];
  const char* name = RowOf(kind).counter;
  if (c == nullptr && name != nullptr) {
    c = metrics_->GetCounter("switch." + log_->node_name() + "." + name);
  }
  return c;
}

std::vector<FlightEvent> FlightRing::Chronological() const {
  std::vector<FlightEvent> out;
  out.reserve(events_.size());
  for (std::size_t i = head_; i < events_.size(); ++i) {
    out.push_back(events_[i]);
  }
  for (std::size_t i = 0; i < head_; ++i) {
    out.push_back(events_[i]);
  }
  return out;
}

void FlightRecorder::Arm(std::size_t ring_capacity) {
  armed_ = true;
  ring_capacity_ = ring_capacity == 0 ? 1 : ring_capacity;
  for (auto& [name, ring] : rings_) {
    ring->Reset(ring_capacity_);
  }
}

FlightRing* FlightRecorder::Ring(const std::string& node, Uid uid) {
  auto it = rings_.find(node);
  if (it != rings_.end()) {
    return it->second.get();
  }
  auto ring = std::unique_ptr<FlightRing>(
      new FlightRing(node, uid, &armed_, ring_capacity_));
  FlightRing* raw = ring.get();
  rings_.emplace(node, std::move(ring));
  return raw;
}

const FlightRing* FlightRecorder::Find(const std::string& node) const {
  auto it = rings_.find(node);
  return it == rings_.end() ? nullptr : it->second.get();
}

}  // namespace obs
}  // namespace autonet
