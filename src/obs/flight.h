// The reconfiguration flight recorder: a bounded per-switch ring buffer of
// causally-tagged control-plane events (skeptic trips, port state
// transitions, epoch adoption with the triggering message's origin,
// topology-report traffic, route installs), stamped with sim time.
//
// The recorder is DISARMED by default and recording is a single predicted
// branch per call site, so instrumented components can record
// unconditionally without perturbing timing, the event log, or the metric
// registry — the determinism goldens and chaos fingerprints are unchanged
// whether a recorder is armed or not, because recording only writes to the
// recorder's own storage.
//
// Switch, Autopilot and ReconfigEngine never touch a ring directly: each
// control-plane event goes through the switch's one Emitter, which records
// it, writes its section 6.7 text line and bumps its registry counter, as
// the kind table in flight.cc says.
//
// Each switch owns one ring (keyed by node name, shared by the Autopilot,
// its ReconfigEngine, and the fabric Switch).  Rings are fixed-capacity and
// wrap: `total` counts every event offered, `depth` what is retained, and
// `truncated = total - depth` what the wrap discarded — the accounting the
// SRP GetStats reply and netmon surface.
//
// The post-mortem reconstructor (src/obs/postmortem.h) stitches the rings
// into a network-wide per-epoch timeline.
#ifndef SRC_OBS_FLIGHT_H_
#define SRC_OBS_FLIGHT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/event_log.h"
#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/obs/metrics.h"

namespace autonet {
namespace obs {

enum class FlightEventKind : std::uint8_t {
  kSkepticTrip = 0,     // a skeptic was penalized; a=skeptic (0 status,
                        // 1 connectivity), b=holddown level after
  kPortTransition,      // port state machine moved; from/to are state names
  kLinkChange,          // usable-link-set change seen by the engine; a=up
  kTrigger,             // local reconfiguration trigger; epoch=new epoch
  kEpochJoin,           // epoch adopted; origin=sender uid (nil: local),
                        // port=inport (-1: local trigger)
  kEpochHeld,           // implausible forward jump held for confirmation;
                        // epoch=the held value, b=current epoch
  kEpochRejected,       // forward jump beyond kMaxEpochJump dropped;
                        // epoch=the dropped value, b=current epoch
  kPositionChange,      // tree position improved; a=level, origin=root uid
  kReportSend,          // stable: subtree report sent to parent; a=#records
  kReportRecv,          // topology report received; a=#records
  kTermination,         // root detected termination; a=#switches
  kConfigRecv,          // configuration received from parent
  kConfigCompute,       // route computation queued on the CP
  kRouteInstall,        // forwarding table loaded; a=1 full config, 0 one-hop
  kEpochResync,         // epoch register concluded corrupt; rejoined just
                        // above the neighbors' epoch (a=theirs)
  kAdversary,           // an adversary move against this switch; detail
                        // names the strategy (src/adversary/)
};
inline constexpr std::size_t kFlightEventKinds =
    static_cast<std::size_t>(FlightEventKind::kAdversary) + 1;

// Short stable name ("epoch-join", "route-install", ...) for rendering.
const char* FlightEventKindName(FlightEventKind kind);

struct FlightEvent {
  Tick time = 0;
  std::uint64_t epoch = 0;
  Uid origin{};         // causal tag: message sender / neighbor uid
  std::uint64_t a = 0;  // kind-specific, see FlightEventKind
  std::uint64_t b = 0;
  std::int16_t port = -1;
  FlightEventKind kind = FlightEventKind::kTrigger;
  // Static-lifetime strings only (trigger reasons, port state names): a
  // record never allocates.
  const char* detail = "";
  const char* from = "";
  const char* to = "";
};

class FlightRecorder;

// One switch's ring.  Components keep the handle returned by
// FlightRecorder::Ring and call Record unconditionally; a disarmed
// recorder makes Record a load and a branch.
class FlightRing {
 public:
  void Record(const FlightEvent& e) {
    if (!*armed_) {
      return;
    }
    if (events_.size() < capacity_) {
      events_.push_back(e);
    } else {
      events_[head_] = e;
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    }
    ++total_;
  }

  // True while the owning recorder is armed; call sites that assemble a
  // multi-field event can skip the work entirely when disarmed.
  bool armed() const { return *armed_; }

  const std::string& node() const { return node_; }
  Uid uid() const { return uid_; }
  // Events currently retained / ever offered / discarded by ring wrap.
  std::size_t depth() const { return events_.size(); }
  std::uint64_t total() const { return total_; }
  std::uint64_t truncated() const { return total_ - events_.size(); }

  // Retained events, oldest first (unwraps the ring).
  std::vector<FlightEvent> Chronological() const;

  // The newest retained event, or nullptr when empty — the cheap ring-tail
  // peek for live consumers (the chaos adversary polls this every few
  // milliseconds; Chronological() copies the whole ring).
  const FlightEvent* Last() const {
    if (events_.empty()) {
      return nullptr;
    }
    std::size_t newest = events_.size() < capacity_
                             ? events_.size() - 1
                             : (head_ == 0 ? capacity_ - 1 : head_ - 1);
    return &events_[newest];
  }

 private:
  friend class FlightRecorder;
  FlightRing(std::string node, Uid uid, const bool* armed,
             std::size_t capacity)
      : node_(std::move(node)), uid_(uid), armed_(armed),
        capacity_(capacity) {}

  void Reset(std::size_t capacity) {
    events_.clear();
    head_ = 0;
    total_ = 0;
    capacity_ = capacity;
  }

  std::string node_;
  Uid uid_;
  const bool* armed_;  // the owning recorder's armed flag
  std::size_t capacity_;
  std::size_t head_ = 0;       // oldest retained event once wrapped
  std::uint64_t total_ = 0;
  std::vector<FlightEvent> events_;
};

// The section 6.7 EventLog line of `e` into `buf` (truncated to `size`),
// or false, leaving `buf` alone, when its kind has no text line.
bool RenderFlightEvent(const FlightEvent& e, char* buf, std::size_t size);

// One switch's instrumentation point.  Emit records the event in the
// switch's ring when the recorder is armed, writes the kind's text line (if
// any) to the node's EventLog whether or not it is armed, and increments
// the kind's counter (if any) in the metric registry.
class Emitter {
 public:
  Emitter(FlightRing* ring, EventLog* log, MetricRegistry* metrics)
      : ring_(ring), log_(log), metrics_(metrics) {}

  void Emit(const FlightEvent& e);

  // True while the recorder is armed: a field that costs work to compute
  // is filled only then.
  bool armed() const { return ring_->armed(); }

  // The counter of `kind` (nullptr for kinds that count nothing),
  // registered as `switch.<node>.<table name>` on the first call.  A
  // component that wants its counter in snapshots before the first event
  // asks for it at construction; the rest appear on first use, so clean
  // runs register no new instrument.
  Counter* counter(FlightEventKind kind);

  const FlightRing& ring() const { return *ring_; }
  EventLog& log() { return *log_; }

 private:
  FlightRing* ring_;  // owned by the simulator's flight recorder
  EventLog* log_;
  MetricRegistry* metrics_;
  std::array<Counter*, kFlightEventKinds> counters_{};
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 4096;

  // Arms recording and resets every ring to `ring_capacity`.  Disarm stops
  // recording but keeps the rings for post-mortem reading.
  void Arm(std::size_t ring_capacity = kDefaultRingCapacity);
  void Disarm() { armed_ = false; }
  bool armed() const { return armed_; }

  // Create-or-get the ring for a node (never null; the recorder owns it,
  // and it outlives component restarts so a rebooted switch keeps its
  // history).
  FlightRing* Ring(const std::string& node, Uid uid);
  const FlightRing* Find(const std::string& node) const;

  // Visits rings in node-name order (deterministic).
  template <typename Fn>
  void Visit(Fn&& fn) const {
    for (const auto& [name, ring] : rings_) {
      fn(*ring);
    }
  }


 private:
  bool armed_ = false;
  std::size_t ring_capacity_ = kDefaultRingCapacity;
  // std::map: stable handle addresses and deterministic iteration order.
  std::map<std::string, std::unique_ptr<FlightRing>> rings_;
};

}  // namespace obs
}  // namespace autonet

#endif  // SRC_OBS_FLIGHT_H_
