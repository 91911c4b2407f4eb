// Post-mortem reconstruction of reconfiguration runs from the flight
// recorder (src/obs/flight.h): stitches the per-switch rings into a
// network-wide timeline, one entry per epoch, each carrying
//
//   * a blame chain — the root-cause link or skeptic event on the
//     triggering switch, the trigger itself, and the epoch wavefront
//     (every switch's join, hop by hop, with the neighbor that carried
//     the epoch to it);
//   * a phase breakdown — how long the epoch spent in monitoring
//     hold-down, tree construction (the join wavefront), topology-report
//     fan-in, route computation, and route installation;
//   * the full time-sorted event list across all switches.
//
// The reconstruction is read-only over the recorder and deterministic:
// events are ordered by (time, node name, ring position).  Renderers
// produce a human text report and the repo's only Perfetto-compatible
// Chrome trace, and the chaos runner attaches the per-epoch summaries to
// failed-oracle entries.
#ifndef SRC_OBS_POSTMORTEM_H_
#define SRC_OBS_POSTMORTEM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/obs/flight.h"

namespace autonet {
namespace obs {

// A flight event paired with the switch whose ring recorded it.
struct PostMortemEvent {
  std::string node;
  Uid node_uid;
  FlightEvent ev;
};

// One hop of the epoch wavefront: `node` joined the epoch at `time`,
// carried there by a message from `from` (empty for the local trigger)
// arriving on `port`.
struct WavefrontHop {
  Tick time = 0;
  std::string node;
  std::string from;
  std::int16_t port = -1;
};

// Durations of the convergence phases of one epoch, in ns of sim time.
// -1 marks a phase whose boundary events were never recorded (the epoch
// was superseded before reaching it, or the cause predates the rings).
struct PhaseBreakdown {
  Tick monitor = -1;  // root-cause fault -> trigger (skeptic hold-down)
  Tick tree = -1;     // first join -> last join (the wavefront)
  Tick fanin = -1;    // last join -> root termination (report fan-in)
  Tick compute = -1;  // termination -> last route computation queued
  Tick install = -1;  // -> last forwarding-table load of the epoch
  Tick total = 0;     // first event -> last event of the epoch
};

// Everything reconstructed about one epoch.
struct EpochTimeline {
  std::uint64_t epoch = 0;
  Tick begin = 0;  // first event attributed to the epoch
  Tick end = 0;    // last event

  // Blame chain, root cause first.
  std::string trigger_node;           // switch whose trigger started the epoch
  std::string trigger_reason;
  Tick trigger_time = -1;
  std::optional<PostMortemEvent> root_cause;   // link change behind the trigger
  std::optional<PostMortemEvent> first_skeptic;  // hold-down that gated it

  std::vector<WavefrontHop> wavefront;  // kEpochJoin events, time-sorted
  PhaseBreakdown phases;
  Tick termination_time = -1;  // root termination, -1 if never reached
  std::size_t switches_joined = 0;
  std::size_t route_installs = 0;

  std::vector<PostMortemEvent> events;  // every event, time-sorted

  // One-line blame chain, e.g.
  // "link down at s2 port 3 (cable cut) -> s2 skeptic level 2 ->
  //  s2 trigger 'port down' -> 5 switches in 3.2ms".
  std::string BlameChain() const;
};

// The reconstruction.  Build once from a (typically disarmed) recorder
// after the run of interest; the result owns copies of everything.
class PostMortem {
 public:
  static PostMortem Build(const FlightRecorder& recorder);

  const std::vector<EpochTimeline>& epochs() const { return epochs_; }
  // The timeline for one epoch, or nullptr.
  const EpochTimeline* FindEpoch(std::uint64_t epoch) const;

  // Human report: per-epoch blame chain, wavefront, and phase breakdown.
  // With `with_events` every reconstructed event is listed.
  std::string RenderText(bool with_events = false) const;
  std::string RenderEpochText(const EpochTimeline& tl,
                              bool with_events = false) const;

  // Chrome trace-event JSON (loads in Perfetto): one track per switch
  // with an instant per flight event, plus a "reconfig" track carrying
  // epoch spans subdivided into phase spans.
  std::string ToChromeTraceJson() const;

 private:
  std::vector<EpochTimeline> epochs_;
};

// "12.345ms" / "870ns" — sim-time duration for reports.
std::string FormatDurationNs(Tick ns);

}  // namespace obs
}  // namespace autonet

#endif  // SRC_OBS_POSTMORTEM_H_
