// Autopilot, the switch control program (section 5.4): monitors the
// physical condition of the switch's ports, triggers and executes the
// distributed reconfiguration algorithm, answers host short-address
// requests, and serves the SRP debugging protocol.  One instance runs per
// switch, driving the switch solely through the control-processor
// interface, with all work serialized through a single-CPU cost model (the
// 12.5 MHz 68000).
#ifndef SRC_AUTOPILOT_AUTOPILOT_H_
#define SRC_AUTOPILOT_AUTOPILOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/autopilot/config.h"
#include "src/autopilot/messages.h"
#include "src/autopilot/port_state.h"
#include "src/autopilot/reconfig.h"
#include "src/autopilot/skeptic.h"
#include "src/fabric/switch.h"
#include "src/routing/topology.h"
#include "src/sim/timer.h"

namespace autonet {

// --- skeptics (section 6.5.5) ---
// Status skeptic: error-free period required before s.dead -> s.checking;
// doubles on each relapse up to the max, shrinks after good service.
inline constexpr Tick kStatusHolddownBase = 20 * kMillisecond;
// Connectivity skeptic: period of good probe responses required before
// s.switch.who -> s.switch.good.
inline constexpr Tick kConnHolddownBase = 25 * kMillisecond;
// Clean service for this long earns one holddown level back.
inline constexpr Tick kSkepticForgiveness = 10 * kSecond;

class Autopilot {
 public:
  struct Stats {
    std::uint64_t probes_sent = 0;
    std::uint64_t probe_timeouts = 0;
    std::uint64_t crc_errors = 0;
    std::uint64_t tables_loaded = 0;
    Tick last_table_load = -1;
    std::uint64_t port_deaths = 0;
  };

  Autopilot(Switch* node, AutopilotConfig config);

  // Powers up the control program: loads the one-hop table, begins
  // monitoring, and schedules the initial reconfiguration.
  void Boot();

  // Powers the control processor off: monitoring stops and all queued CPU
  // work is abandoned.  The harness uses this to model a switch crash; a
  // restart constructs a fresh Autopilot (the ROM boot path).
  void Shutdown();

  // --- introspection (used by tests, benches, and the Network harness) ---
  PortState port_state(PortNum p) const { return monitors_[p].state; }
  Uid neighbor_uid(PortNum p) const { return monitors_[p].neighbor_uid; }
  PortNum neighbor_port(PortNum p) const { return monitors_[p].neighbor_port; }
  std::uint64_t epoch() const { return engine_.epoch(); }
  bool reconfig_in_progress() const { return engine_.in_progress(); }
  SwitchNum switch_num() const { return switch_num_; }
  const std::optional<NetTopology>& topology() const { return topology_; }
  ReconfigEngine& engine() { return engine_; }
  const Stats& stats() const { return stats_; }
  Switch* node() { return node_; }
  Uid uid() const { return node_->uid(); }
  EventLog& log() { return node_->log(); }
  const AutopilotConfig& config() const { return config_; }

  // Idle means no reconfiguration in progress and no control-processor work
  // queued — the harness uses this to detect convergence.
  bool Quiescent() const;

  // Timestamp of the most recent control-plane or monitoring activity:
  // epoch joins, table loads, port state transitions, probe streak starts,
  // and queued CPU work.  The harness treats the network as converged when
  // this stops advancing.
  Tick LastActivity() const;

  // --- fault-injection surface (see src/adversary/) ---
  // Each Corrupt* overwrites a raw state register the way a memory fault
  // would, bypassing every transition path (no log line, no flight event,
  // no engine notification).  Recovery must come from the control program's
  // own monitoring: the status sampler and probes reclassify a lying port
  // state, the skeptic Repair clamp bounds corrupt hysteresis registers.
  void CorruptPortState(PortNum p, PortState s) { monitors_[p].state = s; }
  void CorruptSkeptic(PortNum p, bool connectivity, int level,
                      Tick last_event) {
    Skeptic& s = connectivity ? monitors_[p].conn_skeptic
                              : monitors_[p].status_skeptic;
    s.CorruptState(level, last_event);
  }
  int skeptic_level(PortNum p, bool connectivity) const {
    return connectivity ? monitors_[p].conn_skeptic.level()
                        : monitors_[p].status_skeptic.level();
  }

 private:
  // The reconfiguration engine calls the table loads, port queries and
  // SendReconfig below directly.
  friend class ReconfigEngine;

  struct PortMonitor {
    PortState state = PortState::kDead;
    Tick state_since = 0;
    Tick clean_since = 0;  // last time bad status was seen (s.dead)
    Skeptic status_skeptic;
    Skeptic conn_skeptic;
    int blocked_intervals = 0;  // stop-directive-only sampling intervals
    int stuck_intervals = 0;    // data pending but no progress
    std::uint32_t pending_crc_errors = 0;

    // Connectivity monitor state.
    Uid neighbor_uid;
    PortNum neighbor_port = -1;
    std::uint64_t probe_seq = 0;
    bool probe_outstanding = false;
    Tick probe_sent_at = 0;
    Tick last_probe_at = -1;
    int probe_misses = 0;
    Tick good_streak_start = -1;

    PortMonitor(const AutopilotConfig& cfg)
        : status_skeptic(kStatusHolddownBase, cfg.status_holddown_max,
                         kSkepticForgiveness),
          conn_skeptic(kConnHolddownBase, cfg.conn_holddown_max,
                       kSkepticForgiveness) {}
  };

  // Single-CPU cost model: work items occupy the control processor for
  // `cost` and run when the CPU gets to them.
  void RunOnCpu(Tick cost, std::function<void()> fn);
  // Builds and transmits one control-processor packet once the CPU has
  // spent cost_packet_send on it.  `sent_at`, when non-null, is set to the
  // transmission time.
  void SendCpPacket(ShortAddress dest, ShortAddress src, PacketType type,
                    std::vector<std::uint8_t> payload,
                    Tick* sent_at = nullptr);

  void OnCpPacket(Delivery delivery);
  void HandleReconfig(const Delivery& d);
  void HandleConnectivity(const Delivery& d);
  void HandleHostAddress(const Delivery& d);
  void HandleSrp(const Delivery& d);

  void SampleStatus();
  void SamplePort(PortNum p, const PortStatus& snap);
  void ScrubTable();
  void ProbePorts();
  void SendProbe(PortNum p);
  void OnProbeReply(PortNum p, const ConnectivityMsg& msg);

  void TransitionPort(PortNum p, PortState next, const char* reason);
  void FailPort(PortNum p, const char* reason);
  PortVector HostPorts() const;
  std::vector<PortNum> GoodPorts() const;

  // Queues a reconfiguration message out port `p` (SendCpPacket applies
  // the CPU's send cost).
  void SendReconfig(PortNum p, const ReconfigMsg& msg);
  void LoadOneHopTable();
  void ApplyConfig(const NetTopology& topo, int self_index,
                   std::uint64_t epoch);
  void PatchLocalTable(const char* reason);
  // Loads a computed (not one-hop) table, makes it the scrubber's image and
  // counts it in stats_.
  void InstallTable(const ForwardingTable& table);

  Switch* node_;
  AutopilotConfig config_;
  ReconfigEngine engine_;
  std::vector<PortMonitor> monitors_;
  PeriodicTask sampler_task_;
  PeriodicTask probe_task_;
  Timer boot_trigger_;

  Tick cpu_busy_until_ = 0;
  std::size_t cpu_queue_depth_ = 0;
  // Cleared on Shutdown so queued CPU work becomes a no-op even if this
  // object is later destroyed while events remain scheduled.
  std::shared_ptr<bool> powered_ = std::make_shared<bool>(true);

  // Configuration state from the last completed reconfiguration.
  SwitchNum switch_num_ = 0;
  std::optional<NetTopology> topology_;
  int self_index_ = -1;

  // Table scrubber: the image the control program last loaded into the
  // switch.  Every kScrubSampleStride status samples the live table is
  // compared against it; software never diverges them, so a mismatch is a
  // memory fault and the image is reloaded (see ScrubTable).
  static constexpr int kScrubSampleStride = 16;
  ForwardingTable expected_table_;
  int scrub_stride_ = 0;
  obs::Counter* m_table_scrub_repairs_ = nullptr;

  Stats stats_;
};

}  // namespace autonet

#endif  // SRC_AUTOPILOT_AUTOPILOT_H_
