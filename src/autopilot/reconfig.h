// The distributed reconfiguration engine (sections 4.1, 6.6): an extension
// of Perlman's spanning-tree algorithm with *termination detection*.
//
// Protocol outline, per epoch:
//   1. On a trigger the switch increments its epoch, reloads the one-hop
//      forwarding table (destroying all packets in the switch — the
//      prototype's reset-coupled reload), assumes it is the root, and sends
//      tree-position packets to every s.switch.good neighbor, reliably.
//   2. Positions improve monotonically under the ordering (root UID, level,
//      parent UID, parent port).  Acks carry the "this is now my parent
//      link" bit, so each switch knows its children.
//   3. A switch is *stable* when every neighbor has acked its current
//      position and every claiming child has delivered a topology report.
//      A stable non-root sends its parent a report containing the stable
//      subtree; a stable self-believed root has detected termination: it
//      knows the whole topology.
//   4. The root assigns switch numbers (honoring previous-epoch proposals)
//      and distributes the configuration down the tree; every switch
//      computes and loads its up*/down* forwarding table from it.
//
// Epochs (section 6.6.2): messages of an older epoch are ignored; a newer
// epoch resets the switch into that epoch.  Any change in the usable link
// set during an epoch triggers epoch+1, so each epoch operates on a frozen
// link set.  As a safety net, protocol traffic that contradicts an applied
// configuration (a fresh position or report after step 4) triggers a new
// epoch rather than being patched in place.
#ifndef SRC_AUTOPILOT_RECONFIG_H_
#define SRC_AUTOPILOT_RECONFIG_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/autopilot/config.h"
#include "src/autopilot/messages.h"
#include "src/common/event_log.h"
#include "src/common/ids.h"
#include "src/obs/flight.h"
#include "src/obs/metrics.h"
#include "src/routing/topology.h"
#include "src/sim/timer.h"

namespace autonet {

class Autopilot;

class ReconfigEngine {
 public:
  // Largest believable forward epoch jump in a received message.  A network
  // reconfiguring every 100 ms for a decade stays under 2^32 epochs, while
  // a corrupted epoch field that slipped past the CRC is uniform over 64
  // bits — beyond this distance the message is dropped as damaged rather
  // than joined (see OnMessage).
  static constexpr std::uint64_t kMaxEpochJump = std::uint64_t{1} << 32;

  // Forward jumps of exactly one epoch — the only advance a neighbor's live
  // protocol produces — are believed immediately.  Any larger jump below
  // kMaxEpochJump is *plausible* (a boot storm burning several epochs, a
  // restarted switch rejoining after the network advanced while it was
  // down) but is also exactly what a damaged epoch field that slipped past
  // the CRC looks like, so it is held until the same value is seen a second
  // time: the sender's reliable retransmission confirms a genuine message
  // within one retransmit period, while independent corruption essentially
  // never reproduces the same 64-bit value.  Held values sit in a small
  // ring (suspect_epochs_) so interleaved distinct suspects cannot evict
  // each other indefinitely.  Net effect: no single damaged field can move
  // the epoch register at all, at worst one retransmit period of added
  // latency on a genuine multi-epoch jump.
  static constexpr std::uint64_t kEpochConfirmJump = 1;

  // Snapshot of the engine's registry counters plus the raw sim-time
  // marks, assembled on demand.  The live counters are the
  // `switch.<name>.reconfig.*` instruments in the simulator's metric
  // registry — visible to JSON snapshots and the SRP GetStats query.
  struct Stats {
    std::uint64_t epochs_joined = 0;
    std::uint64_t triggers = 0;
    std::uint64_t completions = 0;   // configs applied
    std::uint64_t roots_terminated = 0;  // times this switch was the root
    std::uint64_t local_updates_applied = 0;   // minor configs applied
    std::uint64_t deltas_originated = 0;
    std::uint64_t deltas_relayed = 0;
    std::uint64_t local_fallbacks = 0;  // delta path refused; full reconfig
    std::uint64_t messages_sent = 0;
    std::uint64_t retransmissions = 0;
    Tick last_join_time = -1;
    Tick last_config_time = -1;
    Tick last_termination_time = -1;  // when this switch, as root, knew
  };

  // The engine runs inside its switch's control program and calls it
  // directly: for the epoch's participant ports and their neighbors, the
  // host ports, table loads (step 1: one-hop only; step 5: from an applied
  // configuration) and sending a message out a port.
  explicit ReconfigEngine(Autopilot* owner);

  // A relevant port state change was noticed: start a new epoch.
  void Trigger(const char* reason);
  // A switch-to-switch link became usable (up) or unusable (down) at the
  // named port.  With local reconfiguration enabled this applies the
  // change as a topology delta when it provably leaves the spanning tree
  // intact; otherwise (and by default) it triggers a full reconfiguration.
  void OnLinkStateChange(PortNum port, bool up, Uid neighbor_uid,
                         PortNum neighbor_port, const char* reason);
  void OnMessage(PortNum inport, const ReconfigMsg& msg);

  bool in_progress() const { return in_progress_; }
  std::uint64_t epoch() const { return epoch_; }
  // Reliable messages awaiting acknowledgment (0 when the protocol is
  // quiescent).
  std::size_t outstanding_count() const { return outgoing_.size(); }
  // Stops retransmission (switch power-off).
  void Shutdown();
  SwitchNum proposed_num() const { return proposed_num_; }
  Stats stats() const;

  // This switch's tree position in the current epoch (for tests).
  Uid position_root() const { return pos_root_; }
  int position_level() const { return pos_level_; }
  PortNum parent_port() const { return parent_port_; }

  // Fault-injection surface (see src/adversary/): overwrites the raw epoch
  // register the way a memory fault would, with no protocol action.
  // Recovery is OnMessage's plausibility machinery: a register driven
  // beyond its neighbors resyncs after kStaleResyncThreshold implausibly
  // stale arrivals, one driven behind rejoins via the suspect-epoch
  // confirmation path.
  void CorruptEpochRegister(std::uint64_t value) { epoch_ = value; }

 private:
  struct PortState {
    bool participant = false;
    Uid neighbor_uid;
    PortNum neighbor_port = -1;
    // Their last position.
    bool have_their_pos = false;
    Uid their_root;
    std::uint16_t their_level = 0;
    std::uint32_t their_seq = 0;
    Uid their_uid;
    // Protocol state toward them.
    bool acked_my_pos = false;
    bool claims_me = false;
    bool have_report = false;
    std::vector<SwitchRecord> report;
  };

  struct Outgoing {
    PortNum port;
    ReconfigMsg msg;
  };

  // `inport`/`origin` tag the causal source of the join for the flight
  // recorder: the port and sender UID of the message that carried the
  // higher epoch, or (-1, nil) for a locally triggered epoch.
  void JoinEpoch(std::uint64_t epoch, const char* reason, PortNum inport = -1,
                 Uid origin = Uid());
  void ReevaluatePosition();
  void SendPositionTo(PortNum port);
  void SendAckTo(PortNum port, std::uint32_t their_seq);
  // Acks a report, config, delta or minor config by its payload_seq.
  void SendPayloadAck(PortNum port, ReconfigMsg::Kind kind,
                      std::uint32_t payload_seq);
  void SendReliable(PortNum port, ReconfigMsg msg);
  void RemoveOutgoing(PortNum port, ReconfigMsg::Kind kind, std::uint32_t seq);
  void Retransmit();
  void CheckStability();
  std::vector<SwitchRecord> BuildSubtreeRecords() const;
  void Terminate();
  void Distribute(const std::vector<SwitchRecord>& records, PortNum from);
  std::uint64_t Fingerprint(const std::vector<SwitchRecord>& records) const;

  // --- local reconfiguration ---
  struct LinkDelta {
    bool add;
    Uid a_uid;
    PortNum a_port;
    Uid b_uid;
    PortNum b_port;
  };
  // True if the delta provably leaves the deterministic spanning tree of
  // the applied topology unchanged (non-tree link, level-compatible).
  bool DeltaIsLocalizable(const LinkDelta& delta) const;
  void SendDeltaTowardRoot(const LinkDelta& delta);
  // At the root: mutate the applied topology and redistribute.
  void ApplyDeltaAsRoot(const LinkDelta& delta);
  void ApplyMinorConfig(const ReconfigMsg& msg, PortNum from);

  Autopilot* owner_;
  Simulator* sim_;
  Uid self_uid_;
  const AutopilotConfig* config_;
  obs::Emitter* emit_;  // the switch's; every protocol event goes through it

  std::uint64_t epoch_ = 0;
  bool in_progress_ = false;
  bool config_applied_ = false;
  SwitchNum proposed_num_ = 1;
  // Forward jumps beyond kEpochConfirmJump awaiting their second sighting
  // (0 = empty slot), newest overwriting the oldest.  A ring rather than a
  // single register so two genuine senders retransmitting different
  // suspect epochs cannot evict each other forever.  Cleared whenever an
  // epoch is joined.
  static constexpr std::size_t kSuspectSlots = 4;
  std::array<std::uint64_t, kSuspectSlots> suspect_epochs_{};
  std::size_t suspect_next_ = 0;
  // Consecutive arrivals implausibly far below the epoch register.  The
  // stale branch can only see such a message when epoch_ itself exceeds
  // kMaxEpochJump — a value no healthy network reaches — so reaching the
  // threshold convicts the local register, not the senders, and OnMessage
  // rejoins just above the neighbors' epoch.  The threshold guards against
  // acting on a single damaged incoming field.
  static constexpr int kStaleResyncThreshold = 3;
  int implausibly_stale_ = 0;

  // Current position (self-root when pos_root_ == self_uid_).
  Uid pos_root_;
  int pos_level_ = 0;
  Uid parent_uid_;
  PortNum parent_port_ = -1;
  std::uint32_t pos_seq_ = 0;

  std::array<PortState, kPortsPerSwitch> ports_{};
  std::vector<PortNum> participants_;
  std::vector<Outgoing> outgoing_;
  PeriodicTask retransmit_task_;
  std::uint32_t payload_seq_ = 0;
  std::uint64_t last_report_fingerprint_ = 0;

  // The configuration this switch is running (set when a config or minor
  // config is applied); basis for local-reconfiguration decisions.
  std::optional<NetTopology> applied_topo_;
  std::uint32_t applied_version_ = 0;

  // Registry instruments (owned by the simulator's registry) plus the raw
  // sim-time marks that stats() folds into its snapshot.  The emitter
  // increments the epoch-join, trigger and termination counters.
  obs::Counter* m_epochs_joined_;
  obs::Counter* m_triggers_;
  obs::Counter* m_completions_;
  obs::Counter* m_roots_terminated_;
  obs::Counter* m_local_updates_applied_;
  obs::Counter* m_deltas_originated_;
  obs::Counter* m_deltas_relayed_;
  obs::Counter* m_local_fallbacks_;
  obs::Counter* m_messages_sent_;
  obs::Counter* m_retransmissions_;
  Histogram* m_epoch_ms_;  // network-wide autopilot.reconfig.epoch_ms
  Tick last_join_time_ = -1;
  Tick last_config_time_ = -1;
  Tick last_termination_time_ = -1;
};

}  // namespace autonet

#endif  // SRC_AUTOPILOT_RECONFIG_H_
