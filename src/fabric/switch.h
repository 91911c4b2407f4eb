// An Autonet switch (section 5.1): 12 external link units and the control-
// processor port joined by a 13x13 crossbar, a forwarding table indexed by
// (receiving port, destination short address), and the first-come, first-
// considered scheduling engine.  The control program (Autopilot) drives the
// switch exclusively through the control-processor interface: packet
// send/receive on port 0, status-bit reads, idhy forcing, and forwarding
// table loads.
#ifndef SRC_FABRIC_SWITCH_H_
#define SRC_FABRIC_SWITCH_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/event_log.h"
#include "src/common/ids.h"
#include "src/common/packet.h"
#include "src/fabric/cp_port.h"
#include "src/fabric/forwarder.h"
#include "src/fabric/forwarding_table.h"
#include "src/fabric/link_unit.h"
#include "src/fabric/scheduler.h"
#include "src/sim/simulator.h"

namespace autonet {

class Switch {
 public:
  struct Config {
    std::size_t fifo_capacity = 4096;       // bytes per receive FIFO
    bool fcfs_scheduler = false;            // E9 baseline
    bool broadcast_ignores_stop = true;     // section 6.6.6 deadlock fix
    // The prototype's hardware requires a reset (destroying all packets in
    // the switch) to load the forwarding table — the section 7 lesson.
    // Clearing this models the proposed improved hardware.
    bool reset_on_table_load = true;
  };

  // Snapshot of the switch's registry counters, assembled on demand.  The
  // live values are `switch.<name>.fabric.*` counters in the simulator's
  // metric registry, so they are also visible to JSON snapshots and the
  // SRP GetStats query.
  struct Stats {
    std::uint64_t packets_forwarded = 0;
    std::uint64_t packets_discarded = 0;
    std::uint64_t bytes_forwarded = 0;
    std::uint64_t table_loads = 0;
    std::uint64_t resets = 0;
  };

  Switch(Simulator* sim, Uid uid, std::string name, Config config);
  Switch(Simulator* sim, Uid uid, std::string name);
  ~Switch();

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  Simulator* sim() { return sim_; }
  Tick now() const { return sim_->now(); }
  Uid uid() const { return uid_; }
  const std::string& name() const { return name_; }
  const Config& config() const { return config_; }

  // --- cabling ---
  void AttachLink(PortNum port, Link* link, Link::Side side);
  void DetachLink(PortNum port);
  LinkUnit& link_unit(PortNum port) {
    assert(port >= kFirstExternalPort && port < kPortsPerSwitch);
    return *static_cast<LinkUnit*>(ports_[port].get());
  }
  const LinkUnit& link_unit(PortNum port) const {
    assert(port >= kFirstExternalPort && port < kPortsPerSwitch);
    return *static_cast<const LinkUnit*>(ports_[port].get());
  }
  CpPort& cp_port() { return *cp_port_; }

  // --- control-processor interface ---
  void SetCpHandler(CpPort::DeliveryHandler handler);
  void CpSend(const PacketRef& packet);
  PortStatus ReadAndClearStatus(PortNum port);
  void SetPortForceIdhy(PortNum port, bool force);
  void SendPanic(PortNum port);
  // Loads a new forwarding table.  With reset_on_table_load this resets the
  // switch: every packet in transit through it is destroyed.
  void LoadForwardingTable(const ForwardingTable& table);
  const ForwardingTable& forwarding_table() const { return table_; }
  // Fault-injection surface (see src/adversary/): flips bits in one live
  // table entry in place — no reset, no table-load accounting, exactly a
  // memory fault in the table RAM.  Autopilot's table scrubber is the
  // recovery path.
  void CorruptTableEntry(PortNum inport, ShortAddress addr,
                         std::uint16_t xor_mask) {
    table_.CorruptBits(inport, addr, xor_mask);
  }

  Stats stats() const;
  EventLog& log() { return log_; }
  // The one instrumentation point for this switch's control-plane events,
  // shared with its Autopilot and ReconfigEngine.
  obs::Emitter& emitter() { return emitter_; }
  SchedulerEngine& scheduler() { return sched_; }

  // --- internal plumbing, called by ports and forwarders ---
  Port& port(PortNum p) { return *ports_[p]; }
  // Inline: runs once per received byte on the forwarding hot path.
  void OnFifoActivity(PortNum p) {
    // High-water-mark gauge behind an integer shadow: the gauge is only
    // touched when a new maximum is set, so the steady-state byte costs one
    // integer compare instead of an int->double convert + double max.
    std::size_t occ = ports_[p]->fifo().occupancy();
    if (occ > fifo_hwm_shadow_[p]) {
      fifo_hwm_shadow_[p] = occ;
      m_fifo_hwm_[p]->SetMax(static_cast<double>(occ));
    }
    switch (in_state_[p]) {
      case InState::kIdle:
        MaybeCapture(p);
        break;
      case InState::kForwarding:
        forwarders_[p]->OnFifoActivity();
        break;
      case InState::kCapturePending:
      case InState::kRequested:
        break;
    }
  }
  void OnXmitOkChange(PortNum p);
  void OnPortReceiveReset(PortNum p);
  // Inline: runs once per forwarded byte on the forwarding hot path.
  void AfterFifoPop(PortNum p) {
    if (p == kCpPort) {
      cp_port_->PumpPending();
    } else {
      LinkUnit& unit = link_unit(p);
      unit.NoteBytesForwarded(1);  // ProgressSeen evidence for the sampler
      unit.UpdateOutgoingFlow();
    }
  }
  PortVector FreeOutputPorts() const;
  // The FIFO occupancy the port's fifo_hwm_bytes gauge holds.
  const std::size_t& fifo_hwm_bytes(PortNum p) const {
    return fifo_hwm_shadow_[p];
  }
  void NoteCpArrivalPort(PortNum p) { cp_port_->NoteArrivalPort(p); }
  // The forwarder for `inport` completed (sent its end mark or drained a
  // discarded packet).  The switch frees the output ports and looks for the
  // port's next packet.
  void OnForwarderDone(PortNum inport, bool discarded,
                       std::size_t bytes_moved);

 private:
  enum class InState : std::uint8_t {
    kIdle,            // no packet captured at this receive FIFO's head
    kCapturePending,  // address capture delay running
    kRequested,       // forwarding request queued in the scheduling engine
    kForwarding,      // crossbar connection active
  };

  void MaybeCapture(PortNum p);
  // Leaves receive port `p` idle, ending any deferral it granted.
  void SetIdle(PortNum p);
  void DoCapture(PortNum p);
  void Grant(const SchedulerEngine::Request& request, PortVector ports);
  void StartForwarder(PortNum inport, PortVector outports, bool broadcast);
  // Aborts whatever receive port `p` is doing (capture delay, queued
  // request or active forwarder) and leaves it idle.
  void StopInput(PortNum p);

  Simulator* sim_;
  Uid uid_;
  std::string name_;
  Config config_;
  EventLog log_;
  obs::Emitter emitter_;

  std::array<std::unique_ptr<Port>, kPortsPerSwitch> ports_;
  CpPort* cp_port_ = nullptr;  // alias of ports_[0]
  ForwardingTable table_;
  SchedulerEngine sched_;

  std::array<InState, kPortsPerSwitch> in_state_{};
  std::array<Simulator::EventId, kPortsPerSwitch> capture_event_{};
  // One per receive port, built with the switch; active while in_state_
  // is kForwarding.
  std::array<std::unique_ptr<Forwarder>, kPortsPerSwitch> forwarders_;

  // Registry instruments (owned by the simulator's registry).
  obs::Counter* m_packets_forwarded_;
  obs::Counter* m_packets_discarded_;
  obs::Counter* m_bytes_forwarded_;
  obs::Counter* m_table_loads_;  // the emitter's route-install counter
  obs::Counter* m_resets_;
  std::array<obs::Gauge*, kPortsPerSwitch> m_fifo_hwm_{};
  std::array<std::size_t, kPortsPerSwitch> fifo_hwm_shadow_{};
};

}  // namespace autonet

#endif  // SRC_FABRIC_SWITCH_H_
