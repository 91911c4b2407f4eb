// A forwarder is a receive port's crossbar connection: it pumps symbols
// from one receive FIFO to a set of output ports, one byte per data slot
// (cut-through, section 3.5).  A receive port feeds at most one connection
// at a time, so the switch builds one forwarder per port and Start arms it
// for each packet; it is active from Start until the packet's end is sent
// (Finish) or it is aborted.  Armed with no output ports it drains and
// discards the head packet (a forwarding-table discard entry).
//
// Flow-control interaction:
//   * transmission does not begin until every chosen output port's last
//     received directive allows it;
//   * an alternatives (unicast) forwarder stalls mid-packet whenever its
//     output port is stopped;
//   * a broadcast forwarder, under the paper's deadlock fix (section 6.6.6),
//     ignores stop once transmission has begun.  Config::broadcast_ignores_
//     stop=false restores the deadlocking behaviour of Figure 9 for the E7
//     baseline.
#ifndef SRC_FABRIC_FORWARDER_H_
#define SRC_FABRIC_FORWARDER_H_

#include <cstdint>

#include "src/common/ids.h"
#include "src/common/port_vector.h"
#include "src/common/time.h"
#include "src/link/link.h"
#include "src/sim/simulator.h"

namespace autonet {

class LinkUnit;
class Port;
class PortFifo;
class Switch;

class Forwarder {
 public:
  // The owner's ports must already exist: they outlive the forwarder.
  Forwarder(Switch* owner, PortNum inport);
  ~Forwarder();

  Forwarder(const Forwarder&) = delete;
  Forwarder& operator=(const Forwarder&) = delete;

  // Connects the head packet to `outports` (empty: drain and discard it)
  // and starts pumping.  The forwarder must be inactive.
  void Start(PortVector outports, bool broadcast);

  // New symbols arrived in the input FIFO.  Inline: called once per
  // received byte; while the pump train is scheduled this is one compare.
  void OnFifoActivity() {
    if (active_ && !pump_event_.valid()) {
      SchedulePump();
    }
  }
  // An output port's flow-control gate changed.
  void OnThrottleChange();
  // Switch or port reset: stop, transmitting a truncated end if
  // mid-packet.  The owner frees the output ports afterwards.
  void Abort();

  bool active() const { return active_; }
  PortVector outports() const { return outports_; }
  bool drain_only() const { return outports_.empty(); }

 private:
  bool OutputsAllowTransmit() const;
  bool StalledByFlowControl() const;
  void SchedulePump();
  Simulator::TrainStep PumpStep();
  // PumpStep's two outcomes: fire again at the next data slot, granting the
  // input link deferral until then, or end the train and the grant.
  Simulator::TrainStep PumpAgain();
  Simulator::TrainStep PumpStop();
  // Ends the connection: cancels the pump and revokes the input grant.
  void Halt();
  void Finish(EndFlags flags);

  Switch* owner_;
  PortNum inport_;
  PortVector outports_;
  bool broadcast_ = false;
  // Hot-path caches.  `in_port_` skips the per-byte unique_ptr deref, and
  // `in_unit_` is the same port when it is an external one (nullptr for the
  // control processor), whose link holds this pump's deferral grant; both
  // are set once (ports are owned by the switch and outlive its
  // forwarders).  `fast_out_`, set by each Start, is the single external
  // output port of a unicast connection (nullptr otherwise), letting the
  // byte pump call the final LinkUnit::SendByte directly instead of
  // iterating the port vector through a virtual call.
  Port* in_port_ = nullptr;
  LinkUnit* in_unit_ = nullptr;
  LinkUnit* fast_out_ = nullptr;
  // Cached OutputsAllowTransmit(): the flow gate is queried once per pumped
  // byte but changes only when a port's received directive flips, which the
  // switch signals via OnThrottleChange.  (CpPort's gate is constant, so
  // directive flips are the only invalidation source.)
  bool outputs_allow_ = false;
  bool begun_ = false;       // begin command sent
  bool active_ = false;      // armed by Start, cleared by Finish or Abort
  std::size_t bytes_moved_ = 0;
  // The pump train: one queue entry that re-anchors itself data slot by
  // data slot while the forwarder is streaming, and ends (TrainStep::Done)
  // when the forwarder waits for bytes or a throttle change, or the
  // connection ends.
  Simulator::EventId pump_event_;
};

}  // namespace autonet

#endif  // SRC_FABRIC_FORWARDER_H_
