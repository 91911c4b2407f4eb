// A forwarder is an active crossbar connection: it pumps symbols from one
// receive FIFO to a set of output ports, one byte per data slot (cut-
// through, section 3.5).  A forwarder with no output ports drains and
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
  Forwarder(Switch* owner, PortNum inport, PortVector outports,
            bool broadcast);
  ~Forwarder();

  Forwarder(const Forwarder&) = delete;
  Forwarder& operator=(const Forwarder&) = delete;

  void Start();

  // New symbols arrived in the input FIFO.  Inline: called once per
  // received byte; while the pump train is scheduled this is one compare.
  void OnFifoActivity() {
    if (!finished_ && !pump_event_.valid()) {
      SchedulePump();
    }
  }
  // An output port's flow-control gate changed.
  void OnThrottleChange();
  // Switch reset: terminate, transmitting a truncated end if mid-packet.
  // The owner destroys the forwarder afterwards.
  void Abort();

  PortNum inport() const { return inport_; }
  PortVector outports() const { return outports_; }
  bool broadcast() const { return broadcast_; }
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
  void Finish(EndFlags flags);

  Switch* owner_;
  PortNum inport_;
  PortVector outports_;
  bool broadcast_;
  // Hot-path caches, valid for the forwarder's whole life (ports are owned
  // by the switch and outlive every forwarder).  `in_port_` skips the
  // per-byte unique_ptr deref, and `in_unit_` is the same port when it is
  // an external one (nullptr for the control processor), whose link holds
  // this pump's deferral grant.  `fast_out_` is the single external output
  // port of a unicast forwarder (nullptr otherwise), letting the byte pump
  // call the final LinkUnit::SendByte directly instead of iterating the
  // port vector through a virtual call.
  Port* in_port_ = nullptr;
  LinkUnit* in_unit_ = nullptr;
  LinkUnit* fast_out_ = nullptr;
  // Cached OutputsAllowTransmit(): the flow gate is queried once per pumped
  // byte but changes only when a port's received directive flips, which the
  // switch signals via OnThrottleChange.  (CpPort's gate is constant, so
  // directive flips are the only invalidation source.)
  bool outputs_allow_ = false;
  bool begun_ = false;       // begin command sent
  bool finished_ = false;
  std::size_t bytes_moved_ = 0;
  // The pump train: one queue entry that re-anchors itself data slot by
  // data slot while the forwarder is streaming, and ends (TrainStep::Done)
  // when the forwarder parks waiting for bytes or a throttle change.
  Simulator::EventId pump_event_;
};

}  // namespace autonet

#endif  // SRC_FABRIC_FORWARDER_H_
