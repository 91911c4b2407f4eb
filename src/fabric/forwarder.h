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
//
// Runs: a firing mid-packet that pops a byte may commit the pops of the
// next data slots too, with their output symbols (Link::TransmitRun), and
// sleep until the run ends.  It takes only bytes that nothing can take
// back: bytes in the input FIFO, and bytes on the input cable sent before
// now, each popped only in a slot it has landed by.  The pops are applied
// to the FIFO lazily, when the dispatch position passes them (SettleRun);
// every reader of the input port settles first (LinkUnit, CpPort).  A run
// needs one output, an external port whose cable can carry it or the
// control processor (which only counts bytes until the end), and an input
// whose pops change nothing else: an external port whose flow directive
// they leave alone (LinkUnit::PopsAreQuiet), or the control processor's
// with no packet waiting to be staged.  Anything that would change what
// the per-byte pump does in those slots cuts the run (CutRun): an abort, a
// throttle change, an input push past half full, a panic pulse, a carrier
// change, a change to the output cable, a control packet that must wait
// for FIFO space, or Requeue.
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

class Forwarder final : public RunHolder, public Simulator::OffQueueWork {
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
  // Applies the committed pops the dispatch position has passed, as far as
  // their bytes are in the FIFO.  Inline: a no-op without a run.
  void SettleRun() {
    if (run_left_ != 0) {
      ApplyPassedPops();
    }
  }
  // The committed pops the dispatch position has passed, applied or not.
  std::uint32_t PassedPops() const {
    return run_left_ == 0 ? 0 : CountPassedPops();
  }
  // RunHolder: undoes the pops the dispatch position has not passed and
  // resumes pumping one byte per slot from the first of them.
  void CutRun() override;
  // Simulator::OffQueueWork: cuts the run.
  void Requeue() override { CutRun(); }
  // Switch or port reset: stop, transmitting a truncated end if
  // mid-packet.  The owner frees the output ports afterwards.
  void Abort();

  bool active() const { return active_; }
  PortVector outports() const { return outports_; }
  bool drain_only() const { return outports_.empty(); }

 private:
  bool OutputsAllowTransmit() const;
  bool StalledByFlowControl() const;
  // Starts the pump train at `when` (default: the next data slot).
  void SchedulePump(Tick when = 0);
  Simulator::TrainStep PumpStep();
  // After a pop at now, commits the run that may follow it; returns the
  // slot of the next firing.
  Tick CommitRun(std::uint32_t offset);
  void ApplyPassedPops();
  std::uint32_t CountPassedPops() const;
  // PumpStep's two outcomes: fire again at `next`, granting the input link
  // deferral until then, or end the train and the grant.
  Simulator::TrainStep PumpAgain(Tick next);
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
  // connection ends.  Every firing has the forwarder's own pump order.
  Simulator::EventId pump_event_;
  Simulator::Order pump_order_;
  // The committed run: `run_left_` pops not yet applied, one per data slot
  // from slot index `run_slot_` on, whose symbols are on `run_link_` (or,
  // when it is null, counted by the control processor's port).
  std::int64_t run_slot_ = 0;
  std::uint32_t run_left_ = 0;
  Link* run_link_ = nullptr;
  Link::Side run_side_ = Link::Side::kA;
};

}  // namespace autonet

#endif  // SRC_FABRIC_FORWARDER_H_
