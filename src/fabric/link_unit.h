// A link unit terminates one external full-duplex link of a switch
// (section 5.1): the receive path buffers arriving symbols in the port FIFO
// and derives the flow control sent back on the same link's reverse channel;
// the transmit path carries crossbar output down the link.  The unit also
// maintains the hardware status bits of section 6.5.2 that the status
// sampler reads.
#ifndef SRC_FABRIC_LINK_UNIT_H_
#define SRC_FABRIC_LINK_UNIT_H_

#include <cstdint>
#include <functional>
#include <limits>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/fabric/forwarder.h"
#include "src/fabric/port.h"
#include "src/link/flow.h"
#include "src/link/link.h"
#include "src/obs/metrics.h"

namespace autonet {

class Switch;

// Snapshot of a link unit's status indicators (section 6.5.2).  Current
// conditions are instantaneous; accumulated counts are since the previous
// ReadAndClearStatus() call.
struct PortStatus {
  // Current conditions.
  bool is_host = false;   // last flow control was `host`
  bool xmit_ok = false;   // last flow control allows transmission
  bool in_packet = false; // transmitter is mid-packet
  bool carrier = false;   // receive channel has signal
  FlowDirective last_rx_directive = FlowDirective::kNone;
  std::size_t fifo_occupancy = 0;

  // Accumulated conditions (cleared on read).
  std::uint32_t bad_code = 0;     // damaged symbols / loss of signal
  std::uint32_t bad_syntax = 0;   // framing errors, missing directives
  std::uint32_t overflow = 0;
  std::uint32_t underflow = 0;
  std::uint32_t idhy_seen = 0;
  std::uint32_t panic_seen = 0;
  std::uint32_t start_seen = 0;   // start/host directives received
  std::uint64_t bytes_forwarded = 0;  // progress out of the receive FIFO
};

// LinkEndpoint is deliberately the primary base: the receive path (one
// virtual call per delivered byte or run) dispatches through LinkEndpoint, so
// keeping it at offset zero makes those calls thunk-free; the Port virtuals
// (begin/end per packet, gated queries) absorb the this-adjustment instead.
class LinkUnit final : public LinkEndpoint, public Port {
 public:
  LinkUnit(Switch* owner, PortNum port_num, std::size_t fifo_capacity);

  void AttachLink(Link* link, Link::Side side);
  void DetachLink();
  Link* link() const { return link_; }
  Link::Side side() const { return side_; }
  bool attached() const { return link_ != nullptr; }
  PortNum port_num() const { return port_num_; }

  // The receive FIFO with every byte that has landed applied, and every
  // pop its forwarder's run has made.  (Port::fifo() is the raw view the
  // switch's own forwarding path uses; it settles at its pump firings.)
  PortFifo& fifo() {
    SettleAll();
    return fifo_;
  }
  // Whether a pop leaves the outgoing directive as it is: at or below half
  // full, with the directive the last recomputation latched still on the
  // link (a panic pulse replaces it until the next pop).
  bool PopsAreQuiet() const {
    FlowDirective d =
        force_idhy_ ? FlowDirective::kIdhy : FlowDirective::kStart;
    return link_ != nullptr && !fifo_.MoreThanHalfFull() &&
           last_tx_directive_ == d && link_->flow_directive(side_) == d;
  }

  // --- deferred delivery (see Link::GrantDeferral) ---
  // While this port's forwarder streams, the bytes landing here need no
  // event each: applying one only pushes it into the FIFO, as long as the
  // FIFO stays at or below half full (no flow-directive change) and at or
  // below its high-water mark (no gauge change).  The forwarder grants at
  // each pump firing, up to its next one at `next_look`, and revokes when
  // it stops; its committed pops (`drain_count` of them, one per data slot
  // from slot index `drain_from`) make room for as many more bytes.
  // Inline: runs at every pump firing.
  void GrantDeferral(Tick next_look, std::int64_t drain_from,
                     std::uint32_t drain_count) {
    if (link_ != nullptr) {
      link_->GrantDeferral(side_, next_look, QuietRoom(), drain_from,
                           drain_count);
    }
  }
  // While the switch captures and schedules the head packet, a landing byte
  // only fills the FIFO: the capture is under way, and nobody counts bytes
  // until the forwarder starts, whose pump grants or revokes anew.  So the
  // port defers up to its quiet limit, with no look promised.
  void GrantUntilForwarding() {
    if (link_ != nullptr) {
      link_->GrantDeferral(side_, std::numeric_limits<Tick>::max(),
                           QuietRoom());
    }
  }
  void RevokeDeferral() {
    if (link_ != nullptr) {
      link_->RevokeDeferral(side_);
    }
  }
  void Settle() {
    if (link_ != nullptr) {
      link_->Settle(side_);
    }
  }
  // Settle, then the reader's run: what every look at the port starts with.
  void SettleAll() {
    Settle();
    reader_->SettleRun();
  }

  // --- control-processor interface ---
  PortStatus ReadAndClearStatus();
  // While a port is classified s.dead, Autopilot forces it to send idhy in
  // place of normal flow control (section 6.5.3).
  void SetForceIdhy(bool force);
  // Sends a momentary panic directive to reset the remote link unit.
  void SendPanicPulse();

  // --- Port (output side, driven by the forwarder) ---
  bool CanTransmitNow() const override;
  void SendBegin(const PacketRef& packet) override;
  // Inline: runs once per forwarded byte; the forwarder's single-output
  // fast path calls it directly (LinkUnit is final), so the whole
  // byte-transmit chain down to Link::PushFlit compiles as one unit.
  void SendByte(std::uint32_t offset) override {
    if (link_ != nullptr) {
      link_->TransmitByte(side_, offset);
    }
  }
  void SendEnd(EndFlags flags) override;
  void RecordUnderflow() override { ++status_.underflow; }

  // --- LinkEndpoint (receive path) ---
  void OnPacketBegin(const PacketRef& packet) override;
  void OnDataBytes(std::uint32_t first_offset, std::uint32_t n,
                   std::uint32_t corrupt_count) override;
  void OnPacketEnd(EndFlags flags) override;
  void OnFlowDirective(FlowDirective directive) override;
  void OnCarrierChange(bool carrier_up) override;
  void OnCodeViolation() override { ++status_.bad_code; }

  // Recomputes and latches the outgoing flow directive (start/stop/idhy).
  // Called after FIFO occupancy changes and mode changes — once per
  // forwarded byte, so the no-transition case is inline and the telemetry
  // bookkeeping lives out of line.
  void UpdateOutgoingFlow() {
    if (link_ == nullptr) {
      return;
    }
    FlowDirective d;
    if (force_idhy_) {
      d = FlowDirective::kIdhy;
    } else {
      d = fifo_.MoreThanHalfFull() ? FlowDirective::kStop
                                   : FlowDirective::kStart;
    }
    if (d != last_tx_directive_) {
      NoteDirectiveTransition(d);
    }
    link_->SetFlowDirective(side_, d);
  }

  // Hard reset of the receive side (panic handling): clears the FIFO and
  // abandons any packet being forwarded from it.
  void ResetReceiveSide();

  void NoteBytesForwarded(std::uint64_t n) { status_.bytes_forwarded += n; }

 private:
  // The occupancy up to which a push changes nothing but the FIFO: at or
  // below half full no directive flips, and at or below the high-water
  // mark the fifo_hwm_bytes gauge holds.
  std::size_t QuietLimit() const {
    std::size_t half = fifo_.capacity() / 2;
    return *fifo_hwm_ < half ? *fifo_hwm_ : half;
  }
  // How many more bytes the FIFO takes quietly.
  std::size_t QuietRoom() const {
    std::size_t limit = QuietLimit();
    return limit > fifo_.occupancy() ? limit - fifo_.occupancy() : 0;
  }
  // Every push into the FIFO — a data byte or an end mark — ends here: a
  // push that carried the FIFO across half full latches the new directive.
  // (An end mark that lands on exactly half full must latch stop too, or
  // every later byte sees "already above half" and the FIFO overflows
  // while its forwarder waits.)
  // A push past half full also cuts the reader's run: from there each pop
  // recomputes the directive again.
  void AfterPush(bool was_half) {
    if (fifo_.MoreThanHalfFull()) {
      reader_->CutRun();
    }
    if (fifo_.MoreThanHalfFull() != was_half) {
      UpdateOutgoingFlow();
    }
  }
  // Latches a changed outgoing directive and records stop-interval
  // telemetry (out of line; transitions are rare next to recomputations).
  void NoteDirectiveTransition(FlowDirective d);

  Switch* owner_;
  PortNum port_num_;
  // The occupancy the switch's fifo_hwm_bytes gauge holds for this port.
  const std::size_t* fifo_hwm_;
  Link* link_ = nullptr;
  Link::Side side_ = Link::Side::kA;

  bool force_idhy_ = false;
  bool tx_in_packet_ = false;
  FlowDirective last_rx_directive_ = FlowDirective::kStart;  // power-up latch
  PortStatus status_;
  Tick last_status_read_ = 0;

  // Flow-control telemetry: how often and for how long this unit told its
  // neighbour to stop.  The histogram is shared by all ports of the switch
  // (`switch.<name>.link.stop_interval_ns`).
  FlowDirective last_tx_directive_ = FlowDirective::kNone;
  Tick stop_began_ = -1;
  obs::Counter* m_flow_stops_ = nullptr;
  Histogram* m_stop_interval_ns_ = nullptr;
};

}  // namespace autonet

#endif  // SRC_FABRIC_LINK_UNIT_H_
