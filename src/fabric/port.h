// One of the 13 crossbar positions of a switch.  A port has an input side —
// a receive FIFO feeding the crossbar — and an output side that transmits
// symbols out of the switch (down a link for external ports; into control-
// processor memory for port 0).
#ifndef SRC_FABRIC_PORT_H_
#define SRC_FABRIC_PORT_H_

#include <cstdint>

#include "src/common/packet.h"
#include "src/fabric/port_fifo.h"
#include "src/link/link.h"

namespace autonet {

class Port {
 public:
  virtual ~Port() = default;

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  PortFifo& fifo() { return fifo_; }
  const PortFifo& fifo() const { return fifo_; }

  bool tx_busy() const { return tx_busy_; }
  void set_tx_busy(bool busy) { tx_busy_ = busy; }

  // Flow-control gate: may the output side transmit right now?  For an
  // external port this reflects the last flow-control directive received on
  // the link (the XmitOK status bit); the control-processor port always may.
  virtual bool CanTransmitNow() const = 0;

  // Output-side transmission, one symbol per call (the forwarder provides
  // the slot cadence).
  virtual void SendBegin(const PacketRef& packet) = 0;
  virtual void SendByte(std::uint32_t offset) = 0;
  virtual void SendEnd(EndFlags flags) = 0;

  // The input FIFO had data to forward but the crossbar pump found nothing
  // to do (upstream stalled mid-packet): the Underflow status condition.
  virtual void RecordUnderflow() {}

 protected:
  explicit Port(std::size_t fifo_capacity) : fifo_(fifo_capacity) {}

  PortFifo fifo_;
  bool tx_busy_ = false;
};

}  // namespace autonet

#endif  // SRC_FABRIC_PORT_H_
