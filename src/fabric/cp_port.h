// Port 0 of a switch: the special link unit connecting the crossbar to the
// control processor (section 5.1).  The processor's 1 Mbyte of video RAM
// serves as both transmit and receive buffering: the input FIFO feeding the
// crossbar is effectively memory-sized, and the output side reassembles
// arriving symbols into packets delivered to the control program.
#ifndef SRC_FABRIC_CP_PORT_H_
#define SRC_FABRIC_CP_PORT_H_

#include <cstdint>
#include <deque>
#include <functional>

#include "src/common/packet.h"
#include "src/fabric/port.h"

namespace autonet {

class Switch;

class CpPort final : public Port {
 public:
  using DeliveryHandler = std::function<void(Delivery)>;

  CpPort(Switch* owner, std::size_t fifo_capacity);

  // Queues a packet for transmission from the control processor.  Bytes are
  // staged into the port FIFO at memory speed (instantaneous in the model);
  // the crossbar drains them at link rate.
  void InjectPacket(const PacketRef& packet);

  void SetDeliveryHandler(DeliveryHandler handler) {
    handler_ = std::move(handler);
  }

  // Destroys everything staged or partially received (switch reset).
  void Reset();

  // Retry staging queued packets after the crossbar drained FIFO space.
  void PumpPending() { TryStagePending(); }
  // Whether no packet waits for FIFO space, so a pop stages nothing.
  bool StagingIdle() const { return pending_.empty(); }

  // The switch records which receive port feeds the crossbar connection to
  // port 0, so deliveries can tell the control program their arrival port
  // (section 6.3: "The processor is told the port on which the packet
  // arrived").
  void NoteArrivalPort(PortNum port) { arrival_port_ = port; }


  // --- Port (output side: crossbar -> control processor memory) ---
  bool CanTransmitNow() const override { return true; }
  void SendBegin(const PacketRef& packet) override;
  void SendByte(std::uint32_t offset) override;
  void SendEnd(EndFlags flags) override;
  // A forwarder's committed run of `n` bytes after the current one, and
  // the undone tail of a cut run: the processor only counts bytes until
  // the packet's end.
  void SendRun(std::uint32_t n) { rx_bytes_ += n; }
  void WithdrawRun(std::uint32_t n) { rx_bytes_ -= n; }

 private:
  void TryStagePending();

  Switch* owner_;
  DeliveryHandler handler_;
  std::deque<PacketRef> pending_;  // waiting for FIFO space

  // Receive-side reassembly.
  PacketRef rx_packet_;
  std::uint32_t rx_bytes_ = 0;
  PortNum arrival_port_ = -1;
};

}  // namespace autonet

#endif  // SRC_FABRIC_CP_PORT_H_
