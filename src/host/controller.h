// The Autonet host controller (sections 3.9, 5.2, 6.2): two network ports of
// which exactly one is active at a time, a 128-Kbyte transmit buffer and a
// 128-Kbyte receive buffer, and CRC checking.  Key wire behaviours:
//
//   * the active port sends the `host` flow-control directive in place of
//     `start`, so switches can tell hosts from switches;
//   * the alternate port transmits only sync (no flow directives) — the
//     pattern the status sampler recognises as an alternate host port;
//   * a controller never sends `stop`: a slow host cannot back congestion
//     into the network; instead the controller discards received packets
//     when its receive buffer fills;
//   * the controller obeys `stop` from the switch, except that, like every
//     Autonet transmitter, it ignores stop mid-packet when sending a
//     broadcast packet (section 6.6.6).
//
// Mid-packet, a transmit pump firing commits the rest of the packet's bytes
// as one run (Link::TransmitRun, at most Link::kMaxRun) and sleeps until
// it ends; a flow directive change, a port switch or a change to the cable
// cuts it (CutRun).
#ifndef SRC_HOST_CONTROLLER_H_
#define SRC_HOST_CONTROLLER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "src/common/event_log.h"
#include "src/common/ids.h"
#include "src/common/packet.h"
#include "src/link/link.h"
#include "src/sim/simulator.h"

namespace autonet {

class HostController final : public RunHolder {
 public:
  struct Config {
    std::size_t tx_buffer_bytes = 128 * 1024;
    std::size_t rx_buffer_bytes = 128 * 1024;
    // Host-side packet consumption cost; 0 = the host keeps up with the
    // link.  The bridge benches raise this to model a CPU-bound host.
    Tick rx_process_ns_per_packet = 0;
    // Section 7 proposes making the alternate port send `host` directives
    // too; the shipped hardware sends only sync.  Flag models the proposal.
    bool host_directive_on_alternate = false;
  };

  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t rx_discarded_full = 0;  // receive buffer overflow
    std::uint64_t rx_crc_errors = 0;
    std::uint64_t rx_truncated = 0;
    std::uint64_t tx_rejected_full = 0;   // transmit buffer overflow
  };

  using ReceiveHandler = std::function<void(Delivery)>;

  HostController(Simulator* sim, Uid uid, std::string name, Config config);
  HostController(Simulator* sim, Uid uid, std::string name);
  ~HostController();

  HostController(const HostController&) = delete;
  HostController& operator=(const HostController&) = delete;

  // RunHolder: takes back the run's bytes in slots the dispatch position
  // has not passed and resumes one byte per slot from the first of them.
  void CutRun() override;

  void AttachPort(int which, Link* link, Link::Side side);
  void DetachPort(int which);

  // Selects the active port (0 or 1); the other becomes the alternate.
  void SelectPort(int which);
  int active_port() const { return active_; }

  // Queues a packet for transmission on the active port.  Returns false if
  // the transmit buffer cannot hold it.
  bool Send(const PacketRef& packet);

  // Delivered packets that failed CRC or arrived truncated are passed to the
  // handler too (flags set) so drivers can count link errors; client-facing
  // layers filter on Delivery::intact().
  void SetReceiveHandler(ReceiveHandler handler) {
    handler_ = std::move(handler);
  }

  Simulator* sim() { return sim_; }
  Uid uid() const { return uid_; }
  const std::string& name() const { return name_; }
  const Stats& stats() const { return stats_; }
  EventLog& log() { return log_; }
  std::size_t tx_queued_bytes() const { return tx_queued_bytes_; }
  bool link_error_on_active() const;

 private:
  class NetPort : public LinkEndpoint {
   public:
    NetPort() = default;
    void Init(HostController* owner, int index) {
      owner_ = owner;
      index_ = index;
    }

    void OnPacketBegin(const PacketRef& packet) override;
    void OnDataBytes(std::uint32_t first_offset, std::uint32_t n,
                     std::uint32_t corrupt_count) override;
    void OnPacketEnd(EndFlags flags) override;
    void OnFlowDirective(FlowDirective directive) override;
    void OnCarrierChange(bool carrier_up) override;

    // A data byte only bumps the counters below, which are read at the
    // packet's end, so the port lets its link defer every byte (see
    // Link::GrantDeferral).  Renewed at each packet begin, because a tie
    // chooser revokes it.
    void GrantDeferral() {
      if (link != nullptr) {
        link->GrantDeferral(side, Link::kNoHorizon, 0);
      }
    }

    Link* link = nullptr;
    Link::Side side = Link::Side::kA;
    FlowDirective last_rx_directive = FlowDirective::kStart;
    bool carrier = false;

    // Receive reassembly.
    PacketRef rx_packet;
    std::uint32_t rx_bytes = 0;
    bool rx_corrupted = false;

   private:
    HostController* owner_ = nullptr;
    int index_ = 0;
  };

  void UpdatePortDirectives();
  bool CanTransmitNow() const;
  // Starts the pump train at `when` (default: the next data slot).
  void SchedulePump(Tick when = 0);
  Simulator::TrainStep PumpStep();
  // Fires the pump again at `next` (default: the next data slot).
  Simulator::TrainStep PumpAgain(Tick next = 0);
  void OnThrottleChange();
  void FinishReceive(NetPort& port, EndFlags flags);
  void DrainRxQueue();

  Simulator* sim_;
  Uid uid_;
  std::string name_;
  Config config_;
  EventLog log_;
  ReceiveHandler handler_;
  std::array<NetPort, 2> ports_;
  int active_ = 0;

  // Transmit side.
  std::deque<PacketRef> tx_queue_;
  std::size_t tx_queued_bytes_ = 0;
  std::uint32_t tx_offset_ = 0;  // within the head packet
  bool tx_begun_ = false;
  // The head packet's, latched at its begin: the byte pump reads them once
  // per byte.
  bool tx_broadcast_ = false;
  std::size_t tx_size_ = 0;
  Simulator::EventId pump_event_;
  Simulator::Order pump_order_;  // every pump firing's
  // The committed run: its last `run_left_` bytes (already counted in
  // tx_offset_) go one per data slot from slot index `run_slot_` on, over
  // `run_link_`.
  std::int64_t run_slot_ = 0;
  std::uint32_t run_left_ = 0;
  Link* run_link_ = nullptr;
  Link::Side run_side_ = Link::Side::kA;

  // Receive side (modelled buffer + host consumption).
  std::deque<Delivery> rx_queue_;
  std::size_t rx_queued_bytes_ = 0;
  bool rx_draining_ = false;

  Stats stats_;
};

}  // namespace autonet

#endif  // SRC_HOST_CONTROLLER_H_
