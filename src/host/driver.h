// The Autonet driver (section 6.8.3): owns the controller's two links,
// confirms the host's short address with the local switch every few
// seconds, and fails over to the alternate link when the active one stops
// responding.  Timing follows the paper: after ~3 seconds without a switch
// response the driver switches links, forgets its short address, and
// re-registers; if the new link is also dead it alternates every ~10
// seconds until a switch answers.
#ifndef SRC_HOST_DRIVER_H_
#define SRC_HOST_DRIVER_H_

#include <cstdint>
#include <functional>

#include "src/common/ids.h"
#include "src/common/packet.h"
#include "src/host/controller.h"
#include "src/sim/timer.h"

namespace autonet {

class AutonetDriver {
 public:
  struct Stats {
    std::uint64_t failovers = 0;
    std::uint64_t loopback_failures = 0;
  };

  // Called when the host's short address is (re)learned or changes.
  using AddressChangeHandler = std::function<void(ShortAddress)>;
  // Client packets (everything except the driver's own kHostAddress
  // traffic) are passed through.
  using ReceiveHandler = std::function<void(Delivery)>;

  explicit AutonetDriver(HostController* controller);

  void Start();

  bool HasAddress() const { return has_address_; }
  ShortAddress short_address() const { return address_; }
  const Stats& stats() const { return stats_; }
  HostController* controller() { return controller_; }

  void SetReceiveHandler(ReceiveHandler handler) {
    receive_handler_ = std::move(handler);
  }
  // The currently installed handler, for clients (e.g. SrpClient) that
  // interpose on one packet type and chain everything else through.
  const ReceiveHandler& receive_handler() const { return receive_handler_; }
  void SetAddressChangeHandler(AddressChangeHandler handler) {
    address_change_handler_ = std::move(handler);
  }

  // Sends a client packet, stamping the source short address.  Returns
  // false if the address is not yet known or the transmit buffer is full.
  bool Send(Packet&& packet);

  // Loopback self-test (section 6.3: packets sent to 0x7FC "will be looped
  // back to that host.  This feature is used by a host to test its links").
  // Tests the *active* link; the callback reports success.
  using TestResult = std::function<void(bool ok)>;
  void TestActiveLink(TestResult on_result,
                      Tick timeout = 500 * kMillisecond);
  // Section 6.8.3: "the alternate link can be tested, and if necessary
  // replaced, before it is needed."  Switches to the alternate port, runs
  // the loopback test there, and switches back regardless of outcome.
  void TestAlternateLink(TestResult on_result,
                         Tick timeout = 500 * kMillisecond);

 private:
  void OnDelivery(Delivery d);
  void SendPing();
  void Check();
  void FailOver(const char* reason);

  HostController* controller_;
  PeriodicTask check_task_;

  bool started_ = false;
  bool has_address_ = false;
  ShortAddress address_;
  std::uint64_t address_epoch_ = 0;
  // A re-address reply that did not carry a plausibly newer epoch, held
  // until a second reply names the same address (see OnDelivery): one
  // stale or damaged reply must not strip the host of a working address.
  bool pending_addr_valid_ = false;
  ShortAddress pending_addr_;
  Tick last_response_ = -1;
  Tick last_ping_ = -1;
  Tick active_since_ = 0;
  Stats stats_;

  ReceiveHandler receive_handler_;
  AddressChangeHandler address_change_handler_;

  // Loopback test state.
  void StartLoopback(TestResult on_result, Tick timeout, int restore_port);
  void FinishLoopback(bool ok);
  std::uint64_t loopback_token_ = 0;
  std::uint64_t loopback_expect_ = 0;
  TestResult loopback_result_;
  int loopback_restore_port_ = -1;
  Timer loopback_timer_;
};

}  // namespace autonet

#endif  // SRC_HOST_DRIVER_H_
