#include "src/host/driver.h"

#include "src/autopilot/messages.h"
#include "src/common/serialize.h"

namespace autonet {
namespace {

constexpr Tick kPingPeriod = 2 * kSecond;  // routine address confirmation
constexpr Tick kVigorousPingPeriod = 250 * kMillisecond;
constexpr Tick kFailThreshold = 3 * kSecond;    // silence before failing over
constexpr Tick kAlternateRetry = 10 * kSecond;  // per-link dwell when both dead
constexpr Tick kCheckPeriod = 100 * kMillisecond;

// The loopback test packet's payload: the token, 8 bytes little-endian.
struct LoopbackToken {
  std::uint64_t value = 0;

  template <class Io, class M>
  static void Walk(Io& io, M& m) {
    io.U64(m.value);
  }
};

}  // namespace

AutonetDriver::AutonetDriver(HostController* controller)
    : controller_(controller),
      check_task_(controller->sim(), [this] { Check(); }),
      loopback_timer_(controller->sim(), [this] { FinishLoopback(false); }) {
  controller_->SetReceiveHandler([this](Delivery d) { OnDelivery(std::move(d)); });
}

void AutonetDriver::Start() {
  started_ = true;
  active_since_ = controller_->sim()->now();
  last_response_ = controller_->sim()->now();
  SendPing();
  check_task_.Start(kCheckPeriod);
}

void AutonetDriver::SendPing() {
  // "A host discovers its own short address by sending a packet to address
  // 0000" (section 6.3); the same packet doubles as the liveness ping.
  HostAddressMsg msg;
  msg.kind = HostAddressMsg::Kind::kRequest;
  msg.host_uid = controller_->uid();
  Packet p;
  p.dest = kAddrLocalCp;
  p.src = has_address_ ? address_ : ShortAddress(0);
  p.type = PacketType::kHostAddress;
  p.payload = msg.Serialize();
  last_ping_ = controller_->sim()->now();
  controller_->Send(MakePacket(std::move(p)));
}

void AutonetDriver::OnDelivery(Delivery d) {
  if (!d.intact()) {
    return;  // CRC failure: drop (counted by the controller)
  }
  if (d.packet->dest.IsLoopback()) {
    // Our own loopback test packet reflected by the local switch.
    auto token = Decode<LoopbackToken>(d.packet->payload);
    if (loopback_expect_ != 0 && token && token->value == loopback_expect_) {
      FinishLoopback(true);
    }
    return;
  }
  if (d.packet->type == PacketType::kHostAddress) {
    auto msg = HostAddressMsg::Parse(d.packet->payload);
    if (!msg.has_value() || msg->kind != HostAddressMsg::Kind::kReply ||
        msg->host_uid != controller_->uid()) {
      return;
    }
    last_response_ = controller_->sim()->now();
    ShortAddress addr(msg->short_address);
    if (has_address_ && addr != address_) {
      // Re-addressing a registered host is drastic: every peer's cached
      // address for it goes stale.  A genuine re-address (the network
      // reconfigured and the switch got a new number) always carries a
      // newer epoch; a reply that does not — a delayed duplicate from the
      // pre-reconfiguration topology, or a damaged address field that beat
      // the CRC — used to re-address the host on the spot.  Hold such a
      // change until a second reply names the same address (the ping
      // cadence produces one within seconds; a one-off stale or corrupted
      // reply never repeats).
      constexpr std::uint64_t kMaxAddressEpochJump = std::uint64_t{1} << 32;
      bool plausibly_newer = msg->epoch > address_epoch_ &&
                             msg->epoch - address_epoch_ <= kMaxAddressEpochJump;
      bool confirmed = pending_addr_valid_ && pending_addr_ == addr;
      if (!plausibly_newer && !confirmed) {
        pending_addr_valid_ = true;
        pending_addr_ = addr;
        controller_->log().Logf(
            controller_->sim()->now(),
            "driver: holding address change %s -> %s (epoch %llu, have "
            "%llu) for confirmation",
            address_.ToString().c_str(), addr.ToString().c_str(),
            static_cast<unsigned long long>(msg->epoch),
            static_cast<unsigned long long>(address_epoch_));
        return;
      }
    }
    if (!has_address_ || addr != address_) {
      has_address_ = true;
      address_ = addr;
      controller_->log().Logf(controller_->sim()->now(),
                              "driver: short address %s (epoch %llu)",
                              addr.ToString().c_str(),
                              static_cast<unsigned long long>(msg->epoch));
      if (address_change_handler_) {
        address_change_handler_(addr);
      }
    }
    pending_addr_valid_ = false;
    address_epoch_ = msg->epoch;
    return;
  }
  if (receive_handler_) {
    receive_handler_(std::move(d));
  }
}

bool AutonetDriver::Send(Packet&& packet) {
  if (!has_address_) {
    return false;
  }
  packet.src = address_;
  return controller_->Send(MakePacket(std::move(packet)));
}

void AutonetDriver::TestActiveLink(TestResult on_result, Tick timeout) {
  StartLoopback(std::move(on_result), timeout, /*restore_port=*/-1);
}

void AutonetDriver::TestAlternateLink(TestResult on_result, Tick timeout) {
  int original = controller_->active_port();
  controller_->SelectPort(1 - original);
  StartLoopback(std::move(on_result), timeout, original);
}

void AutonetDriver::StartLoopback(TestResult on_result, Tick timeout,
                                  int restore_port) {
  if (loopback_expect_ != 0) {
    on_result(false);  // one test at a time
    return;
  }
  loopback_result_ = std::move(on_result);
  loopback_restore_port_ = restore_port;
  loopback_expect_ = ++loopback_token_ + 0x10F0F0F0F0F0F0F0ull;
  Packet p;
  p.dest = kAddrLoopback;
  p.src = has_address_ ? address_ : ShortAddress(0);
  p.type = PacketType::kEthernetEncap;
  p.payload = Encode(LoopbackToken{loopback_expect_});
  loopback_timer_.Start(timeout);
  if (!controller_->Send(MakePacket(std::move(p)))) {
    FinishLoopback(false);
  }
}

void AutonetDriver::FinishLoopback(bool ok) {
  if (loopback_expect_ == 0) {
    return;
  }
  loopback_timer_.Stop();
  loopback_expect_ = 0;
  if (!ok) {
    ++stats_.loopback_failures;
  }
  if (loopback_restore_port_ >= 0) {
    controller_->SelectPort(loopback_restore_port_);
    loopback_restore_port_ = -1;
  }
  if (loopback_result_) {
    TestResult cb = std::move(loopback_result_);
    loopback_result_ = nullptr;
    cb(ok);
  }
}

void AutonetDriver::FailOver(const char* reason) {
  ++stats_.failovers;
  controller_->log().Logf(controller_->sim()->now(), "driver: failover (%s)",
                          reason);
  controller_->SelectPort(1 - controller_->active_port());
  // "After switching links, the driver forgets its short address and tries
  // to contact the local switch attached to the new link."
  has_address_ = false;
  pending_addr_valid_ = false;
  active_since_ = controller_->sim()->now();
  last_response_ = controller_->sim()->now();  // restart the silence clock
  SendPing();
}

void AutonetDriver::Check() {
  Tick now = controller_->sim()->now();
  Tick silence = now - last_response_;

  // A registered host fails over after ~3 s of switch silence; while
  // unregistered (both links possibly dead) it alternates between its two
  // links every ~10 s until some switch answers.
  bool should_fail = has_address_
                         ? silence >= kFailThreshold
                         : now - active_since_ >= kAlternateRetry;
  if (should_fail) {
    FailOver(has_address_ ? "switch unresponsive" : "alternate retry");
    return;
  }

  // Ping cadence: routine while healthy, vigorous while suspicious.
  bool suspicious = controller_->link_error_on_active() || !has_address_ ||
                    silence >= kPingPeriod;
  Tick period = suspicious ? kVigorousPingPeriod : kPingPeriod;
  if (now - last_ping_ >= period) {
    SendPing();
  }
}

}  // namespace autonet
