#include "src/chaos/oracles.h"

#include <algorithm>

#include "src/autopilot/reconfig.h"
#include "src/common/time.h"
#include "src/topo/planner.h"

namespace autonet {
namespace chaos {

namespace {

class ConvergenceOracle : public Oracle {
 public:
  std::string name() const override { return "convergence"; }
  std::string Check(OracleContext& ctx) override {
    Network& net = *ctx.net;
    if (!net.WaitForConsistency(ctx.deadline)) {
      std::string why = net.CheckConsistency();
      return "no consistent configuration by t=" + FormatTime(ctx.deadline) +
             (why.empty() ? ": still quiescing" : ": " + why);
    }
    ctx.converged_at = net.sim().now();
    return "";
  }
};

class DeliveryOracle : public Oracle {
 public:
  std::string name() const override { return "delivery"; }
  std::string Check(OracleContext& ctx) override {
    Network& net = *ctx.net;
    // Let drivers re-register on whatever attachment survives the script.
    net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond);

    // Every pair of hosts sharing a component; a host off the network
    // (disconnected or unregistered) is exempt.
    std::vector<int> components = net.HealthyComponents();
    struct Expected {
      int src;
      int dst;
    };
    std::vector<Expected> pending;
    for (int a = 0; a < net.num_hosts(); ++a) {
      int ca = net.HostComponent(a, components);
      if (ca < 0) {
        continue;
      }
      for (int b = 0; b < net.num_hosts(); ++b) {
        if (a == b || net.HostComponent(b, components) != ca) {
          continue;
        }
        pending.push_back({a, b});
      }
    }
    // A host whose switch crashed and restarted inside the driver's ping
    // window still holds a short address from the old epoch; the driver
    // only notices on its next ping cycle (~3 s of silence, sec 6.8.3 --
    // the failover bench measures recovery at ~2.9 s) and re-registers.
    // The paper's claim is that service is *eventually* restored, so retry
    // every outstanding pair in 300 ms rounds across that window.  A
    // refused send (address cleared mid-re-registration) is retried too.
    const Tick deadline = net.sim().now() + 15 * kSecond;
    while (true) {
      net.ClearInboxes();
      for (const Expected& e : pending) {
        net.SendData(e.src, e.dst, 64);
      }
      net.Run(300 * kMillisecond);
      std::vector<Expected> still;
      for (const Expected& e : pending) {
        bool got = false;
        for (const Delivery& d : net.inbox(e.dst)) {
          if (d.intact() && d.packet != nullptr &&
              d.packet->src_uid == net.host_at(e.src).uid()) {
            got = true;
            break;
          }
        }
        if (!got) {
          still.push_back(e);
        }
      }
      pending.swap(still);
      if (pending.empty()) {
        return "";
      }
      if (net.sim().now() >= deadline) {
        return "no intact delivery " + net.host_at(pending.front().src).name() +
               " -> " + net.host_at(pending.front().dst).name() +
               " within the 15s re-registration budget";
      }
    }
  }
};

class PortSanityOracle : public Oracle {
 public:
  std::string name() const override { return "ports"; }
  std::string Check(OracleContext& ctx) override {
    Network& net = *ctx.net;
    std::string detail = Misclassified(net);
    if (detail.empty()) {
      return "";
    }
    // A mis-classified port at the quiescence point is not yet a violation:
    // a link that flapped its way up the skeptic's exponential hold-down is
    // *supposed* to sit below s.switch.good until it has delivered a clean
    // period (section 6.5.5).  The invariant is that no healthy link is
    // held out forever — so grant the skeptic its worst-case budget (both
    // hold-downs can apply in sequence: s.dead -> s.checking, then
    // s.switch.who -> s.switch.good) and re-check as the network runs.
    Tick budget = 10 * kSecond;
    for (int s = 0; s < net.num_switches(); ++s) {
      if (net.switch_alive(s)) {
        const AutopilotConfig& cfg = net.autopilot_at(s).config();
        budget += cfg.status_holddown_max + cfg.conn_holddown_max;
        break;
      }
    }
    Tick waited = 0;
    while (waited < budget) {
      net.Run(kSecond);
      waited += kSecond;
      detail = Misclassified(net);
      if (detail.empty()) {
        return "";
      }
    }
    return detail + " (still after " + FormatTime(waited) +
           " of skeptic budget)";
  }

 private:
  static std::string Misclassified(Network& net) {
    const TopoSpec& spec = net.spec();
    for (std::size_t c = 0; c < spec.cables.size(); ++c) {
      const TopoSpec::CableSpec& cs = spec.cables[c];
      bool ends_alive = net.switch_alive(cs.sw_a) && net.switch_alive(cs.sw_b);
      bool healthy = ends_alive && cs.sw_a != cs.sw_b &&
                     net.cable_at(static_cast<int>(c)).mode() ==
                         LinkMode::kNormal &&
                     net.cable_corruption_rate(static_cast<int>(c)) == 0.0;
      PortState state_a = PortState::kDead;
      PortState state_b = PortState::kDead;
      if (net.switch_alive(cs.sw_a)) {
        state_a = net.autopilot_at(cs.sw_a).port_state(cs.port_a);
      }
      if (net.switch_alive(cs.sw_b)) {
        state_b = net.autopilot_at(cs.sw_b).port_state(cs.port_b);
      }
      if (healthy &&
          (state_a != PortState::kSwitchGood ||
           state_b != PortState::kSwitchGood)) {
        return "healthy cable " + std::to_string(c) + " classified " +
               PortStateName(state_a) + "/" + PortStateName(state_b);
      }
      if (!healthy && ends_alive &&
          net.cable_at(static_cast<int>(c)).mode() == LinkMode::kCut &&
          (state_a == PortState::kSwitchGood ||
           state_b == PortState::kSwitchGood)) {
        return "cut cable " + std::to_string(c) +
               " still classified s.switch.good";
      }
    }
    return "";
  }
};

class EpochOracle : public Oracle {
 public:
  std::string name() const override { return "epoch"; }
  std::string Check(OracleContext& ctx) override {
    // Each fault can advance the epoch only via a believed unit jump —
    // anything larger is held for a confirming second sighting, which a
    // one-shot corrupted field never produces — plus the handful of epochs
    // the wave it triggers burns.  Growth beyond this small linear budget
    // means a corrupted epoch value moved a register outright.
    static_assert(ReconfigEngine::kEpochConfirmJump == 1,
                  "budget below assumes held-until-confirmed multi-jumps");
    std::uint64_t budget =
        kEpochBurnBase +
        kEpochBurnPerFault * static_cast<std::uint64_t>(ctx.faults);
    std::uint64_t epoch = MaxLiveEpoch(*ctx.net);
    if (epoch <= ctx.start_epoch || epoch - ctx.start_epoch <= budget) {
      return "";
    }
    return "epoch rose from " + std::to_string(ctx.start_epoch) + " to " +
           std::to_string(epoch) + " (budget " + std::to_string(budget) +
           " for " + std::to_string(ctx.faults) +
           " faults): a corrupted epoch was believed";
  }
};

class HostAddressOracle : public Oracle {
 public:
  std::string name() const override { return "host-address"; }
  std::string Check(OracleContext& ctx) override {
    Network& net = *ctx.net;
    for (int h = 0; h < net.num_hosts(); ++h) {
      PortNum port = 0;
      int sw = net.HostAttachment(h, &port);
      if (!net.driver_at(h).HasAddress() || sw < 0 || !net.switch_alive(sw)) {
        continue;
      }
      ShortAddress expect =
          ShortAddress::FromSwitchPort(net.autopilot_at(sw).switch_num(), port);
      if (net.driver_at(h).short_address() != expect) {
        return "host " + net.host_at(h).name() + " holds address " +
               net.driver_at(h).short_address().ToString() + ", expected " +
               expect.ToString();
      }
    }
    return "";
  }
};

class FifoOracle : public Oracle {
 public:
  std::string name() const override { return "fifo"; }
  std::string Check(OracleContext& ctx) override {
    Network& net = *ctx.net;
    for (int s = 0; s < net.num_switches(); ++s) {
      Switch& sw = net.switch_at(s);
      for (PortNum p = kFirstExternalPort; p < kPortsPerSwitch; ++p) {
        const Link* link = sw.link_unit(p).link();
        // The raw view: a byte still deferred fits below half full, so it
        // cannot be an overflow.
        std::uint64_t lost = sw.port(p).fifo().overflow_count();
        if (lost != 0 && link != nullptr && !link->ever_faulted()) {
          return "switch " + sw.name() + " port " + std::to_string(p) +
                 " overflowed its receive FIFO " + std::to_string(lost) +
                 " time(s) on a link with no injected fault";
        }
      }
    }
    return "";
  }
};

}  // namespace

int HealthyDiameter(const Network& net) {
  return LongestShortestPath(net.HealthyTopology());
}

std::uint64_t MaxLiveEpoch(Network& net) {
  std::uint64_t epoch = 0;
  for (int i = 0; i < net.num_switches(); ++i) {
    if (net.switch_alive(i)) {
      epoch = std::max(epoch, net.autopilot_at(i).epoch());
    }
  }
  return epoch;
}

std::unique_ptr<Oracle> MakeConvergenceOracle() {
  return std::make_unique<ConvergenceOracle>();
}
std::unique_ptr<Oracle> MakeDeliveryOracle() {
  return std::make_unique<DeliveryOracle>();
}
std::unique_ptr<Oracle> MakePortSanityOracle() {
  return std::make_unique<PortSanityOracle>();
}
std::unique_ptr<Oracle> MakeEpochOracle() {
  return std::make_unique<EpochOracle>();
}
std::unique_ptr<Oracle> MakeHostAddressOracle() {
  return std::make_unique<HostAddressOracle>();
}
std::unique_ptr<Oracle> MakeFifoOracle() {
  return std::make_unique<FifoOracle>();
}

std::vector<std::unique_ptr<Oracle>> StandardOracles() {
  std::vector<std::unique_ptr<Oracle>> oracles;
  oracles.push_back(MakeConvergenceOracle());
  oracles.push_back(MakeDeliveryOracle());
  oracles.push_back(MakePortSanityOracle());
  oracles.push_back(MakeEpochOracle());
  oracles.push_back(MakeHostAddressOracle());
  oracles.push_back(MakeFifoOracle());
  return oracles;
}

}  // namespace chaos
}  // namespace autonet
