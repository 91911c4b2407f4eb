#include "src/chaos/oracles.h"

#include <algorithm>
#include <map>

#include "src/chaos/scenario.h"
#include "src/routing/verify.h"
#include "src/topo/planner.h"

namespace autonet {
namespace chaos {

namespace {

// One physically-connected component of the healthy topology, paired with
// the Network switch indices of its members (aligned with part.switches).
// This is the unit every post-convergence oracle judges: section 6.6 says
// physically separated partitions configure as independent operational
// networks.
struct ComponentView {
  NetTopology part;
  std::vector<int> live;  // Network switch index per part switch
};

std::vector<int> ComponentIds(const NetTopology& topo) {
  std::vector<int> component(topo.size(), -1);
  int next = 0;
  for (int start = 0; start < topo.size(); ++start) {
    if (component[start] >= 0) {
      continue;
    }
    int id = next++;
    std::vector<int> stack{start};
    component[start] = id;
    while (!stack.empty()) {
      int node = stack.back();
      stack.pop_back();
      for (const TopoLink& link : topo.switches[node].links) {
        if (component[link.remote_switch] < 0) {
          component[link.remote_switch] = id;
          stack.push_back(link.remote_switch);
        }
      }
    }
  }
  return component;
}

std::vector<ComponentView> BuildComponents(Network& net) {
  NetTopology expected = net.HealthyTopology();
  std::vector<int> component = ComponentIds(expected);
  int count = component.empty()
                  ? 0
                  : *std::max_element(component.begin(), component.end()) + 1;

  std::vector<ComponentView> views(count);
  std::vector<int> new_index(expected.size(), -1);
  for (int i = 0; i < expected.size(); ++i) {
    ComponentView& view = views[component[i]];
    new_index[i] = view.part.size();
    SwitchDescriptor sw = expected.switches[i];
    sw.links.clear();
    view.part.switches.push_back(std::move(sw));
    // Healthy topology only contains alive switches, so a live index exists.
    int live = -1;
    for (int s = 0; s < net.num_switches(); ++s) {
      if (net.switch_alive(s) &&
          net.spec().switches[s].uid == expected.switches[i].uid) {
        live = s;
        break;
      }
    }
    view.live.push_back(live);
  }
  for (int i = 0; i < expected.size(); ++i) {
    ComponentView& view = views[component[i]];
    for (const TopoLink& link : expected.switches[i].links) {
      view.part.switches[new_index[i]].links.push_back(
          {link.local_port, new_index[link.remote_switch], link.remote_port});
    }
  }
  return views;
}

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

class EpochAgreementOracle : public Oracle {
 public:
  std::string name() const override { return "epochs"; }
  std::string Check(OracleContext& ctx) override {
    Network& net = *ctx.net;
    for (const ComponentView& view : BuildComponents(net)) {
      std::uint64_t epoch = 0;
      int first = -1;
      for (int live : view.live) {
        const Autopilot& ap = net.autopilot_at(live);
        if (first < 0) {
          epoch = ap.epoch();
          first = live;
        } else if (ap.epoch() != epoch) {
          return net.switch_at(live).name() + " is on epoch " +
                 std::to_string(ap.epoch()) + " while " +
                 net.switch_at(first).name() + " is on " +
                 std::to_string(epoch);
        }
      }
    }
    return "";
  }
};

// Shared collection step for the two table oracles: pulls the loaded tables
// of a component's switches and fills assigned numbers from the autopilots.
std::string CollectTables(Network& net, ComponentView& view,
                          std::vector<ForwardingTable>* tables) {
  for (int i = 0; i < view.part.size(); ++i) {
    int live = view.live[i];
    const Autopilot& ap = net.autopilot_at(live);
    if (!ap.topology().has_value()) {
      return net.switch_at(live).name() + " has no configuration";
    }
    if (ap.switch_num() == 0) {
      return net.switch_at(live).name() + " has no switch number";
    }
    view.part.switches[i].assigned_num = ap.switch_num();
    tables->push_back(net.switch_at(live).forwarding_table());
  }
  return "";
}

class RouteLegalityOracle : public Oracle {
 public:
  std::string name() const override { return "routes"; }
  std::string Check(OracleContext& ctx) override {
    Network& net = *ctx.net;
    for (ComponentView& view : BuildComponents(net)) {
      std::vector<ForwardingTable> tables;
      std::string err = CollectTables(net, view, &tables);
      if (!err.empty()) {
        return err;
      }
      VerifyResult routes = VerifyRoutes(view.part, tables);
      if (!routes.ok) {
        return routes.error;
      }
    }
    return "";
  }
};

class DeadlockFreedomOracle : public Oracle {
 public:
  std::string name() const override { return "deadlock"; }
  std::string Check(OracleContext& ctx) override {
    Network& net = *ctx.net;
    for (ComponentView& view : BuildComponents(net)) {
      std::vector<ForwardingTable> tables;
      std::string err = CollectTables(net, view, &tables);
      if (!err.empty()) {
        return err;
      }
      DependencyCheck deps = CheckChannelDependencies(view.part, tables);
      if (!deps.acyclic) {
        return "channel dependency cycle of length " +
               std::to_string(deps.cycle.size()) + " in loaded tables";
      }
    }
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

    // Component id per alive Network switch index.
    NetTopology healthy = net.HealthyTopology();
    std::vector<int> ids = ComponentIds(healthy);
    std::map<std::uint64_t, int> component_of_uid;
    for (int i = 0; i < healthy.size(); ++i) {
      component_of_uid[healthy.switches[i].uid.value()] = ids[i];
    }
    auto host_component = [&](int h) {
      const TopoSpec::HostSpec& hs = net.spec().hosts[h];
      int active = net.driver_at(h).controller()->active_port();
      int sw = active == 0 ? hs.primary_switch : hs.alt_switch;
      if (sw < 0 || !net.switch_alive(sw) ||
          net.host_link(h, active).mode() != LinkMode::kNormal ||
          !net.driver_at(h).HasAddress()) {
        return -1;  // disconnected or unregistered: exempt from the check
      }
      return component_of_uid[net.spec().switches[sw].uid.value()];
    };

    struct Expected {
      int src;
      int dst;
    };
    std::vector<Expected> pending;
    for (int a = 0; a < net.num_hosts(); ++a) {
      int ca = host_component(a);
      if (ca < 0) {
        continue;
      }
      for (int b = 0; b < net.num_hosts(); ++b) {
        if (a == b || host_component(b) != ca) {
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

}  // namespace

int HealthyDiameter(const Network& net) {
  return LongestShortestPath(net.HealthyTopology());
}

std::unique_ptr<Oracle> MakeConvergenceOracle() {
  return std::make_unique<ConvergenceOracle>();
}
std::unique_ptr<Oracle> MakeEpochAgreementOracle() {
  return std::make_unique<EpochAgreementOracle>();
}
std::unique_ptr<Oracle> MakeRouteLegalityOracle() {
  return std::make_unique<RouteLegalityOracle>();
}
std::unique_ptr<Oracle> MakeDeadlockFreedomOracle() {
  return std::make_unique<DeadlockFreedomOracle>();
}
std::unique_ptr<Oracle> MakeDeliveryOracle() {
  return std::make_unique<DeliveryOracle>();
}
std::unique_ptr<Oracle> MakePortSanityOracle() {
  return std::make_unique<PortSanityOracle>();
}

std::vector<std::unique_ptr<Oracle>> StandardOracles() {
  std::vector<std::unique_ptr<Oracle>> oracles;
  oracles.push_back(MakeConvergenceOracle());
  oracles.push_back(MakeEpochAgreementOracle());
  oracles.push_back(MakeRouteLegalityOracle());
  oracles.push_back(MakeDeadlockFreedomOracle());
  oracles.push_back(MakeDeliveryOracle());
  oracles.push_back(MakePortSanityOracle());
  return oracles;
}

}  // namespace chaos
}  // namespace autonet
