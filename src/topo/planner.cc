#include "src/topo/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

namespace autonet {

int LongestShortestPath(const NetTopology& topo, bool* connected) {
  bool all_reached = true;
  int longest = 0;
  for (int s = 0; s < topo.size(); ++s) {
    std::vector<int> dist(topo.size(), -1);
    std::vector<int> queue{s};
    dist[s] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      int u = queue[head];
      for (const TopoLink& link : topo.switches[u].links) {
        if (dist[link.remote_switch] < 0) {
          dist[link.remote_switch] = dist[u] + 1;
          queue.push_back(link.remote_switch);
        }
      }
    }
    for (int d : dist) {
      all_reached = all_reached && d >= 0;
      longest = std::max(longest, d);
    }
  }
  if (connected != nullptr) {
    *connected = all_reached;
  }
  return longest;
}

int TopologyDiameter(const NetTopology& topo) {
  bool connected = false;
  int longest = LongestShortestPath(topo, &connected);
  return topo.size() == 0 || !connected ? -1 : longest;
}

namespace {

// Connectivity after deleting an optional switch and/or one undirected link
// (identified by its two (switch, port) ends).
bool ConnectedWithout(const NetTopology& topo, int skip_switch,
                      int cut_switch, PortNum cut_port) {
  int start = -1;
  int expected = 0;
  for (int i = 0; i < topo.size(); ++i) {
    if (i != skip_switch) {
      ++expected;
      if (start < 0) {
        start = i;
      }
    }
  }
  if (start < 0) {
    return true;
  }
  std::vector<bool> seen(topo.switches.size(), false);
  std::vector<int> queue{start};
  seen[start] = true;
  int reached = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    int u = queue[head];
    for (const TopoLink& link : topo.switches[u].links) {
      int v = link.remote_switch;
      if (v == skip_switch || seen[v]) {
        continue;
      }
      bool is_cut = (u == cut_switch && link.local_port == cut_port) ||
                    (v == cut_switch && link.remote_port == cut_port);
      if (is_cut) {
        continue;
      }
      seen[v] = true;
      ++reached;
      queue.push_back(v);
    }
  }
  return reached == expected;
}

}  // namespace

bool IsTwoEdgeConnected(const NetTopology& topo) {
  if (TopologyDiameter(topo) < 0) {
    return false;
  }
  for (int s = 0; s < topo.size(); ++s) {
    for (const TopoLink& link : topo.switches[s].links) {
      if (!ConnectedWithout(topo, /*skip_switch=*/-1, s, link.local_port)) {
        return false;
      }
    }
  }
  return true;
}

bool IsTwoVertexConnected(const NetTopology& topo) {
  if (topo.size() < 3 || TopologyDiameter(topo) < 0) {
    return topo.size() == 2 && TopologyDiameter(topo) == 1;
  }
  for (int s = 0; s < topo.size(); ++s) {
    if (!ConnectedWithout(topo, s, /*cut_switch=*/-1, /*cut_port=*/-1)) {
      return false;
    }
  }
  return true;
}

InstallationPlan PlanInstallation(const InstallationRequirements& req) {
  InstallationPlan plan;
  if (req.hosts <= 0) {
    plan.error = "no hosts to attach";
    return plan;
  }

  // Port budget per switch, following the SRC pattern: 4 trunk ports and
  // 8 host ports of the 12 (section 5.5).
  constexpr int kHostPortsPerSwitch = 8;
  int links_per_host = req.dual_homed ? 2 : 1;
  int attachments = static_cast<int>(
      std::ceil(static_cast<double>(req.hosts) * links_per_host *
                (1.0 + req.growth_headroom)));
  int switches = std::max(
      req.dual_homed ? 2 : 1,
      (attachments + kHostPortsPerSwitch - 1) / kHostPortsPerSwitch);

  // Torus dimensions: the most square factorization minimizes diameter.
  // Round the switch count up until it factors acceptably (never by more
  // than a few): rows >= 2 keeps every switch at trunk degree <= 4.
  int rows = 1;
  int cols = switches;
  for (int n = switches; n <= switches + 4; ++n) {
    int best_r = 1;
    for (int r = 2; r * r <= n; ++r) {
      if (n % r == 0) {
        best_r = std::max(best_r, r);
      }
    }
    if (best_r > 1 || n <= 3) {
      switches = n;
      rows = best_r;
      cols = n / best_r;
      break;
    }
  }
  if (rows == 1 && switches > 3) {
    rows = 1;  // degenerate: a ring
  }

  plan.rows = rows;
  plan.cols = cols;
  plan.switches = switches;
  plan.spec = rows >= 2 ? MakeTorus(rows, cols, 0) : MakeRing(switches, 0);
  if (switches == 2) {
    // A two-switch fabric needs a parallel trunk pair (a trunk group,
    // section 6.3) so no single cable failure can partition it.
    plan.spec.Cable(0, 1, req.cable_km);
  }

  // Dual-homed hosts attach to horizontally adjacent switches, spreading
  // the load round-robin as the SRC installation did.
  for (int h = 0; h < req.hosts; ++h) {
    int primary = h % switches;
    int alt = req.dual_homed ? (primary + 1) % switches : -1;
    if (switches == 1) {
      alt = -1;
    }
    plan.spec.AddHost(primary, alt, req.cable_km);
  }
  std::string valid = plan.spec.Validate();
  if (!valid.empty()) {
    plan.error = "planned spec invalid: " + valid;
    return plan;
  }

  // Verify the plan.
  NetTopology topo = plan.spec.ExpectedTopology();
  plan.trunk_cables = static_cast<int>(plan.spec.cables.size());
  plan.host_cables = req.hosts * links_per_host;
  plan.diameter = TopologyDiameter(topo);
  plan.host_capacity = switches * kHostPortsPerSwitch / links_per_host;
  plan.single_fault_tolerant = req.dual_homed && switches >= 2 &&
                               IsTwoEdgeConnected(topo) &&
                               IsTwoVertexConnected(topo);
  // Torus bisection: cutting the longer dimension severs 2*min(rows,cols)
  // links (wrap-around), each 100 Mbit/s.
  int cut_links = rows >= 2 ? 2 * std::min(rows, cols) : 2;
  plan.bisection_mbps = 100.0 * cut_links;
  plan.feasible = plan.diameter >= 0;
  return plan;
}

std::string InstallationPlan::Summary() const {
  if (!feasible) {
    return "infeasible: " + error;
  }
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "Autonet installation plan\n"
      "  fabric:        %d switches as a %dx%d %s, %d trunk cables\n"
      "  hosts:         %zu attached (%d cables), capacity %d\n"
      "  diameter:      %d switch-to-switch hops\n"
      "  availability:  %s\n"
      "  bisection:     %.0f Mbit/s\n",
      switches, rows, cols, rows >= 2 ? "torus" : "ring", trunk_cables,
      spec.hosts.size(), host_cables, host_capacity, diameter,
      single_fault_tolerant
          ? "no single link or switch failure disconnects any host"
          : "NOT single-fault tolerant",
      bisection_mbps);
  return buf;
}

}  // namespace autonet
