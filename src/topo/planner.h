// The installation guide the paper wished for (section 7): "For a network
// like Autonet to be widely employed, simple recipes must be developed for
// designing the topology of the physical configuration.  The number of
// switches and the pattern of the switch-to-switch and host-to-switch links
// determine network capacity, reliability, and cost.  Site personnel will
// need detailed guidance..."
//
// PlanInstallation implements that recipe: given the host population and
// availability requirements, it sizes a torus fabric following the SRC
// installation's pattern (four trunk ports, eight host ports per switch),
// spreads dual-homed hosts across adjacent switches, and *verifies* the
// result — single-fault tolerance (2-connectivity of the fabric plus
// dual-homing), diameter, port budget, and a bisection-bandwidth estimate —
// before emitting a human-readable installation summary.
#ifndef SRC_TOPO_PLANNER_H_
#define SRC_TOPO_PLANNER_H_

#include <string>

#include "src/topo/spec.h"

namespace autonet {

struct InstallationRequirements {
  int hosts = 0;             // hosts to attach now
  bool dual_homed = true;    // two links per host (section 3.9)
  double growth_headroom = 0.25;  // spare host-attachment capacity
  double cable_km = 0.05;    // in-building coax runs
};

struct InstallationPlan {
  bool feasible = false;
  std::string error;

  TopoSpec spec;
  int rows = 0;
  int cols = 0;
  int switches = 0;
  int trunk_cables = 0;
  int host_cables = 0;
  int host_capacity = 0;  // attachable hosts at this size
  int diameter = 0;
  // No single link or switch failure disconnects the fabric, and no single
  // failure disconnects any host (requires dual homing).
  bool single_fault_tolerant = false;
  // Worst-case cut bandwidth across the fabric's bisection, in Mbit/s.
  double bisection_mbps = 0;

  std::string Summary() const;
};

InstallationPlan PlanInstallation(const InstallationRequirements& req);

// --- analysis helpers (exposed for tests and tools) ---

// Longest shortest-path between any two switches that reach each other: the
// widest component's diameter (0 for an empty or single-switch topology).
// Sets *connected, when non-null, to whether every switch reaches every
// other.
int LongestShortestPath(const NetTopology& topo, bool* connected = nullptr);
// Longest shortest-path between switches; -1 if disconnected or empty.
int TopologyDiameter(const NetTopology& topo);
// The fabric stays connected after removing any single link.
bool IsTwoEdgeConnected(const NetTopology& topo);
// The fabric stays connected after removing any single switch.
bool IsTwoVertexConnected(const NetTopology& topo);

}  // namespace autonet

#endif  // SRC_TOPO_PLANNER_H_
