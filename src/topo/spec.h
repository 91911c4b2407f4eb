// Physical network blueprints: which switches exist, how they are cabled,
// and where hosts (dual-homed, section 3.9) attach.  A TopoSpec is the
// input to core::Network, which instantiates real switches, links, hosts,
// and Autopilot instances from it.
#ifndef SRC_TOPO_SPEC_H_
#define SRC_TOPO_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/routing/topology.h"

namespace autonet {

struct TopoSpec {
  struct SwitchSpec {
    Uid uid;
    std::string name;
  };
  struct CableSpec {
    int sw_a = -1;
    PortNum port_a = -1;
    int sw_b = -1;
    PortNum port_b = -1;
    double length_km = 0.01;  // 10 m machine-room coax by default
  };
  struct HostSpec {
    Uid uid;
    std::string name;
    // Primary and alternate attachments; alt_switch == -1 means single-homed.
    int primary_switch = -1;
    PortNum primary_port = -1;
    int alt_switch = -1;
    PortNum alt_port = -1;
    double length_km = 0.01;
  };

  std::vector<SwitchSpec> switches;
  std::vector<CableSpec> cables;
  std::vector<HostSpec> hosts;

  // --- construction helpers ---
  int AddSwitch(const std::string& name = "");
  // Cables the two switches together using automatically chosen free ports
  // (lowest free port on each side).  Returns the cable index.
  int Cable(int sw_a, int sw_b, double length_km = 0.01);
  // Attaches a host: primary on `primary_sw`, alternate on `alt_sw` (pass
  // -1 for single-homed).  Ports are chosen from the top down, keeping low
  // ports free for switch-to-switch cables as in the SRC installation.
  int AddHost(int primary_sw, int alt_sw = -1, double length_km = 0.01,
              const std::string& name = "");

  // Lowest free external port on a switch (-1 if full).
  PortNum LowestFreePort(int sw) const;
  // Highest free external port on a switch (-1 if full).
  PortNum HighestFreePort(int sw) const;

  // Empty string when well-formed (switch indices and ports in range, no
  // double-cabling).
  std::string Validate() const;

  // The NetTopology the reconfiguration should converge to, assuming every
  // link and switch is healthy.  Used by tests to check convergence.
  NetTopology ExpectedTopology() const;
};

// --- generators ---

// N switches in a line; hosts_per_switch hosts on each (single-homed).
TopoSpec MakeLine(int n, int hosts_per_switch = 1);
TopoSpec MakeRing(int n, int hosts_per_switch = 1);
// Complete arity-ary tree of the given depth.
TopoSpec MakeTree(int arity, int depth, int hosts_per_switch = 1);
// rows x cols torus (wrap-around grid), 4 switch-to-switch links each.
TopoSpec MakeTorus(int rows, int cols, int hosts_per_switch = 1);
// Random connected topology: spanning tree + extra chords.
TopoSpec MakeRandom(int n, int extra_links, std::uint64_t seed,
                    int hosts_per_switch = 1);
// The SRC service network (section 5.5): 30 switches in an approximate
// 4 x 8 torus (maximum switch-to-switch distance 6), four inter-switch
// ports per switch in use, and `hosts` dual-connected hosts spread over
// the remaining ports (capacity 120).
TopoSpec MakeSrcLan(int hosts = 60);

}  // namespace autonet

#endif  // SRC_TOPO_SPEC_H_
