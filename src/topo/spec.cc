#include "src/topo/spec.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "src/sim/random.h"

namespace autonet {

namespace {
// Deterministic, human-readable UIDs: switches at 0x5000_0000 + i, hosts at
// 0xA000_0000 + i.
Uid SwitchUid(int i) { return Uid(0x50000000ull + static_cast<std::uint64_t>(i)); }
Uid HostUid(int i) { return Uid(0xA0000000ull + static_cast<std::uint64_t>(i)); }
}  // namespace

int TopoSpec::AddSwitch(const std::string& name) {
  int index = static_cast<int>(switches.size());
  SwitchSpec sw;
  sw.uid = SwitchUid(index);
  sw.name = name.empty() ? "sw" + std::to_string(index) : name;
  switches.push_back(std::move(sw));
  return index;
}

namespace {
void CollectUsedPorts(const TopoSpec& spec, int sw, std::set<PortNum>* used) {
  for (const TopoSpec::CableSpec& c : spec.cables) {
    if (c.sw_a == sw) {
      used->insert(c.port_a);
    }
    if (c.sw_b == sw) {
      used->insert(c.port_b);
    }
  }
  for (const TopoSpec::HostSpec& h : spec.hosts) {
    if (h.primary_switch == sw) {
      used->insert(h.primary_port);
    }
    if (h.alt_switch == sw) {
      used->insert(h.alt_port);
    }
  }
}
}  // namespace

PortNum TopoSpec::LowestFreePort(int sw) const {
  std::set<PortNum> used;
  CollectUsedPorts(*this, sw, &used);
  for (PortNum p = kFirstExternalPort; p < kPortsPerSwitch; ++p) {
    if (used.count(p) == 0) {
      return p;
    }
  }
  return -1;
}

PortNum TopoSpec::HighestFreePort(int sw) const {
  std::set<PortNum> used;
  CollectUsedPorts(*this, sw, &used);
  for (PortNum p = kPortsPerSwitch - 1; p >= kFirstExternalPort; --p) {
    if (used.count(p) == 0) {
      return p;
    }
  }
  return -1;
}

int TopoSpec::Cable(int sw_a, int sw_b, double length_km) {
  CableSpec c;
  c.sw_a = sw_a;
  c.port_a = LowestFreePort(sw_a);
  c.sw_b = sw_b;
  c.port_b = sw_a == sw_b ? -1 : LowestFreePort(sw_b);
  c.length_km = length_km;
  cables.push_back(c);
  return static_cast<int>(cables.size()) - 1;
}

int TopoSpec::AddHost(int primary_sw, int alt_sw, double length_km,
                      const std::string& name) {
  int index = static_cast<int>(hosts.size());
  HostSpec h;
  h.uid = HostUid(index);
  h.name = name.empty() ? "host" + std::to_string(index) : name;
  h.primary_switch = primary_sw;
  h.primary_port = HighestFreePort(primary_sw);
  if (alt_sw >= 0) {
    h.alt_switch = alt_sw;
    hosts.push_back(h);  // reserve the primary port before picking the alt
    hosts.back().alt_port = HighestFreePort(alt_sw);
    hosts.back().length_km = length_km;
    return index;
  }
  h.length_km = length_km;
  hosts.push_back(h);
  return index;
}

std::string TopoSpec::Validate() const {
  char buf[128];
  const int n = static_cast<int>(switches.size());
  auto bad_switch = [n](int sw) { return sw < 0 || sw >= n; };
  for (std::size_t i = 0; i < cables.size(); ++i) {
    if (bad_switch(cables[i].sw_a) || bad_switch(cables[i].sw_b)) {
      std::snprintf(buf, sizeof(buf), "cable %zu: switch index out of range",
                    i);
      return buf;
    }
  }
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (bad_switch(hosts[i].primary_switch) ||
        (hosts[i].alt_switch != -1 && bad_switch(hosts[i].alt_switch))) {
      std::snprintf(buf, sizeof(buf), "host %zu: switch index out of range",
                    i);
      return buf;
    }
  }
  for (std::size_t i = 0; i < switches.size(); ++i) {
    std::set<PortNum> used;
    CollectUsedPorts(*this, static_cast<int>(i), &used);
    for (PortNum p : used) {
      if (p < kFirstExternalPort || p >= kPortsPerSwitch) {
        std::snprintf(buf, sizeof(buf), "switch %zu: port %d out of range", i,
                      p);
        return buf;
      }
    }
  }
  // Detect double-cabling of a port.
  std::set<std::pair<int, PortNum>> taken;
  auto claim = [&](int sw, PortNum port) {
    return taken.insert({sw, port}).second;
  };
  for (const CableSpec& c : cables) {
    if (!claim(c.sw_a, c.port_a) || !claim(c.sw_b, c.port_b)) {
      return "a switch port is cabled twice";
    }
  }
  for (const HostSpec& h : hosts) {
    if (!claim(h.primary_switch, h.primary_port)) {
      return "host primary port collides";
    }
    if (h.alt_switch >= 0 && !claim(h.alt_switch, h.alt_port)) {
      return "host alternate port collides";
    }
  }
  return "";
}

NetTopology TopoSpec::ExpectedTopology() const {
  NetTopology topo;
  topo.switches.resize(switches.size());
  for (std::size_t i = 0; i < switches.size(); ++i) {
    topo.switches[i].uid = switches[i].uid;
    topo.switches[i].proposed_num = static_cast<SwitchNum>(i + 1);
  }
  for (const CableSpec& c : cables) {
    if (c.sw_a == c.sw_b) {
      continue;  // looped cables are excluded from configurations
    }
    topo.switches[c.sw_a].links.push_back({c.port_a, c.sw_b, c.port_b});
    topo.switches[c.sw_b].links.push_back({c.port_b, c.sw_a, c.port_a});
  }
  for (const HostSpec& h : hosts) {
    topo.switches[h.primary_switch].host_ports.Set(h.primary_port);
    if (h.alt_switch >= 0) {
      topo.switches[h.alt_switch].host_ports.Set(h.alt_port);
    }
  }
  return topo;
}

// --- generators ---

namespace {
void SprinkleHosts(TopoSpec* spec, int hosts_per_switch) {
  for (int i = 0; i < static_cast<int>(spec->switches.size()); ++i) {
    for (int h = 0; h < hosts_per_switch; ++h) {
      spec->AddHost(i);
    }
  }
}
}  // namespace

TopoSpec MakeLine(int n, int hosts_per_switch) {
  TopoSpec spec;
  for (int i = 0; i < n; ++i) {
    spec.AddSwitch();
  }
  for (int i = 0; i + 1 < n; ++i) {
    spec.Cable(i, i + 1);
  }
  SprinkleHosts(&spec, hosts_per_switch);
  return spec;
}

TopoSpec MakeRing(int n, int hosts_per_switch) {
  TopoSpec spec;
  for (int i = 0; i < n; ++i) {
    spec.AddSwitch();
  }
  for (int i = 0; i < n; ++i) {
    if (n == 2 && i == 1) {
      break;  // avoid a double cable on a 2-ring
    }
    spec.Cable(i, (i + 1) % n);
  }
  SprinkleHosts(&spec, hosts_per_switch);
  return spec;
}

TopoSpec MakeTree(int arity, int depth, int hosts_per_switch) {
  TopoSpec spec;
  spec.AddSwitch();
  std::vector<int> frontier{0};
  for (int level = 1; level <= depth; ++level) {
    std::vector<int> next;
    for (int parent : frontier) {
      for (int c = 0; c < arity; ++c) {
        int child = spec.AddSwitch();
        spec.Cable(parent, child);
        next.push_back(child);
      }
    }
    frontier = std::move(next);
  }
  SprinkleHosts(&spec, hosts_per_switch);
  return spec;
}

TopoSpec MakeTorus(int rows, int cols, int hosts_per_switch) {
  TopoSpec spec;
  for (int i = 0; i < rows * cols; ++i) {
    spec.AddSwitch();
  }
  auto at = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (cols > 2 || c + 1 < cols) {
        spec.Cable(at(r, c), at(r, (c + 1) % cols));
      }
      if (rows > 2 || r + 1 < rows) {
        spec.Cable(at(r, c), at((r + 1) % rows, c));
      }
    }
  }
  SprinkleHosts(&spec, hosts_per_switch);
  return spec;
}

TopoSpec MakeRandom(int n, int extra_links, std::uint64_t seed,
                    int hosts_per_switch) {
  TopoSpec spec;
  for (int i = 0; i < n; ++i) {
    spec.AddSwitch();
  }
  Rng rng(seed);
  for (int i = 1; i < n; ++i) {
    spec.Cable(static_cast<int>(rng.UniformInt(0, i - 1)), i);
  }
  int added = 0;
  int attempts = 0;
  while (added < extra_links && attempts < 50 * (extra_links + 1)) {
    ++attempts;
    int a = static_cast<int>(rng.UniformInt(0, n - 1));
    int b = static_cast<int>(rng.UniformInt(0, n - 1));
    if (a == b || spec.LowestFreePort(a) < 0 || spec.LowestFreePort(b) < 0) {
      continue;
    }
    // Leave room for at least one host per switch.
    if (spec.HighestFreePort(a) <= spec.LowestFreePort(a) ||
        spec.HighestFreePort(b) <= spec.LowestFreePort(b)) {
      continue;
    }
    spec.Cable(a, b);
    ++added;
  }
  SprinkleHosts(&spec, hosts_per_switch);
  return spec;
}

TopoSpec MakeSrcLan(int hosts) {
  // An approximate 4x8 torus: the full torus with two switches removed and
  // their through-paths patched, giving 30 switches with four inter-switch
  // links each and a maximum switch-to-switch distance of 6 (section 6.6.5).
  constexpr int kRows = 4;
  constexpr int kCols = 8;
  const std::set<int> removed = {0 * kCols + 0, 2 * kCols + 4};

  TopoSpec spec;
  std::vector<int> index(kRows * kCols, -1);
  for (int pos = 0; pos < kRows * kCols; ++pos) {
    if (removed.count(pos) == 0) {
      index[pos] = spec.AddSwitch();
    }
  }
  auto pos_of = [&](int r, int c) {
    return ((r + kRows) % kRows) * kCols + ((c + kCols) % kCols);
  };
  // Horizontal and vertical rings, skipping over removed positions.
  auto next_present = [&](int r, int c, int dr, int dc) {
    do {
      r = (r + dr + kRows) % kRows;
      c = (c + dc + kCols) % kCols;
    } while (removed.count(pos_of(r, c)) > 0);
    return pos_of(r, c);
  };
  std::set<std::pair<int, int>> cabled;
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < kCols; ++c) {
      int here = pos_of(r, c);
      if (removed.count(here) > 0) {
        continue;
      }
      for (auto [dr, dc] : {std::pair<int, int>{0, 1}, {1, 0}}) {
        int there = next_present(r, c, dr, dc);
        int a = index[here];
        int b = index[there];
        if (a == b) {
          continue;
        }
        auto key = std::minmax(a, b);
        if (cabled.insert({key.first, key.second}).second) {
          spec.Cable(a, b, /*length_km=*/0.05);  // in-building coax runs
        }
      }
    }
  }
  // Dual-connected hosts spread around the machine room.
  int n = static_cast<int>(spec.switches.size());
  for (int h = 0; h < hosts; ++h) {
    int primary = h % n;
    int alt = (primary + 1) % n;
    spec.AddHost(primary, alt, /*length_km=*/0.05);
  }
  return spec;
}

}  // namespace autonet
