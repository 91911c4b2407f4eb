// The top-level harness: instantiates a whole Autonet — switches with
// Autopilot control programs, point-to-point links, dual-homed host
// controllers with failover drivers — from a TopoSpec on one simulator, and
// provides fault injection (cut/restore cables, crash/restart switches,
// reflecting links), convergence detection, and consistency checking.
//
// This is the public entry point a user of the library starts from; see
// examples/quickstart.cc.
#ifndef SRC_CORE_NETWORK_H_
#define SRC_CORE_NETWORK_H_

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/autopilot/autopilot.h"
#include "src/common/serialize.h"
#include "src/fabric/switch.h"
#include "src/host/controller.h"
#include "src/host/driver.h"
#include "src/link/link.h"
#include "src/sim/simulator.h"
#include "src/topo/spec.h"

namespace autonet {

// Client deliveries with this ether type are routed to the client delivery
// hook only and are never collected into the per-host inboxes, so a
// saturating hook-driven workload cannot evict the probe traffic that tests
// and oracles read from the inboxes.  (The workload engine sends under this
// type; see src/workload/engine.h.)
inline constexpr std::uint16_t kHookOnlyEtherType = 0xAE70;

// The tag Network::SendTagged writes at the head of a client payload: 8
// bytes, big-endian.  The layout is public: perfbench decodes it itself.
struct DataTag {
  std::uint64_t value = 0;

  template <class Io, class M>
  static void Walk(Io& io, M& m) {
    io.U64BE(m.value);
  }
  // The tag at the head of `payload`.  A payload shorter than 8 bytes reads
  // as the big-endian value of the bytes it has.
  static std::uint64_t Of(const std::vector<std::uint8_t>& payload) {
    ByteReader r(payload);
    DataTag tag;
    Walk(r, tag);
    return tag.value;
  }
};

struct NetworkConfig {
  AutopilotConfig autopilot;       // defaults to the tuned generation
  Switch::Config switch_config;
  HostController::Config host_config;
  bool start_drivers = true;       // hosts register automatically on Boot()
  std::size_t inbox_limit = 4096;
};

class Network {
 public:
  explicit Network(TopoSpec spec);
  Network(TopoSpec spec, NetworkConfig config);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& sim() { return sim_; }
  const TopoSpec& spec() const { return spec_; }

  int num_switches() const { return static_cast<int>(switches_.size()); }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  Switch& switch_at(int i) { return *switches_[i]; }
  Autopilot& autopilot_at(int i) { return *autopilots_[i]; }
  HostController& host_at(int i) { return *hosts_[i]; }
  AutonetDriver& driver_at(int i) { return *drivers_[i]; }
  Link& cable_at(int i) { return *cables_[i]; }
  Link& host_link(int host, int which) { return *host_links_[host][which]; }

  // Boots every switch control program and starts every host driver.
  void Boot();

  // Runs the simulation until the control plane has been quiescent (no
  // reconfiguration in progress, no reliable messages outstanding, no table
  // loads) for `quiet`, or until the deadline.  Returns true on
  // convergence.
  bool WaitForConvergence(Tick deadline, Tick quiet = 100 * kMillisecond);

  // Like WaitForConvergence, but keeps waiting (e.g. for skeptic holddowns
  // to be served) until CheckConsistency() passes or the deadline expires.
  bool WaitForConsistency(Tick deadline, Tick quiet = 100 * kMillisecond);

  // Waits until every host whose active switch is alive has learned its
  // short address from that switch.
  bool WaitForHostsRegistered(Tick deadline);

  // Runs the simulation for the given duration.
  void Run(Tick duration) { sim_.RunUntil(sim_.now() + duration); }

  // Empty string when the converged control plane is consistent.  Each
  // component of HealthyComponents() is judged on its own: its switches
  // agree on the epoch and topology, the topology matches that component of
  // the healthy spec, every switch holds a number, every pair of its hosts
  // is routed, and the channel dependency graph is acyclic.  Otherwise the
  // first failure, naming a switch of the failing component.
  std::string CheckConsistency();

  // --- fault injection ---
  void CutCable(int cable);
  void RestoreCable(int cable);
  void SetCableReflecting(int cable, Link::Side powered_side);
  // Marginal-link model: probability that any individual byte transmitted on
  // the cable is damaged in flight (surfaces as CRC failures / BadCode at
  // the receiver).  Rate 0 heals the link.
  void SetCableCorruptionRate(int cable, double per_byte_probability);
  double cable_corruption_rate(int cable) const {
    return cable_corruption_[cable];
  }
  void CutHostLink(int host, int which);
  void RestoreHostLink(int host, int which);
  void CrashSwitch(int i);
  void RestartSwitch(int i);
  bool switch_alive(int i) const { return alive_[i]; }

  // Bumped by every fault-injection call above.  Clients caching state
  // derived from the fault set (e.g. the components of HealthyTopology())
  // can key the cache on this instead of re-deriving per query.
  std::uint64_t fault_generation() const { return fault_generation_; }

  // --- traffic helpers ---
  // Sends `data_bytes` of client data from one host to another (requires
  // both drivers registered).  Returns false if not possible yet.
  bool SendData(int src_host, int dst_host, std::size_t data_bytes,
                std::uint16_t ether_type = 0x0800);
  // Like SendData, but writes `tag` into the first 8 payload bytes
  // (big-endian); data_bytes is clamped up to 8 so the tag always fits.
  bool SendTagged(int src_host, int dst_host, std::size_t data_bytes,
                  std::uint16_t ether_type, std::uint64_t tag);
  const std::vector<Delivery>& inbox(int host) const { return inboxes_[host]; }
  void ClearInboxes();

  // Observes every client delivery on every host, before inbox collection.
  // One hook per network (the workload engine claims it while attached);
  // pass nullptr to clear.
  using ClientDeliveryHook = std::function<void(int host, const Delivery&)>;
  void SetClientDeliveryHook(ClientDeliveryHook hook) {
    delivery_hook_ = std::move(hook);
  }

  // --- measurement ---
  // Duration of the most recent reconfiguration wave: from the earliest
  // epoch join to the latest forwarding-table load, over alive switches.
  struct ReconfigTiming {
    std::uint64_t epoch = 0;
    Tick start = -1;
    Tick end = -1;
    Tick Duration() const { return start < 0 || end < 0 ? -1 : end - start; }
  };
  ReconfigTiming LastReconfig() const;

  // The topology the control plane should converge to given current faults.
  NetTopology HealthyTopology() const;

  // HealthyTopology() split into its physically connected components, each
  // of which configures as a separate operational network (section 6.6):
  // the component id of every switch index, -1 for a dead switch.  Ids count
  // up from 0 in the order a DFS over HealthyTopology() discovers them.
  std::vector<int> HealthyComponents() const;

  // The switch serving `host` on its active attachment (the alternate once
  // the driver has failed over), or -1 when that is the alternate of a
  // single-homed host.  `port`, when given, receives the switch port.
  int HostAttachment(int host, PortNum* port = nullptr) const;

  // The component, in a HealthyComponents() snapshot, of the switch serving
  // `host`; -1 when the host is off the network: its attachment switch is
  // missing or dead, its active link is not normal, or it has no short
  // address yet.  Two hosts can exchange traffic once both are in the same
  // component.
  int HostComponent(int host, const std::vector<int>& components) const;

  std::vector<LogEntry> MergedLog() const;

  // --- telemetry export ---
  // Network-wide metric snapshot (optionally restricted by name prefix,
  // e.g. "switch.s4.").
  // The Perfetto trace of the reconfigurations comes from the armed flight
  // recorder: obs::PostMortem::Build(sim().flight()).ToChromeTraceJson().
  std::string DumpMetricsJson(const std::string& prefix = "") const;

 private:
  // The one link-mode rule: a cable is cut while it was cut by hand or
  // either switch is down, a host link while it was cut by hand or its
  // switch is down.
  void RefreshLinkMode(int cable);
  void RefreshHostLinkMode(int host, int which);
  // Refreshes switch `sw`'s cables by index, then its host links by host,
  // primary before alternate.
  void RefreshSwitchLinks(int sw);
  bool ControlPlaneIdle() const;
  Tick LastControlActivity() const;
  // The client data packet SendData and SendTagged send, or nullopt if
  // either host's driver has no short address yet.
  std::optional<Packet> DataPacket(int src_host, int dst_host,
                                   std::size_t data_bytes,
                                   std::uint16_t ether_type) const;

  TopoSpec spec_;
  NetworkConfig config_;
  Simulator sim_;

  // Links are declared before the devices that detach from them on
  // destruction.
  std::vector<std::unique_ptr<Link>> cables_;
  std::vector<std::array<std::unique_ptr<Link>, 2>> host_links_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<std::unique_ptr<Autopilot>> autopilots_;
  std::vector<std::unique_ptr<HostController>> hosts_;
  std::vector<std::unique_ptr<AutonetDriver>> drivers_;

  std::vector<bool> alive_;
  std::vector<bool> cable_cut_;
  std::vector<double> cable_corruption_;
  std::vector<std::array<bool, 2>> host_link_cut_;
  std::vector<std::vector<Delivery>> inboxes_;
  ClientDeliveryHook delivery_hook_;
  std::uint64_t fault_generation_ = 0;
};

}  // namespace autonet

#endif  // SRC_CORE_NETWORK_H_
