#include "perfbench/workloads.h"

#include <algorithm>
#include <random>
#include <set>

#include "src/chaos/corpus.h"
#include "src/chaos/oracles.h"
#include "src/core/network.h"
#include "src/routing/spanning_tree.h"
#include "src/routing/topology.h"
#include "src/routing/updown.h"
#include "src/workload/engine.h"

namespace perfbench {

using autonet::Delivery;
using autonet::Histogram;
using autonet::kMillisecond;
using autonet::kSecond;
using autonet::Network;
using autonet::Tick;
using autonet::TopoSpec;
namespace chaos = autonet::chaos;
namespace obs = autonet::obs;
namespace workload = autonet::workload;

namespace {

using Counts = std::map<std::string, double>;

// Seeded choices use the engine's raw output, which the standard fixes; the
// distribution classes are implementation-defined.
template <class T>
void Shuffle(std::vector<T>* v, std::mt19937_64* rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[(*rng)() % i]);
  }
}

double CpuMsSince(double thread_cpu_start) {
  return (ThreadCpuSeconds() - thread_cpu_start) * 1e3;
}

double SimMs(Tick t) { return static_cast<double>(t) / 1e6; }

// Span names must outlive the tracer; oracle names are interned here.
const char* Intern(const std::string& s) {
  static std::set<std::string> names;
  return names.insert(s).first->c_str();
}

// switch.<name>.<group>.<metric> registry entries, summed over switches
// under their per-layer names.
void AddRegistryCounts(const obs::MetricRegistry& reg, Counts* counts) {
  static const std::map<std::string, std::string> kCounters = {
      {"fabric.packets_forwarded", "fabric.packets_forwarded"},
      {"fabric.bytes_forwarded", "fabric.bytes_forwarded"},
      {"fabric.packets_discarded", "fabric.packets_discarded"},
      {"fabric.sched_grants", "fabric.sched_grants"},
      {"fabric.sched_blocked_cycles", "fabric.sched_blocked_cycles"},
      {"fabric.table_loads", "fabric.table_loads"},
      {"link.flow_stops", "link.flow_stops"},
      {"reconfig.completions", "autopilot.reconfigs"},
      {"reconfig.triggers", "autopilot.triggers"},
      {"reconfig.epochs_joined", "autopilot.epochs_joined"},
      {"reconfig.messages_sent", "autopilot.messages_sent"},
      {"reconfig.retransmissions", "autopilot.retransmissions"},
  };
  const std::string hwm_suffix = ".fifo_hwm_bytes";
  reg.Visit("switch.", [&](const obs::MetricRegistry::Entry& e) {
    std::size_t dot = e.name.find('.', 7);
    if (dot == std::string::npos) {
      return;
    }
    std::string rest = e.name.substr(dot + 1);
    if (e.kind == obs::MetricKind::kGauge && rest.starts_with("fabric.port") &&
        rest.ends_with(hwm_suffix)) {
      double& hwm = (*counts)["fabric.fifo_hwm_bytes_max"];
      hwm = std::max(hwm, e.gauge.value());
      return;
    }
    auto it = kCounters.find(rest);
    if (e.kind == obs::MetricKind::kCounter && it != kCounters.end()) {
      (*counts)[it->second] += static_cast<double>(e.counter.value());
    }
  });
}

// The public Stats of every Autopilot, HostController and AutonetDriver.
void AddStatsCounts(Network& net, Counts* counts) {
  auto add = [counts](const char* name, std::uint64_t value) {
    (*counts)[name] += static_cast<double>(value);
  };
  for (int i = 0; i < net.num_switches(); ++i) {
    const autonet::Autopilot::Stats& s = net.autopilot_at(i).stats();
    add("autopilot.probes_sent", s.probes_sent);
    add("autopilot.probe_timeouts", s.probe_timeouts);
    add("autopilot.tables_loaded", s.tables_loaded);
    add("link.crc_errors", s.crc_errors);
  }
  for (int h = 0; h < net.num_hosts(); ++h) {
    const autonet::HostController::Stats& s = net.host_at(h).stats();
    add("host.packets_sent", s.packets_sent);
    add("host.packets_received", s.packets_received);
    add("host.tx_rejected_full", s.tx_rejected_full);
    add("host.rx_discarded_full", s.rx_discarded_full);
    add("link.crc_errors", s.rx_crc_errors);
    add("host.failovers", net.driver_at(h).stats().failovers);
  }
}

void AddSimCounts(Network& net, double pending_peak, Counts* counts) {
  (*counts)["sim.events"] += static_cast<double>(net.sim().events_processed());
  double& peak = (*counts)["sim.pending_peak"];
  peak = std::max(peak, pending_peak);
}

// Construct, boot to a consistent configuration, register every host: the
// set-up of bulk_srclan and rpc_reconfig.
std::unique_ptr<Network> BootNetwork(const TopoSpec& spec, Tracer* tracer,
                                     RepResult* out) {
  double c0 = ThreadCpuSeconds();
  std::unique_ptr<Network> net;
  {
    Tracer::Scope span(tracer, "Network::Network", "core");
    net = std::make_unique<Network>(spec);
  }
  double c1 = ThreadCpuSeconds();
  bool consistent = false;
  {
    Tracer::Scope span(tracer, "Boot+WaitForConsistency", "core");
    net->Boot();
    consistent = net->WaitForConsistency(net->sim().now() + 5 * 60 * kSecond);
  }
  Tick booted_at = net->sim().now();
  double c2 = ThreadCpuSeconds();
  bool registered = false;
  {
    Tracer::Scope span(tracer, "WaitForHostsRegistered", "core");
    registered = net->WaitForHostsRegistered(net->sim().now() + 30 * kSecond);
  }
  double c3 = ThreadCpuSeconds();
  out->probe_ms["core.construct_ms"] += (c1 - c0) * 1e3;
  out->probe_ms["core.boot_ms"] += (c2 - c1) * 1e3;
  out->probe_ms["core.register_ms"] += (c3 - c2) * 1e3;
  out->counts["core.sim_boot_ms"] += SimMs(booted_at);
  if (!consistent || !registered) {
    out->problems.push_back(
        "set-up: network not consistent and registered after boot");
  }
  return net;
}

// DumpMetricsJson and MergedLog: the exports every chaos run hashes.
void ObsProbes(const Network& net, Tracer* tracer, RepResult* out) {
  double c0 = ThreadCpuSeconds();
  {
    Tracer::Scope span(tracer, "Network::DumpMetricsJson", "obs");
    std::string json = net.DumpMetricsJson();
    if (json.empty()) {
      out->problems.push_back("DumpMetricsJson returned nothing");
    }
  }
  double c1 = ThreadCpuSeconds();
  {
    Tracer::Scope span(tracer, "Network::MergedLog", "obs");
    if (net.MergedLog().empty()) {
      out->problems.push_back("MergedLog returned nothing");
    }
  }
  out->probe_ms["obs.metrics_dump_ms"] += (c1 - c0) * 1e3;
  out->probe_ms["obs.merged_log_ms"] += CpuMsSince(c1);
}

// Times one oracle's Check() into chaos.oracle_ms.<oracle>.
std::string TimedCheck(chaos::Oracle& oracle, chaos::OracleContext& ctx,
                       Tracer* tracer, Counts* probe_ms) {
  std::string name = oracle.name();
  double c0 = ThreadCpuSeconds();
  std::string detail;
  {
    Tracer::Scope span(tracer, Intern("Oracle::Check " + name), "chaos");
    detail = oracle.Check(ctx);
  }
  (*probe_ms)["chaos.oracle_ms." + name] += CpuMsSince(c0);
  return detail;
}

// The standard oracle battery on the network a workload leaves behind:
// it must still converge, route legally and deliver.
void CheckOracles(Network& net, Tracer* tracer, RepResult* out) {
  chaos::OracleContext ctx;
  ctx.net = &net;
  ctx.deadline = net.sim().now() + 30 * kSecond +
                 2 * kSecond * chaos::HealthyDiameter(net);
  for (const auto& oracle : chaos::StandardOracles()) {
    std::string detail = TimedCheck(*oracle, ctx, tracer, &out->probe_ms);
    if (!detail.empty()) {
      out->counts["chaos.violations"] += 1;
      out->problems.push_back("oracle " + oracle->name() + ": " + detail);
    }
  }
}

// One step of traffic: `send` refills the sources, then `step` of
// simulated time runs.  The step's thread CPU time is a step_cpu_ms sample.
template <class Send>
void TrafficStep(Network& net, Tick step, Tracer* tracer, Send send,
                 double* pending_peak, RepResult* out) {
  double c0 = ThreadCpuSeconds();
  send();
  {
    Tracer::Scope span(tracer, "Network::Run", "sim");
    net.Run(step);
  }
  *pending_peak =
      std::max(*pending_peak, static_cast<double>(net.sim().pending()));
  out->step_cpu_ms.push_back(CpuMsSince(c0));
}

// ---------------------------------------------------------------------------
// bulk_srclan: 16 seed-chosen host pairs on the 30-switch SRC LAN, each a
// closed loop of 1500-byte packets that refills whenever the driver accepts
// one (the transmit buffer is the backpressure).  Fault-free: links, the
// forwarder and the FCFC scheduler do the work; Autopilot only probes.
//
// Each flow crosses one seed-chosen cable in one direction, from a host on
// one end to a host on the other, and no two flows share a cable direction,
// a sending host or a receiving host.  So every flow owns its path and every
// seed asks for the same work.  Flows that contend stop their sending hosts,
// and under that backpressure a switch's host-port FIFO has been seen to
// overflow and lose packets (hwm 4098 of 4096 bytes); the workload keeps
// clear of that defect rather than fail on it.
class BulkSrclan : public Workload {
 public:
  explicit BulkSrclan(std::uint64_t seed) : spec_(autonet::MakeSrcLan()) {
    std::mt19937_64 rng(seed);
    std::vector<std::pair<int, int>> directed;
    for (const TopoSpec::CableSpec& c : spec_.cables) {
      directed.emplace_back(c.sw_a, c.sw_b);
      directed.emplace_back(c.sw_b, c.sw_a);
    }
    Shuffle(&directed, &rng);
    std::vector<std::vector<int>> hosts_on(spec_.switches.size());
    for (std::size_t h = 0; h < spec_.hosts.size(); ++h) {
      hosts_on[static_cast<std::size_t>(spec_.hosts[h].primary_switch)]
          .push_back(static_cast<int>(h));
    }
    std::vector<bool> sending(spec_.hosts.size());
    std::vector<bool> receiving(spec_.hosts.size());
    auto pick = [&](int sw, const std::vector<bool>& used) {
      std::vector<int> free;
      for (int h : hosts_on[static_cast<std::size_t>(sw)]) {
        if (!used[static_cast<std::size_t>(h)]) {
          free.push_back(h);
        }
      }
      return free.empty() ? -1 : free[rng() % free.size()];
    };
    for (const auto& [from, to] : directed) {
      int src = pick(from, sending);
      int dst = pick(to, receiving);
      if (src >= 0 && dst >= 0 && pairs_.size() < kFlows) {
        sending[static_cast<std::size_t>(src)] = true;
        receiving[static_cast<std::size_t>(dst)] = true;
        pairs_.emplace_back(src, dst);
      }
    }
  }

  double nominal_rep_seconds() const override { return 4.0; }

  void SetUp() override {
    RepResult ignored;
    BootNetwork(spec_, nullptr, &ignored);
  }

  RepResult Rep(Tracer* tracer) override {
    RepResult out;
    struct Flow {
      int src;
      int dst;
      autonet::Uid src_uid;
      std::uint32_t accepted = 0;
      std::uint32_t delivered = 0;
      std::vector<bool> seen;  // by sequence number - 1
    };
    std::vector<Flow> flows;
    std::uint64_t bad = 0;
    std::uint64_t in_window = 0;
    Tick window_end = 0;

    std::unique_ptr<Network> net = BootNetwork(spec_, tracer, &out);
    Network& n = *net;
    double boot_wave = SimMs(n.LastReconfig().Duration());
    for (const auto& [src, dst] : pairs_) {
      flows.push_back({src, dst, n.host_at(src).uid(), 0, 0, {}});
    }
    n.SetClientDeliveryHook([&](int host, const Delivery& d) {
      const autonet::Packet& p = *d.packet;
      if (p.ether_type != autonet::kHookOnlyEtherType) {
        return;
      }
      std::uint64_t tag = 0;
      for (std::size_t i = 0; i < 8 && i < p.payload.size(); ++i) {
        tag = tag << 8 | p.payload[i];
      }
      // Exactly once, intact, to the flow's destination from its source.
      // Order is not checked: the first packets of a flow may overtake each
      // other while the hosts' routes settle.
      std::size_t f = (tag >> 32) & 0xFFFF;
      std::uint64_t seq = tag & 0xFFFFFFFF;
      bool ok = (tag >> 56) == kTagMagic && f < flows.size() &&
                host == flows[f].dst && p.src_uid == flows[f].src_uid &&
                seq >= 1 && seq <= flows[f].accepted &&
                !flows[f].seen[seq - 1] && d.intact() &&
                p.payload.size() == kPacketBytes &&
                std::all_of(p.payload.begin() + 8, p.payload.end(),
                            [](std::uint8_t b) { return b == 0xD5; });
      if (!ok) {
        ++bad;
        return;
      }
      flows[f].seen[seq - 1] = true;
      ++flows[f].delivered;
      if (d.delivered_at <= window_end) {
        ++in_window;
      }
    });

    auto refill = [&] {
      for (std::size_t f = 0; f < flows.size(); ++f) {
        Flow& flow = flows[f];
        for (;;) {
          std::uint64_t tag = kTagMagic << 56 | std::uint64_t{f} << 32 |
                              (flow.accepted + 1u);
          bool accepted = false;
          {
            Tracer::Scope span(tracer, "Network::SendTagged", "host");
            accepted = n.SendTagged(flow.src, flow.dst, kPacketBytes,
                                    autonet::kHookOnlyEtherType, tag);
          }
          if (!accepted) {
            break;
          }
          ++flow.accepted;
          flow.seen.push_back(false);
        }
      }
    };
    auto undelivered = [&] {
      std::uint64_t missing = 0;
      for (const Flow& flow : flows) {
        missing += flow.accepted - flow.delivered;
      }
      return missing;
    };

    double pending_peak = 0;
    double c0 = ProcessCpuSeconds();
    Tick sim0 = n.sim().now();
    window_end = sim0 + kTrafficMs * kMillisecond;
    {
      Tracer::Scope span(tracer, "bulk traffic", "bench");
      while (n.sim().now() < window_end) {
        TrafficStep(n, kStep, tracer, refill, &pending_peak, &out);
      }
      Tick give_up = n.sim().now() + 2 * kSecond;
      while (undelivered() > 0 && n.sim().now() < give_up) {
        TrafficStep(n, kStep, tracer, [] {}, &pending_peak, &out);
      }
    }
    out.cpu_s = ProcessCpuSeconds() - c0;
    out.sim_s = SimMs(n.sim().now() - sim0) / 1e3;
    n.SetClientDeliveryHook(nullptr);

    for (const Flow& flow : flows) {
      out.attempted += flow.accepted;
      out.ops += flow.delivered;
    }
    out.failed = undelivered();
    out.payload_bytes = out.ops * kPacketBytes;
    if (out.failed > 0) {
      out.problems.push_back(std::to_string(out.failed) +
                             " accepted packets never delivered intact");
    }
    if (bad > 0) {
      out.problems.push_back(std::to_string(bad) +
                             " deliveries damaged, duplicated or "
                             "misattributed");
    }
    out.model["model.sim_goodput_mbps"] =
        static_cast<double>(in_window * kPacketBytes * 8) /
        (kTrafficMs * 1e-3) / 1e6;
    out.model["model.reconfig_ms_p50"] = boot_wave;
    out.model["model.reconfig_ms_p90"] = boot_wave;
    out.model["model.sim_s"] = out.sim_s;
    out.model["model.ops"] = out.ops;

    AddRegistryCounts(n.sim().metrics(), &out.counts);
    AddStatsCounts(n, &out.counts);
    AddSimCounts(n, pending_peak, &out.counts);
    ObsProbes(n, tracer, &out);
    CheckOracles(n, tracer, &out);
    return out;
  }

 private:
  static constexpr std::size_t kFlows = 16;
  static constexpr std::size_t kPacketBytes = 1500;
  static constexpr int kTrafficMs = 40;
  // A quarter millisecond: the sources refill often enough to stay
  // saturated, and a rep has enough steps for a p90 with ten beyond it.
  static constexpr Tick kStep = kMillisecond / 4;
  static constexpr std::uint64_t kTagMagic = 0xB5;

  TopoSpec spec_;
  std::vector<std::pair<int, int>> pairs_;
};

// ---------------------------------------------------------------------------
// rpc_reconfig: a closed-loop RPC fleet (128 B request, 32 B response,
// window 1) on a 6-switch ring, through steady state, a seed-chosen cable
// cut, reconfiguration under load, recovery and drain.  Small packets make
// the per-packet host, driver and workload costs dominate, and Autopilot
// competes with data traffic.
class RpcReconfig : public Workload {
 public:
  explicit RpcReconfig(std::uint64_t seed) : spec_(autonet::MakeRing(6, 1)) {
    // Cutting cable 1 or cable 5 leaves the same work (they mirror each
    // other on this ring).  The other cables, or the same cables cut a
    // fraction of a millisecond later, give outages of 250 or 750 ms and op
    // counts up to 1.5x apart, which would turn the seed into a workload
    // knob.
    std::mt19937_64 rng(seed);
    cut_cable_ = rng() % 2 == 0 ? 1 : 5;
    std::string error;
    if (!workload::ParseSpecText("rpc bytes 128 response 32 window 1", &wspec_,
                                 &error)) {
      wspec_ = workload::Spec();
    }
  }

  double nominal_rep_seconds() const override { return 5.0; }

  void SetUp() override {
    RepResult ignored;
    BootNetwork(spec_, nullptr, &ignored);
  }

  RepResult Rep(Tracer* tracer) override {
    RepResult out;
    std::unique_ptr<Network> net = BootNetwork(spec_, tracer, &out);
    Network& n = *net;
    if (!wspec_.enabled()) {
      out.problems.push_back("rpc workload spec did not parse");
      return out;
    }
    double pending_peak = 0;
    double c0 = ProcessCpuSeconds();
    Tick sim0 = n.sim().now();
    workload::SloReport slo;
    double reconfig_ms = -1;
    {
      Tracer::Scope rep_span(tracer, "rpc fleet", "bench");
      workload::WorkloadEngine engine(&n, wspec_, workload::SloBudgetConfig{},
                                      chaos::HealthyDiameter(n));
      {
        Tracer::Scope span(tracer, "WorkloadEngine::Start", "workload");
        engine.Start();
      }
      auto none = [] {};
      for (int ms = 0; ms < kPhaseMs; ++ms) {
        TrafficStep(n, kMillisecond, tracer, none, &pending_peak, &out);
      }
      engine.SetPhase(workload::Phase::kFault);
      n.CutCable(cut_cable_);
      bool consistent = false;
      {
        Tracer::Scope span(tracer, "Network::WaitForConsistency", "sim");
        consistent = n.WaitForConsistency(n.sim().now() + 60 * kSecond);
      }
      if (!consistent) {
        out.problems.push_back("no consistent configuration after the cut");
      }
      reconfig_ms = SimMs(n.LastReconfig().Duration());
      engine.SetPhase(workload::Phase::kRecovery);
      for (int ms = 0; ms < kPhaseMs; ++ms) {
        TrafficStep(n, kMillisecond, tracer, none, &pending_peak, &out);
      }
      engine.Stop();
      Tick give_up = n.sim().now() + 2 * kSecond;
      while (!engine.Drained() && n.sim().now() < give_up) {
        TrafficStep(n, kMillisecond, tracer, none, &pending_peak, &out);
      }
      double f0 = ThreadCpuSeconds();
      {
        Tracer::Scope span(tracer, "WorkloadEngine::Finalize", "workload");
        slo = engine.Finalize();
      }
      out.probe_ms["workload.finalize_ms"] += CpuMsSince(f0);
    }
    out.cpu_s = ProcessCpuSeconds() - c0;
    out.sim_s = SimMs(n.sim().now() - sim0) / 1e3;

    out.ops = static_cast<double>(slo.completed);
    out.payload_bytes = out.ops * static_cast<double>(wspec_.data_bytes +
                                                      wspec_.response_bytes);
    out.attempted = slo.offered;
    out.failed = slo.recovery_lost + slo.damaged;
    if (out.failed > 0) {
      out.problems.push_back(std::to_string(slo.recovery_lost) +
                             " ops lost forever, " +
                             std::to_string(slo.damaged) + " damaged");
    }
    for (const auto& [oracle, detail] : workload::JudgeSlo(slo)) {
      out.problems.push_back(oracle + ": " + detail);
    }
    out.model["model.sim_goodput_mbps"] =
        out.payload_bytes * 8 / out.sim_s / 1e6;
    out.model["model.reconfig_ms_p50"] = reconfig_ms;
    out.model["model.reconfig_ms_p90"] = reconfig_ms;
    out.model["model.outage_ms_max"] = slo.max_outage_ms;
    out.model["model.rpc_p999_ms"] = slo.steady_latency_ms.Percentile(99.9);
    out.model["model.recovery_p999_ms"] =
        slo.recovery_latency_ms.Percentile(99.9);
    out.model["model.sim_s"] = out.sim_s;
    out.model["model.ops"] = out.ops;
    out.counts["workload.ops_offered"] = static_cast<double>(slo.offered);
    out.counts["workload.ops_completed"] = static_cast<double>(slo.completed);
    out.counts["workload.timeouts"] = static_cast<double>(slo.timeouts);

    AddRegistryCounts(n.sim().metrics(), &out.counts);
    AddStatsCounts(n, &out.counts);
    AddSimCounts(n, pending_peak, &out.counts);
    ObsProbes(n, tracer, &out);
    CheckOracles(n, tracer, &out);
    return out;
  }

 private:
  static constexpr int kPhaseMs = 200;

  TopoSpec spec_;
  workload::Spec wspec_;
  int cut_cable_ = 0;
};

// ---------------------------------------------------------------------------
// chaos_baseline: the committed 195-run campaign (13-scenario default corpus
// x line6/ring8/torus3x3 x seeds 0-4, no workload) through chaos::RunOne on
// one thread.  The campaign itself is fixed so every run's fingerprints can
// be checked against chaos-report.json; the workload seed only permutes the
// order the runs execute in.
class ChaosBaseline : public Workload {
 public:
  explicit ChaosBaseline(std::uint64_t seed) : seed_(seed) {}

  double nominal_rep_seconds() const override { return 8.0; }

  void SetUp() override {
    chaos::CampaignConfig config;
    std::vector<Key> keys;
    BuildRunList(&config, &keys);
  }

  RepResult Rep(Tracer* tracer) override {
    RepResult out;
    chaos::CampaignConfig config;
    std::vector<Key> keys;
    {
      Tracer::Scope span(tracer, "build run list", "chaos");
      BuildRunList(&config, &keys);
    }

    // Boot and export probes on each campaign topology, outside the
    // measured phase.
    for (const chaos::TopologyCase& t : config.topologies) {
      RepResult probe;
      std::unique_ptr<Network> net = BootNetwork(t.spec, tracer, &probe);
      ObsProbes(*net, tracer, &probe);
      for (const auto& [k, v] : probe.probe_ms) {
        out.probe_ms[k] += v;
      }
      out.counts["core.sim_boot_ms"] += probe.counts["core.sim_boot_ms"];
      out.problems.insert(out.problems.end(), probe.problems.begin(),
                          probe.problems.end());
    }

    // The oracle battery, wrapped so each Check() is timed and the network
    // it judged is read once the battery has run.  Reads only: the run's
    // log and metrics fingerprints are unchanged.
    struct RunProbe {
      Counts counts;
      double sim_s = 0;
      double events = 0;
      double pending = 0;
    };
    RunProbe probe;
    class TimedOracle : public chaos::Oracle {
     public:
      TimedOracle(std::unique_ptr<chaos::Oracle> inner, Tracer* tracer,
                  Counts* probe_ms, RunProbe* probe)
          : inner_(std::move(inner)),
            tracer_(tracer),
            probe_ms_(probe_ms),
            probe_(probe) {}
      std::string name() const override { return inner_->name(); }
      std::string Check(chaos::OracleContext& ctx) override {
        std::string detail = TimedCheck(*inner_, ctx, tracer_, probe_ms_);
        Network& net = *ctx.net;
        probe_->counts.clear();
        AddStatsCounts(net, &probe_->counts);
        probe_->sim_s = SimMs(net.sim().now()) / 1e3;
        probe_->events = static_cast<double>(net.sim().events_processed());
        probe_->pending = std::max(probe_->pending,
                                   static_cast<double>(net.sim().pending()));
        return detail;
      }

     private:
      std::unique_ptr<chaos::Oracle> inner_;
      Tracer* tracer_;
      Counts* probe_ms_;
      RunProbe* probe_;
    };
    config.oracles = [&] {
      std::vector<std::unique_ptr<chaos::Oracle>> battery;
      for (auto& oracle : chaos::StandardOracles()) {
        battery.push_back(std::make_unique<TimedOracle>(
            std::move(oracle), tracer, &out.probe_ms, &probe));
      }
      return battery;
    };

    obs::MetricRegistry merged;
    Histogram reconfig_ms;
    out.chaos_runs.resize(keys.size());
    double c0 = ProcessCpuSeconds();
    for (const Key& key : keys) {
      probe = RunProbe();
      double t0 = ThreadCpuSeconds();
      chaos::RunResult r;
      {
        Tracer::Scope span(tracer, "chaos::RunOne", "chaos");
        r = chaos::RunOne(config, *key.scenario, *key.topo, key.seed, &merged);
      }
      out.step_cpu_ms.push_back(CpuMsSince(t0));
      out.sim_s += probe.sim_s;
      for (const auto& [k, v] : probe.counts) {
        out.counts[k] += v;
      }
      out.counts["sim.events"] += probe.events;
      double& peak = out.counts["sim.pending_peak"];
      peak = std::max(peak, probe.pending);
      if (r.reconfig_ms >= 0) {
        reconfig_ms.Add(r.reconfig_ms);
      }
      ++out.attempted;
      if (!r.ok) {
        ++out.failed;
      }
      for (const chaos::Violation& v : r.violations) {
        out.counts["chaos.violations"] += 1;
        out.problems.push_back(v.reproducer + ": " + v.oracle + ": " +
                               v.detail);
      }
      out.chaos_runs[key.index] = {r.scenario, r.topology, r.seed,
                                   r.ok,       r.log_hash, r.metrics_hash};
    }
    out.cpu_s = ProcessCpuSeconds() - c0;
    out.ops = static_cast<double>(keys.size());
    AddRegistryCounts(merged, &out.counts);
    out.model["model.reconfig_ms_p50"] = reconfig_ms.Percentile(50);
    out.model["model.reconfig_ms_p90"] = reconfig_ms.Percentile(90);
    out.model["model.sim_s"] = out.sim_s;
    out.model["model.ops"] = out.ops;
    return out;
  }

 private:
  struct Key {
    std::size_t index;  // position in corpus order
    const chaos::Scenario* scenario;
    const chaos::TopologyCase* topo;
    std::uint64_t seed;
  };

  // The campaign (default corpus x standard topologies x seeds 0-4) as a
  // list of runs in the seed's order.  Keys point into `config`.
  void BuildRunList(chaos::CampaignConfig* config,
                    std::vector<Key>* keys) const {
    config->jobs = 1;
    config->scenarios = chaos::DefaultCorpus();
    for (const std::string& name : chaos::StandardTopologyNames()) {
      std::string error;
      config->topologies.push_back({name, chaos::TopologyByName(name, &error)});
    }
    for (std::uint64_t s = 0; s < kCampaignSeeds; ++s) {
      config->seeds.push_back(s);
    }
    for (const chaos::Scenario& s : config->scenarios) {
      for (const chaos::TopologyCase& t : config->topologies) {
        for (std::uint64_t seed : config->seeds) {
          keys->push_back({keys->size(), &s, &t, seed});
        }
      }
    }
    std::mt19937_64 rng(seed_);
    Shuffle(keys, &rng);
  }

  static constexpr std::uint64_t kCampaignSeeds = 5;

  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "bulk_srclan") {
    return std::make_unique<BulkSrclan>(seed);
  }
  if (name == "chaos_baseline") {
    return std::make_unique<ChaosBaseline>(seed);
  }
  if (name == "rpc_reconfig") {
    return std::make_unique<RpcReconfig>(seed);
  }
  return nullptr;
}

std::map<std::string, double> RoutingProbes(Tracer* tracer) {
  const std::vector<std::pair<std::string, TopoSpec>> topologies = {
      {"srclan30", autonet::MakeSrcLan()},
      {"ring6", autonet::MakeRing(6, 1)},
      {"line6", autonet::MakeLine(6, 1)},
      {"ring8", autonet::MakeRing(8, 1)},
      {"torus3x3", autonet::MakeTorus(3, 3, 1)},
  };
  constexpr int kRepeats = 25;
  std::map<std::string, double> us;
  for (const auto& [name, spec] : topologies) {
    const autonet::NetTopology expected = spec.ExpectedTopology();
    std::vector<double> samples;
    for (int i = 0; i < kRepeats; ++i) {
      Tracer::Scope span(tracer, "routing table build", "routing");
      double c0 = ThreadCpuSeconds();
      autonet::NetTopology topo = expected;
      autonet::AssignSwitchNumbers(&topo);
      autonet::SpanningTree tree = autonet::ComputeSpanningTree(topo);
      std::vector<autonet::ForwardingTable> tables;
      for (int s = 0; s < topo.size(); ++s) {
        tables.push_back(autonet::BuildForwardingTable(topo, tree, s));
      }
      samples.push_back((ThreadCpuSeconds() - c0) * 1e6);
    }
    std::nth_element(samples.begin(), samples.begin() + kRepeats / 2,
                     samples.end());
    us["routing.table_build_us." + name] = samples[kRepeats / 2];
  }
  return us;
}

}  // namespace perfbench
