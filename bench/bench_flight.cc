// The flight recorder's overhead gate.  A stream of 1500-byte packets
// crosses five switch hops on a 6-switch line, once with the recorder
// disarmed (the default) and once armed.  Both runs come from the same
// binary on the same machine, so their ratio does not depend on how fast
// the machine is.  One run of each is too noisy for a 5% bound, so the
// process makes kPairs pairs, alternating which mode goes first.  A slow
// spell of a shared machine lasts seconds and so mostly covers both runs
// of a pair: the gate takes the median over pairs of each pair's ratio of
// armed to disarmed events per CPU-second, and exits 1 when it falls below
// kMinRatio.  Writes BENCH_FLIGHT.json.
#include <algorithm>
#include <ctime>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/network.h"
#include "src/topo/spec.h"

namespace autonet {
namespace {

constexpr int kPackets = 512;
constexpr int kPairs = 31;
constexpr double kMinRatio = 0.95;

// Process CPU time, not wall time: on a shared machine the wall clock
// measures the neighbours as much as the code.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

struct Sample {
  double cpu = 0.0;
  std::uint64_t events = 0;
  double sim_ms = 0.0;
};

bool RunMultiHop(bool arm_flight, Sample* out) {
  constexpr std::size_t kBytes = 1500;
  Network net(MakeLine(6, 1));
  if (arm_flight) {
    net.sim().flight().Arm();
  }
  net.Boot();
  if (!net.WaitForConsistency(5 * 60 * kSecond) ||
      !net.WaitForHostsRegistered(net.sim().now() + 30 * kSecond)) {
    return false;
  }
  int dst = net.num_hosts() - 1;
  double c0 = CpuSeconds();
  std::uint64_t ev0 = net.sim().events_processed();
  Tick sim0 = net.sim().now();
  int sent = 0;
  Tick give_up = net.sim().now() + 60 * kSecond;
  while (static_cast<int>(net.inbox(dst).size()) < kPackets &&
         net.sim().now() < give_up) {
    while (sent < kPackets && net.SendData(0, dst, kBytes)) {
      ++sent;
    }
    net.Run(kMillisecond);
  }
  out->cpu = CpuSeconds() - c0;
  out->events = net.sim().events_processed() - ev0;
  out->sim_ms = static_cast<double>(net.sim().now() - sim0) / 1e6;
  return static_cast<int>(net.inbox(dst).size()) == kPackets;
}

double EventsPerCpuSecond(const Sample& s) {
  return static_cast<double>(s.events) / s.cpu;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Prints and records one mode at its median CPU time.
void ReportMode(bench::JsonReport* report, bool arm_flight,
                const std::vector<Sample>& samples) {
  std::vector<double> cpus;
  for (const Sample& s : samples) {
    cpus.push_back(s.cpu);
  }
  double cpu = Median(cpus);
  const Sample& first = samples.front();
  double ev_per_s = static_cast<double>(first.events) / cpu;
  bench::Row("  multi-hop %-8s: %7.2f M events/s  (%d pkts, %llu events, "
             "%.1f sim-ms, median %.3f cpu-s of %d)",
             arm_flight ? "armed" : "disarmed", ev_per_s / 1e6, kPackets,
             static_cast<unsigned long long>(first.events), first.sim_ms, cpu,
             kPairs);
  report->rows().BeginObject();
  report->rows().Key("workload").String(
      arm_flight ? "multihop_traffic_flight" : "multihop_traffic");
  report->rows().Key("packets").Int(kPackets);
  report->rows().Key("events").UInt(first.events);
  report->rows().Key("cpu_s").Number(cpu);
  report->rows().Key("sim_ms").Number(first.sim_ms);
  report->rows().Key("events_per_s").Number(ev_per_s);
  report->rows().EndObject();
}

}  // namespace
}  // namespace autonet

int main() {
  using namespace autonet;
  bench::Title("FLIGHT", "flight-recorder overhead on multi-hop traffic");
  std::vector<Sample> disarmed(kPairs);
  std::vector<Sample> armed(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    // Even pairs run disarmed first, odd pairs armed first, so a slow spell
    // of the machine falls on both modes alike.
    bool armed_first = i % 2 == 1;
    if (!RunMultiHop(armed_first, armed_first ? &armed[i] : &disarmed[i]) ||
        !RunMultiHop(!armed_first, armed_first ? &disarmed[i] : &armed[i])) {
      bench::Row("  multi-hop: network failed to boot or deliver");
      return 1;
    }
  }
  std::vector<double> ratios;
  for (int i = 0; i < kPairs; ++i) {
    ratios.push_back(EventsPerCpuSecond(armed[i]) /
                     EventsPerCpuSecond(disarmed[i]));
  }
  double ratio = Median(ratios);
  bench::JsonReport report("FLIGHT");
  ReportMode(&report, false, disarmed);
  ReportMode(&report, true, armed);
  report.rows().BeginObject();
  report.rows().Key("workload").String("flight_overhead");
  report.rows().Key("pairs").Int(kPairs);
  report.rows().Key("median_pair_ratio").Number(ratio);
  report.rows().EndObject();
  report.Write();
  bool ok = ratio >= kMinRatio;
  bench::Row("%s armed/disarmed events per cpu-s, median of %d pairs: %.3f "
             "(bound %.2f)",
             ok ? "ok  " : "FAIL", kPairs, ratio, kMinRatio);
  return ok ? 0 : 1;
}
