// E12 — The skeptics (sections 4.4, 6.5.5).
//
// Paper: "Two algorithms in Autopilot prevent links that exhibit
// intermittent errors from causing reconfigurations too frequently...
// faults are responded to quickly but intermittent switches or links are
// ignored for progressively longer periods."
//
// We flap one cable of a 6-switch torus at several periods and count the
// reconfigurations per minute of flapping, with the paper's skeptics
// against a no-hysteresis baseline (constant minimal holddown).  We also
// report the time to accept the link again after the flapping stops — the
// responsiveness/stability trade.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/network.h"
#include "src/topo/spec.h"

namespace autonet {
namespace {

struct FlapResult {
  double reconfigs_per_minute = 0;
  double reaccept_seconds = 0;
};

FlapResult RunFlap(Tick flap_period, bool with_skeptics) {
  NetworkConfig config;
  config.start_drivers = false;
  if (!with_skeptics) {
    // Baseline: constant, minimal holddowns — every flap is believed.
    config.autopilot.status_holddown_max = kStatusHolddownBase;
    config.autopilot.conn_holddown_max = kConnHolddownBase;
  }
  Network net(MakeTorus(2, 3, 0), config);
  net.Boot();
  if (!net.WaitForConsistency(5 * 60 * kSecond)) {
    return {};
  }

  auto total_triggers = [&] {
    std::uint64_t t = 0;
    for (int i = 0; i < net.num_switches(); ++i) {
      t += net.autopilot_at(i).engine().stats().triggers;
    }
    return t;
  };

  std::uint64_t before = total_triggers();
  const Tick kFlapWindow = 30 * kSecond;
  Tick end = net.sim().now() + kFlapWindow;
  while (net.sim().now() < end) {
    net.CutCable(0);
    net.Run(flap_period / 2);
    net.RestoreCable(0);
    net.Run(flap_period / 2);
  }
  std::uint64_t during = total_triggers() - before;

  FlapResult result;
  result.reconfigs_per_minute =
      static_cast<double>(during) * 60.0 /
      (static_cast<double>(kFlapWindow) / 1e9);

  // Flapping over; how long until the link is trusted and the network is
  // whole again?
  net.RestoreCable(0);
  Tick heal_start = net.sim().now();
  if (net.WaitForConsistency(heal_start + 30 * 60 * kSecond,
                             500 * kMillisecond)) {
    result.reaccept_seconds =
        static_cast<double>(net.sim().now() - heal_start) / 1e9;
  } else {
    result.reaccept_seconds = -1;
  }
  return result;
}

}  // namespace
}  // namespace autonet

int main() {
  using namespace autonet;
  bench::Title("E12", "skeptic hysteresis under link flapping (sec 6.5.5)");
  bench::Row("  %-12s %22s %22s", "flap period", "reconfigs/min (skeptics)",
             "reconfigs/min (none)");
  for (Tick period : {400 * kMillisecond, kSecond, 4 * kSecond}) {
    FlapResult with = RunFlap(period, /*with_skeptics=*/true);
    FlapResult without = RunFlap(period, /*with_skeptics=*/false);
    bench::Row("  %8.1f s %22.1f %22.1f",
               static_cast<double>(period) / 1e9, with.reconfigs_per_minute,
               without.reconfigs_per_minute);
    bench::Row("  %12s %19.1f s %21.1f s", "(re-accept)",
               with.reaccept_seconds, without.reaccept_seconds);
  }
  bench::Row("\nshape check: without hysteresis every flap costs two network-");
  bench::Row("wide reconfigurations; the skeptics suppress the intermittent");
  bench::Row("link for progressively longer holddowns, at the price of a");
  bench::Row("longer re-acceptance delay once the link is genuinely repaired.");
  return 0;
}
