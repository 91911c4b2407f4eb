// The installation-planning workflow the paper wanted site personnel to
// have (section 7): size a fabric for a host population, check the
// availability and capacity claims analytically, then *prove them live* by
// booting the planned network, running traffic, and killing hardware.
#include <cstdio>

#include "src/core/network.h"
#include "src/topo/planner.h"
#include "src/workload/engine.h"

using namespace autonet;

int main() {
  InstallationRequirements req;
  req.hosts = 48;
  req.dual_homed = true;
  req.growth_headroom = 0.25;

  InstallationPlan plan = PlanInstallation(req);
  if (!plan.feasible) {
    std::printf("planning failed: %s\n", plan.error.c_str());
    return 1;
  }
  std::printf("%s\n", plan.Summary().c_str());

  std::printf("commissioning the planned installation...\n");
  Network net(plan.spec);
  net.Boot();
  if (!net.WaitForConsistency(5 * 60 * kSecond, 200 * kMillisecond) ||
      !net.WaitForHostsRegistered(net.sim().now() + 60 * kSecond)) {
    std::printf("network failed to converge\n");
    return 1;
  }
  std::printf("  up in %.2f simulated seconds\n\n", net.sim().now() / 1e9);

  // Acceptance test 1: aggregate throughput under permutation load.  The
  // rpc fleet's flows are the stride-N/2 permutation, each keeping its
  // request window full.
  workload::Spec spec;
  spec.kind = workload::Kind::kRpc;
  spec.data_bytes = 4000;
  workload::WorkloadEngine engine(&net, spec, workload::SloBudgetConfig{},
                                  plan.diameter);
  const Tick duration = 20 * kMillisecond;
  engine.Start();
  net.Run(duration);
  const std::uint64_t completed = engine.ops_completed();
  engine.Stop();
  net.Run(50 * kMillisecond);
  workload::SloReport report = engine.Finalize();
  const double mbps = static_cast<double>(completed * spec.data_bytes) * 8 /
                      (static_cast<double>(duration) / kSecond) / 1e6;
  std::printf("acceptance: permutation traffic\n");
  std::printf("  goodput %.0f Mbit/s, %llu/%llu ops completed, "
              "p99 latency %.3f ms\n\n",
              mbps, static_cast<unsigned long long>(report.completed),
              static_cast<unsigned long long>(report.offered),
              report.steady_latency_ms.Percentile(99));
  if (completed == 0 || report.damaged != 0) {
    std::printf("permutation traffic failed: %llu damaged\n",
                static_cast<unsigned long long>(report.damaged));
    return 1;
  }

  // Acceptance test 2: the availability promise.  Kill a switch; every
  // host must still be reachable after failover.
  std::printf("acceptance: single switch failure\n");
  net.CrashSwitch(plan.switches / 2);
  net.WaitForConsistency(net.sim().now() + 5 * 60 * kSecond,
                         200 * kMillisecond);
  net.Run(15 * kSecond);  // failover timers
  net.WaitForHostsRegistered(net.sim().now() + 60 * kSecond);
  int reachable = 0;
  net.ClearInboxes();
  for (int h = 1; h < net.num_hosts(); ++h) {
    net.SendData(0, h, 64);
  }
  net.Run(50 * kMillisecond);
  for (int h = 1; h < net.num_hosts(); ++h) {
    reachable += net.inbox(h).empty() ? 0 : 1;
  }
  std::printf("  %d/%d hosts reachable from host 0 after the crash\n",
              reachable, net.num_hosts() - 1);
  return reachable == net.num_hosts() - 1 ? 0 : 1;
}
