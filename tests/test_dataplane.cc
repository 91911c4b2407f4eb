// Data-plane exactness.  Under contended load, receive FIFOs never
// overflow on a fault-free fabric and every accepted packet is delivered
// intact exactly once.  And deferred byte delivery is invisible: runs in
// the per-byte reference mode, where every link byte is an event of its
// own, observe exactly what the default runs observe.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "src/chaos/corpus.h"
#include "src/chaos/runner.h"
#include "src/common/hash.h"
#include "src/core/network.h"
#include "src/topo/spec.h"

namespace autonet {
namespace {

struct BulkOutcome {
  std::uint64_t accepted = 0;
  std::uint64_t delivered = 0;
  // Deliveries damaged, duplicated or misattributed.
  std::uint64_t bad = 0;
  std::uint64_t overflows = 0;
  // Where the worst receive FIFO peaked, and its capacity.
  std::size_t max_occupancy = 0;
  std::size_t capacity = 0;
  // The run's fingerprints, as chaos::RunOne computes them.
  std::uint64_t log_hash = 0;
  std::uint64_t metrics_hash = 0;
  std::uint64_t data_hash = 0;
};

// The contended bulk probe: the SRC LAN with 16 unrestricted random host
// pairs from std::mt19937_64(seed), so flows share cables and hosts.  Each
// pair runs a saturating closed loop of 1500-byte tagged packets for
// `traffic`, refilled every 0.25 ms, then gets up to 2 s to drain.
BulkOutcome RunContendedBulk(std::uint64_t seed, Tick traffic,
                             bool per_byte_reference = false) {
  constexpr std::size_t kFlows = 16;
  constexpr std::size_t kPacketBytes = 1500;
  constexpr Tick kStep = kMillisecond / 4;
  Network net(MakeSrcLan());
  net.sim().SetPerByteReference(per_byte_reference);
  EXPECT_EQ(chaos::BootToBaseline(net), "");

  struct Flow {
    int src;
    int dst;
    std::uint32_t accepted = 0;
    std::vector<bool> seen;  // by sequence number - 1
  };
  std::vector<Flow> flows;
  std::mt19937_64 rng(seed);
  const auto hosts = static_cast<std::uint64_t>(net.num_hosts());
  while (flows.size() < kFlows) {
    int a = static_cast<int>(rng() % hosts);
    int b = static_cast<int>(rng() % hosts);
    if (a != b) {
      flows.push_back({a, b, 0, {}});
    }
  }

  BulkOutcome out;
  net.SetClientDeliveryHook([&](int host, const Delivery& d) {
    const Packet& p = *d.packet;
    if (p.ether_type != kHookOnlyEtherType) {
      return;
    }
    std::uint64_t tag = 0;
    for (std::size_t i = 0; i < 8 && i < p.payload.size(); ++i) {
      tag = tag << 8 | p.payload[i];
    }
    std::size_t f = tag >> 32;
    std::uint64_t seq = tag & 0xFFFFFFFF;
    if (f >= flows.size() || host != flows[f].dst || !d.intact() ||
        seq < 1 || seq > flows[f].accepted || flows[f].seen[seq - 1]) {
      ++out.bad;
      return;
    }
    flows[f].seen[seq - 1] = true;
    ++out.delivered;
  });
  auto refill = [&] {
    for (std::size_t f = 0; f < flows.size(); ++f) {
      Flow& flow = flows[f];
      while (net.SendTagged(flow.src, flow.dst, kPacketBytes,
                            kHookOnlyEtherType,
                            std::uint64_t{f} << 32 | (flow.accepted + 1u))) {
        ++flow.accepted;
        flow.seen.push_back(false);
        ++out.accepted;
      }
    }
  };
  const Tick window_end = net.sim().now() + traffic;
  while (net.sim().now() < window_end) {
    refill();
    net.Run(kStep);
  }
  const Tick give_up = net.sim().now() + 2 * kSecond;
  while (out.delivered + out.bad < out.accepted && net.sim().now() < give_up) {
    net.Run(kStep);
  }
  net.SetClientDeliveryHook(nullptr);

  for (int s = 0; s < net.num_switches(); ++s) {
    for (PortNum p = kFirstExternalPort; p < kPortsPerSwitch; ++p) {
      PortFifo& fifo = net.switch_at(s).link_unit(p).fifo();
      out.overflows += fifo.overflow_count();
      if (fifo.max_occupancy() >= out.max_occupancy) {
        out.max_occupancy = fifo.max_occupancy();
        out.capacity = fifo.capacity();
      }
    }
  }
  out.log_hash = chaos::HashMergedLog(net);
  out.metrics_hash = Fnv1a(kFnvOffset, net.DumpMetricsJson());
  out.data_hash = net.sim().data_digest();
  return out;
}

void ExpectNoLoss(const BulkOutcome& out) {
  EXPECT_GT(out.accepted, 0u);
  EXPECT_EQ(out.overflows, 0u);
  EXPECT_LE(out.max_occupancy, out.capacity);
  EXPECT_EQ(out.bad, 0u);
  EXPECT_EQ(out.delivered, out.accepted);
}

// Seed 0 used to overflow switch 13's port 11, which faces a host's primary
// link, about 4 ms into the traffic.
TEST(ContendedBulk, HostPortFifoNeverOverflows) {
  ExpectNoLoss(RunContendedBulk(0, 6 * kMillisecond));
}

// Seed 92 used to overflow switch 2's port 4, an end of a cable between two
// switches, about 28 ms in.
TEST(ContendedBulk, CablePortFifoNeverOverflows) {
  ExpectNoLoss(RunContendedBulk(92, 30 * kMillisecond));
}

// --- the per-byte reference differential ----------------------------------
//
// Each case runs twice, once as usual and once in the per-byte reference
// mode, and requires equal log, metrics and data fingerprints: the data
// hash covers every client delivery (time, host, size, intact, tag) and
// every status-register sample the control program read.

template <typename Run>
void ExpectSameBothWays(const char* what, Run run) {
  auto deferred = run(false);
  auto reference = run(true);
  EXPECT_EQ(deferred.log_hash, reference.log_hash) << what;
  EXPECT_EQ(deferred.metrics_hash, reference.metrics_hash) << what;
  EXPECT_EQ(deferred.data_hash, reference.data_hash) << what;
}

chaos::RunResult RunSmall3(chaos::CampaignConfig config,
                           const chaos::Scenario& scenario,
                           bool per_byte_reference) {
  config.per_byte_reference = per_byte_reference;
  chaos::TopologyCase topo{"small3", chaos::TopologyByName("small3", nullptr)};
  chaos::RunResult r = chaos::RunOne(config, scenario, topo, 0);
  EXPECT_TRUE(r.ok) << scenario.name;
  return r;
}

TEST(ReferenceDifferential, ChaosScenariosOnSmall3) {
  for (const chaos::Scenario& scenario : chaos::FilterScenarios(
           chaos::DefaultCorpus(),
           {"cable-cut-restore", "switch-crash-restart", "marginal-cable",
            "reflecting-cable", "host-failover"})) {
    ExpectSameBothWays(scenario.name.c_str(), [&](bool reference) {
      return RunSmall3(chaos::CampaignConfig{}, scenario, reference);
    });
  }
}

TEST(ReferenceDifferential, ShortSloSteadyRun) {
  chaos::CampaignConfig config;
  config.slo_steady = 50 * kMillisecond;
  config.slo_recovery = 50 * kMillisecond;
  config.slo_drain = 100 * kMillisecond;
  // The workload's own traffic is what this case compares; the full
  // battery, whose delivery probes would run under the saturating load for
  // a few hundred more simulated milliseconds, runs in the chaos cases.
  config.oracles = [] {
    std::vector<std::unique_ptr<chaos::Oracle>> oracles;
    oracles.push_back(chaos::MakeConvergenceOracle());
    return oracles;
  };
  std::vector<chaos::Scenario> steady =
      chaos::FilterScenarios(chaos::SloCorpus(), {"slo-steady"});
  ASSERT_EQ(steady.size(), 1u);
  ExpectSameBothWays("slo-steady", [&](bool reference) {
    return RunSmall3(config, steady[0], reference);
  });
}

TEST(ReferenceDifferential, ContendedBulkProbe) {
  ExpectSameBothWays("bulk seed 0", [](bool reference) {
    BulkOutcome out = RunContendedBulk(0, 6 * kMillisecond, reference);
    ExpectNoLoss(out);
    return out;
  });
}

}  // namespace
}  // namespace autonet
