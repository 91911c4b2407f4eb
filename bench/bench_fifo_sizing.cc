// E3 — Receive-FIFO sizing (section 6.2).
//
// Paper formulas, with S = 256 slots between flow-control slots, f = 0.5
// half-full threshold, and W = 64.1·L slots of propagation per km:
//
//   stop-latency bound:   N >= (S - 1 + 128.2 L) / f      -> 1024 B @ 2 km
//   broadcast bound:      N >= (B + S - 1 + 128.2 L) / f  -> 4096 B @ B=1550
//
// Part 1 drives a continuous stream into a switch whose output is stopped
// and measures the worst-case FIFO occupancy against the analytic bound.
// Part 2 reproduces the broadcast case: a transmitter that began a maximal
// broadcast packet under `start` ignores `stop`, so the FIFO must absorb
// the whole packet on top of its half-full threshold — which is why Autonet
// ships 4096-byte FIFOs instead of 1024.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/fabric/switch.h"
#include "src/host/controller.h"
#include "src/link/slots.h"
#include "src/sim/simulator.h"

namespace autonet {
namespace {

// The far end of the blocked output port: stops the switch permanently.
class Stopper : public LinkEndpoint {
 public:
  void OnPacketBegin(const PacketRef&) override {}
  void OnDataBytes(std::uint32_t, std::uint32_t, std::uint32_t) override {}
  void OnPacketEnd(EndFlags) override {}
  void OnFlowDirective(FlowDirective) override {}
  void OnCarrierChange(bool) override {}
};

struct Rig {
  Simulator sim;
  // Outlives the links: the switch's teardown detaches them, which tells
  // the far end the carrier is gone.
  Stopper stopper;
  std::unique_ptr<Link> host_link;
  std::unique_ptr<Link> blocked_link;
  std::unique_ptr<Switch> sw;
  std::unique_ptr<HostController> host;

  Rig(std::size_t fifo_bytes, double length_km) {
    Switch::Config config;
    config.fifo_capacity = fifo_bytes;
    sw = std::make_unique<Switch>(&sim, Uid(0x100), "sw", config);
    host = std::make_unique<HostController>(&sim, Uid(0xA), "h");

    host_link = std::make_unique<Link>(&sim, length_km);
    host->AttachPort(0, host_link.get(), Link::Side::kA);
    sw->AttachLink(1, host_link.get(), Link::Side::kB);

    blocked_link = std::make_unique<Link>(&sim, 0.01);
    sw->AttachLink(2, blocked_link.get(), Link::Side::kA);
    blocked_link->Attach(Link::Side::kB, &stopper);
    blocked_link->SetFlowDirective(Link::Side::kB, FlowDirective::kStop);

    // Route everything arriving on port 1 out the blocked port 2.
    ForwardingTable table;
    table.Set(1, ShortAddress(0x555),
              ForwardingTable::Entry::Alternatives(PortVector::Single(2)));
    table.Set(1, kAddrBroadcastHosts,
              ForwardingTable::Entry::Broadcast(PortVector::Single(2)));
    sw->LoadForwardingTable(table);
  }

  PacketRef DataPacket(ShortAddress dest, std::size_t data) {
    Packet p;
    p.dest = dest;
    p.src = ShortAddress(0x111);
    p.payload.assign(data, 0xAB);
    return MakePacket(std::move(p));
  }
};

// Part 1: continuous stream against a stopped output.
void StopLatencyCase(double length_km, bench::JsonReport& report) {
  const std::size_t kFifo = 4096;
  Rig rig(kFifo, length_km);
  // Plenty of data: several max-size packets.
  for (int i = 0; i < 3; ++i) {
    rig.host->Send(rig.DataPacket(ShortAddress(0x555), 8000));
  }
  rig.sim.RunUntil(30 * kMillisecond);

  const PortFifo& fifo = rig.sw->link_unit(1).fifo();
  double bound = 0.5 * kFifo + (kFlowSlotPeriod - 1) + 2 * 64.1 * length_km;
  double min_n = ((kFlowSlotPeriod - 1) + 128.2 * length_km) / 0.5;
  bench::Row("  %4.1f km   %6zu B   %8.0f B   %7.0f B   %s", length_km,
             fifo.max_occupancy(), bound, min_n,
             fifo.overflow_count() == 0 ? "no overflow" : "OVERFLOW");
  report.rows().BeginObject();
  report.rows().Key("part").String("stop_latency");
  report.rows().Key("length_km").Number(length_km);
  report.rows().Key("max_occupancy_bytes").UInt(fifo.max_occupancy());
  report.rows().Key("paper_bound_bytes").Number(bound);
  report.rows().Key("overflows").UInt(fifo.overflow_count());
  report.rows().EndObject();
}

// Part 2: a maximal broadcast packet arriving over a half-loaded FIFO.
void BroadcastCase(std::size_t fifo_bytes, bench::JsonReport& report) {
  Rig rig(fifo_bytes, 2.0);
  // Fill to just under the half-full threshold with a completable unicast
  // packet, so `start` is still being sent when the broadcast begins.
  std::size_t fill_wire = fifo_bytes / 2 - 64;
  rig.host->Send(
      rig.DataPacket(ShortAddress(0x555),
                     fill_wire - kAutonetHeaderBytes - kEncapHeaderBytes -
                         kCrcBytes));
  // Maximal broadcast packet: 1500 data bytes (~1554 wire bytes).
  rig.host->Send(rig.DataPacket(kAddrBroadcastHosts, kMaxBridgedData));
  rig.sim.RunUntil(30 * kMillisecond);

  const PortFifo& fifo = rig.sw->link_unit(1).fifo();
  bench::Row("  %6zu B   %9zu B   %11llu   %s", fifo_bytes,
             fifo.max_occupancy(),
             static_cast<unsigned long long>(fifo.overflow_count()),
             fifo.overflow_count() == 0 ? "broadcast absorbed"
                                        : "broadcast OVERFLOWS");
  report.rows().BeginObject();
  report.rows().Key("part").String("broadcast");
  report.rows().Key("fifo_bytes").UInt(fifo_bytes);
  report.rows().Key("max_occupancy_bytes").UInt(fifo.max_occupancy());
  report.rows().Key("overflows").UInt(fifo.overflow_count());
  report.rows().EndObject();
}

}  // namespace
}  // namespace autonet

int main() {
  using namespace autonet;
  bench::Title("E3", "receive-FIFO sizing (section 6.2)");
  bench::JsonReport report("E3");

  bench::Row("part 1: stop-latency occupancy, 4096-byte FIFO, f = 0.5");
  bench::Row("  %6s %10s %12s %10s", "length", "max occ", "paper bound",
             "min N");
  for (double km : {0.1, 0.5, 1.0, 2.0}) {
    StopLatencyCase(km, report);
  }
  bench::Row("  (paper: N = 1024 suffices for non-broadcast traffic at 2 km)");

  bench::Row("\npart 2: maximal broadcast (B~1550) onto a half-loaded FIFO, 2 km");
  bench::Row("  %8s %13s %13s", "FIFO", "max occ", "overflows");
  for (std::size_t n : {1024u, 2048u, 4096u}) {
    BroadcastCase(n, report);
  }
  bench::Row("  (paper: supporting low-latency broadcast is why the FIFO");
  bench::Row("   grows from 1024 to 4096 bytes)");
  report.Write();
  return 0;
}
