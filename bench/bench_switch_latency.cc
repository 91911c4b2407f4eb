// E4 — Switch transit latency and forwarding rate (sections 5.1, 6.4).
//
// Paper: "The latency from receiving the first bit of a packet on an input
// link to forwarding the first bit on an output link is 26 to 32 clock
// cycles [80 ns each] if the output link and router are not busy", and "the
// packet forwarding rate is about 2 million packets per second" (one
// routing decision per 6 clock cycles = 480 ns).
//
// Part 1 measures idle cut-through transit through one switch by
// subtracting link propagation and serialization from a host-to-host
// latency measurement.  Part 2 saturates the scheduling engine with
// requests from many receive ports and reports the sustained decision rate.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/fabric/scheduler.h"
#include "src/fabric/switch.h"
#include "src/host/controller.h"
#include "src/link/slots.h"
#include "src/sim/simulator.h"

namespace autonet {
namespace {

void TransitLatency() {
  Simulator sim;
  Switch sw(&sim, Uid(0x100), "sw");
  HostController sender(&sim, Uid(0xA), "a");
  HostController receiver(&sim, Uid(0xB), "b");
  // Negligible cable length so propagation is a known small constant.
  Link la(&sim, 0.001);
  Link lb(&sim, 0.001);
  sender.AttachPort(0, &la, Link::Side::kA);
  sw.AttachLink(1, &la, Link::Side::kB);
  receiver.AttachPort(0, &lb, Link::Side::kA);
  sw.AttachLink(2, &lb, Link::Side::kB);

  ForwardingTable table;
  table.Set(1, ShortAddress(0x222),
            ForwardingTable::Entry::Alternatives(PortVector::Single(2)));
  sw.LoadForwardingTable(table);

  Tick first_bit_in = -1;
  Tick first_bit_out = -1;
  // Observe the wire by measuring at the receiving controller and removing
  // the known constants.
  Tick received_at = -1;
  receiver.SetReceiveHandler(
      [&](Delivery d) { received_at = d.delivered_at; });

  Packet p;
  p.dest = ShortAddress(0x222);
  p.src = ShortAddress(0x111);
  p.payload.assign(10, 0);  // minimal client packet
  PacketRef pkt = MakePacket(std::move(p));
  std::size_t wire = pkt->WireSize();
  Tick sent_at = sim.now();
  sender.Send(pkt);
  sim.RunUntil(5 * kMillisecond);
  (void)first_bit_in;
  (void)first_bit_out;

  // end-to-end = tx alignment + serialization (wire+2 framing slots, with
  // flow slots skipped) + 2 propagation + switch transit.  We report the
  // residual as the transit.
  Tick end_to_end = received_at - sent_at;
  Tick serialization = static_cast<Tick>(wire + 2) * kSlotNs;
  Tick propagation = 2 * PropagationDelayNs(0.001);
  Tick transit = end_to_end - serialization - propagation;
  double cycles = static_cast<double>(transit) / kSlotNs;
  bench::Row("  end-to-end        %8.2f us", bench::Us(end_to_end));
  bench::Row("  serialization     %8.2f us  (%zu wire bytes)",
             bench::Us(serialization), wire);
  bench::Row("  switch transit    %8.2f us  = %.0f cycles   (paper: 26-32 "
             "cycles, ~2 us)",
             bench::Us(transit), cycles);
}

void SchedulerRate() {
  Simulator sim;
  SchedulerEngine engine(&sim, /*fcfs=*/false);
  PortVector busy;  // all ports free
  std::uint64_t grants = 0;
  engine.SetHooks([&] { return ~busy; },
                  [&](const SchedulerEngine::Request& r, PortVector) {
                    ++grants;
                    // Refill: the same receive port immediately presents the
                    // next packet (back-to-back minimal packets).
                    engine.Enqueue(r.inport, PortVector::Single(r.inport),
                                   false);
                  });
  // 12 receive ports, each wanting a distinct free output forever.
  for (PortNum p = 1; p <= 12; ++p) {
    engine.Enqueue(p, PortVector::Single(p), false);
  }
  const Tick kWindow = 10 * kMillisecond;
  sim.RunUntil(kWindow);
  double rate = static_cast<double>(grants) /
                (static_cast<double>(kWindow) / 1e9);
  bench::Row("  scheduling rate   %8.2f M decisions/s   (paper: ~2 M "
             "packets/s, one per 480 ns)",
             rate / 1e6);
}

void LoadedTransit() {
  // Transit under contention: two senders to the same output port; the
  // second packet waits for the first to drain (head-of-line at the output).
  Simulator sim;
  Switch sw(&sim, Uid(0x100), "sw");
  HostController a(&sim, Uid(0xA), "a");
  HostController b(&sim, Uid(0xB), "b");
  HostController dst(&sim, Uid(0xC), "c");
  Link la(&sim, 0.001), lb(&sim, 0.001), lc(&sim, 0.001);
  a.AttachPort(0, &la, Link::Side::kA);
  sw.AttachLink(1, &la, Link::Side::kB);
  b.AttachPort(0, &lb, Link::Side::kA);
  sw.AttachLink(2, &lb, Link::Side::kB);
  dst.AttachPort(0, &lc, Link::Side::kA);
  sw.AttachLink(3, &lc, Link::Side::kB);

  ForwardingTable table;
  table.SetForAllInports(ShortAddress(0x333),
                         ForwardingTable::Entry::Alternatives(
                             PortVector::Single(3)));
  sw.LoadForwardingTable(table);

  std::vector<Tick> arrivals;
  dst.SetReceiveHandler([&](Delivery d) { arrivals.push_back(d.delivered_at); });
  auto mk = [&](std::size_t bytes) {
    Packet p;
    p.dest = ShortAddress(0x333);
    p.payload.assign(bytes, 0);
    return MakePacket(std::move(p));
  };
  a.Send(mk(1000));
  b.Send(mk(1000));
  sim.RunUntil(10 * kMillisecond);
  if (arrivals.size() == 2) {
    bench::Row("  contended output  %8.2f us between deliveries (second "
               "packet queued at the output port)",
               bench::Us(arrivals[1] - arrivals[0]));
  }
}

}  // namespace
}  // namespace autonet

int main() {
  using namespace autonet;
  bench::Title("E4", "switch transit latency and forwarding rate (sec 5.1)");
  TransitLatency();
  SchedulerRate();
  LoadedTransit();
  return 0;
}
