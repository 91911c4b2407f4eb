// Tuning knobs for Autopilot, the switch control program.  The paper's
// reconfiguration time evolved from ~5 s (first, easy-to-debug
// implementation) through ~0.5 s (tuned) to ~0.17 s (later work) purely by
// software tuning on a fixed algorithm (section 6.6.5).  The presets model
// those three generations as per-operation control-processor costs and
// protocol timer settings; bench E1 reproduces the evolution with them.
#ifndef SRC_AUTOPILOT_CONFIG_H_
#define SRC_AUTOPILOT_CONFIG_H_

#include "src/common/time.h"

namespace autonet {

struct AutopilotConfig {
  // --- monitoring task periods ---
  Tick status_sample_period = 5 * kMillisecond;
  // Probe cadence for ports whose neighbor is unknown vs. verification of
  // known-good ports (section 6.5.4: "continuously probes all ports in the
  // three s.switch states").
  Tick probe_period_unknown = 25 * kMillisecond;
  Tick probe_period_good = 200 * kMillisecond;
  Tick probe_timeout = 60 * kMillisecond;

  // --- skeptics (section 6.5.5) ---
  // Ceilings of the status and connectivity holddowns (their bases are
  // kStatusHolddownBase and kConnHolddownBase in autopilot.h).
  Tick status_holddown_max = 60 * kSecond;
  Tick conn_holddown_max = 60 * kSecond;

  // --- reconfiguration protocol ---
  Tick retransmit_period = 100 * kMillisecond;
  Tick boot_reconfig_delay = 50 * kMillisecond;
  // Section 7 future work, implemented here: when a *non-tree* link is
  // added or removed and the spanning tree is unaffected, route a topology
  // delta to the root and redistribute the configuration down the standing
  // tree instead of running the full five-step reconfiguration.  Any
  // condition the local path cannot prove safe falls back to a full
  // reconfiguration.
  bool enable_local_reconfig = false;

  // --- control-processor cost model ---
  // The 12.5 MHz 68000 handles one thing at a time; each operation occupies
  // the CPU for the given duration and later work queues behind it.
  Tick cost_packet_process = 1 * kMillisecond;   // receive+handle one packet
  Tick cost_packet_send = 200 * kMicrosecond;    // build+enqueue one packet
  Tick cost_table_compute = 100 * kMillisecond;  // route computation (step 5)
  Tick cost_table_load = 20 * kMillisecond;      // writing the 64 KB table

  // The three implementation generations of section 6.6.5.
  static AutopilotConfig Initial();  // first, easy-to-debug implementation
  static AutopilotConfig Tuned();    // the ~0.5 s version (default)
  static AutopilotConfig Fast();     // the later ~0.17 s version
};

}  // namespace autonet

#endif  // SRC_AUTOPILOT_CONFIG_H_
