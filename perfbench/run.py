#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ (and the Autonet libraries
under src/) from source, runs one workload, checks its outputs, and prints
its metrics.

    python3 perfbench/run.py --workload bulk_srclan --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
alternates traced and untraced reps and reports the per-layer metrics.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}.
Exits nonzero when the build fails or any output check fails.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("bulk_srclan", "chaos_baseline", "rpc_reconfig")

# src/ modules that get their own cpu_share row; samples anywhere else
# (libc, libstdc++, the benchmark's own files, unused modules) are `other`.
LAYERS = ("sim", "link", "fabric", "autopilot", "routing", "host", "workload",
          "chaos", "core", "obs", "common", "topo")
ROUTING_TOPOLOGIES = ("srclan30", "ring6", "line6", "ring8", "torus3x3")
ORACLES = ("convergence", "epochs", "routes", "deadlock", "delivery", "ports")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; build output goes to
    stderr so stdout stays the benchmark's own."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def percentile(values, p):
    """Linear interpolation between closest ranks, as src/common/histogram.h."""
    v = sorted(values)
    rank = p / 100 * (len(v) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (rank - lo)


def check_fingerprints(runs):
    """Compares each chaos run's log/metrics hashes with the committed
    chaos-report.json, read now so a re-recorded baseline carries over.
    Returns (matched, checked, problems)."""
    path = os.path.join(ROOT, "chaos-report.json")
    if not os.path.exists(path):
        return 0, 0, []
    with open(path) as f:
        baseline = {(r["scenario"], r["topology"], r["seed"]):
                    (r["log_hash"], r["metrics_hash"])
                    for r in json.load(f)["runs"]}
    matched, checked, problems = 0, 0, []
    for r in runs:
        want = baseline.get((r["scenario"], r["topology"], r["seed"]))
        if want is None:
            continue
        checked += 1
        if want == (r["log_hash"], r["metrics_hash"]):
            matched += 1
        else:
            problems.append("fingerprint differs from chaos-report.json: "
                            f"{r['scenario']} {r['topology']} seed {r['seed']}")
    return matched, checked, problems


def end_to_end(raw):
    """Every rep does the same simulated work, step for step, so each step
    keeps the least CPU any rep spent on it: other processes on the machine
    only ever add time.  The CPU outside steps (rpc_reconfig's wait for
    consistency) keeps its least over the reps the same way, and set-up its
    fastest time per burst (one burst before each rep), reported as the
    median over the bursts."""
    reps = raw["reps"]
    steps = [r["step_cpu_ms"] for r in reps]
    if len({len(s) for s in steps}) != 1:
        raise ValueError("reps ran different numbers of steps")
    best_steps = [min(column) for column in zip(*steps)]
    best_outside = min(r["cpu_s"] - sum(s) / 1e3 for r, s in zip(reps, steps))
    cpu_s = sum(best_steps) / 1e3 + max(best_outside, 0.0)
    return {
        "setup_s": (statistics.median(min(burst) for burst in raw["setup_s"]), "s"),
        "sim_s_per_cpu_s": (reps[0]["sim_s"] / cpu_s, "s/s"),
        "ops_per_cpu_s": (reps[0]["ops"] / cpu_s, "1/s"),
        "step_cpu_ms_p50": (percentile(best_steps, 50), "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }, cpu_s, percentile(best_steps, 90)


def layer_of(frames):
    """The innermost inline frame that lies in src/<module>/ names the layer."""
    for path in frames:
        m = re.search(r"/src/([a-z_]+)/[^/]+$", path)
        if m:
            return m.group(1) if m.group(1) in LAYERS else "other"
    return "other"


def cpu_shares(trace):
    """Maps every sampled PC to its layer with addr2line; percent of all
    samples, with libraries and unmapped code in `other`."""
    counts = {layer: 0 for layer in LAYERS + ("other",)}
    pcs = trace["pcs"]
    if pcs:
        out = subprocess.run(
            ["addr2line", "-a", "-i", "-e", trace["exe"]],
            input="\n".join(hex(int(offset)) for offset, _ in pcs),
            capture_output=True, text=True, check=True).stdout
        blocks = re.split(r"^0x[0-9a-f]+\n", out, flags=re.M)[1:]
        for (_, n), block in zip(pcs, blocks):
            frames = [line.rsplit(":", 1)[0] for line in block.splitlines()]
            counts[layer_of(frames)] += int(n)
    total = trace["samples"]
    counts["other"] += total - sum(int(n) for _, n in pcs)
    return {k: 100.0 * v / total if total else 0.0 for k, v in counts.items()}


def per_layer(raw):
    c = dict(raw["counts"])
    probe = raw["probe_ms"]
    trace = raw["trace"]
    shares = cpu_shares(trace)
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def ratio(num, den):
        return num / den if den else 0.0

    for layer in LAYERS + ("other",):
        put(f"{layer}.cpu_share", shares[layer], "%")
    put("sim.events", c.get("sim.events", 0), "count")
    put("sim.events_per_byte_hop",
        ratio(c.get("sim.events", 0), c.get("fabric.bytes_forwarded", 0)), "ratio")
    put("sim.pending_peak", c.get("sim.pending_peak", 0), "count")
    for k in ("flow_stops", "crc_errors"):
        put(f"link.{k}", c.get(f"link.{k}", 0), "count")
    for k in ("packets_forwarded", "bytes_forwarded", "packets_discarded",
              "sched_grants", "sched_blocked_cycles", "table_loads"):
        put(f"fabric.{k}", c.get(f"fabric.{k}", 0), "count")
    fwd, disc = c.get("fabric.packets_forwarded", 0), c.get("fabric.packets_discarded", 0)
    put("fabric.forward_ratio", ratio(fwd, fwd + disc), "ratio")
    put("fabric.fifo_hwm_bytes_max", c.get("fabric.fifo_hwm_bytes_max", 0), "bytes")
    for k in ("reconfigs", "triggers", "epochs_joined", "messages_sent",
              "retransmissions", "probes_sent", "probe_timeouts", "tables_loaded"):
        put(f"autopilot.{k}", c.get(f"autopilot.{k}", 0), "count")
    put("autopilot.retransmit_ratio",
        ratio(c.get("autopilot.retransmissions", 0), c.get("autopilot.messages_sent", 0)),
        "ratio")
    for topo in ROUTING_TOPOLOGIES:
        put(f"routing.table_build_us.{topo}",
            trace["routing_us"][f"routing.table_build_us.{topo}"], "us")
    for k in ("packets_sent", "packets_received", "tx_rejected_full",
              "rx_discarded_full", "failovers"):
        put(f"host.{k}", c.get(f"host.{k}", 0), "count")
    put("host.send_call_ns", trace["send_call_ns"], "ns")
    for k in ("ops_offered", "ops_completed", "timeouts"):
        put(f"workload.{k}", c.get(f"workload.{k}", 0), "count")
    put("workload.useful_ratio",
        ratio(c.get("workload.ops_completed", 0), c.get("workload.ops_offered", 0)),
        "ratio")
    put("workload.finalize_ms", probe.get("workload.finalize_ms", 0), "ms")
    put("chaos.violations", c.get("chaos.violations", 0), "count")
    for oracle in ORACLES:
        put(f"chaos.oracle_ms.{oracle}", probe.get(f"chaos.oracle_ms.{oracle}", 0), "ms")
    for k in ("construct_ms", "boot_ms", "register_ms"):
        put(f"core.{k}", probe.get(f"core.{k}", 0), "ms")
    put("core.sim_boot_ms", c.get("core.sim_boot_ms", 0), "ms")
    for k in ("metrics_dump_ms", "merged_log_ms"):
        put(f"obs.{k}", probe.get(f"obs.{k}", 0), "ms")
    put("trace.overhead_ratio",
        ratio(trace["cpu_s_traced"], trace["cpu_s_untraced"]), "ratio")
    put("trace.cpu_s_traced", trace["cpu_s_traced"], "s")
    put("trace.cpu_s_untraced", trace["cpu_s_untraced"], "s")
    put("trace.samples", trace["samples"], "count")
    for k in ("sim_goodput_mbps", "reconfig_ms_p50", "reconfig_ms_p90",
              "outage_ms_max", "rpc_p999_ms", "recovery_p999_ms", "sim_s", "ops"):
        unit = {"sim_goodput_mbps": "Mbit/s", "sim_s": "s", "ops": "count"}.get(k, "ms")
        put(f"model.{k}", raw["model"].get(f"model.{k}", 0), unit)
    return m


def print_layer_table(raw, metrics):
    self_ms = raw["trace"]["self_ms"]
    print(f"where the time goes ({raw['workload']}, "
          f"{raw['trace']['samples']} CPU samples, span self time over "
          f"{raw['trace']['reps']} traced reps):")
    print(f"  {'layer':<10} {'cpu_share':>9} {'span_self_ms':>13}")
    for layer in LAYERS + ("other",):
        share = metrics[f"{layer}.cpu_share"][0]
        spans = self_ms.get(layer)
        print(f"  {layer:<10} {share:8.2f}% "
              f"{'' if spans is None else f'{spans:13.1f}'}")
    if "bench" in self_ms:
        print(f"  (benchmark's own code between calls: {self_ms['bench']:.1f} ms)")
    print(f"  trace file: {raw['trace']['file']} "
          "(open in https://ui.perfetto.dev or chrome://tracing)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    trace_file = os.path.join(
        BUILD, f"{args.workload}-seed{args.seed}.trace.json")
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-out", trace_file]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"perfbench: measuring program exited {proc.returncode}")
        return 1
    raw = json.loads(proc.stdout)

    problems = list(raw["problems"])
    attempted, failed = raw["attempted"], raw["failed"]
    if raw["chaos_runs"]:
        matched, checked, bad = check_fingerprints(raw["chaos_runs"])
        problems += bad
        failed += len(bad) * attempted // len(raw["chaos_runs"])
        print(f"fingerprints: {matched}/{checked} match chaos-report.json")

    if args.trace:
        metrics = per_layer(raw)
        print_layer_table(raw, metrics)
    else:
        metrics, cpu_s, p90 = end_to_end(raw)
        reps = raw["reps"]
        mb = reps[0]["payload_bytes"] / 1e6 / cpu_s
        print(f"{args.workload} seed {args.seed}: {len(reps)} reps, "
              f"{len(reps[0]['step_cpu_ms'])} steps each")
        print(f"  payload_mb_per_cpu_s {mb:.4f} MB/s")
        print(f"  step_cpu_ms_p90 {p90:.6g} ms")
        for k, v in sorted(raw["model"].items()):
            print(f"  {k} {v:.6g}")
    print(f"  failed_frac {failed / attempted:.6f} ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:14.6g} {unit}")
    for p in problems[:20]:
        print(f"FAILED CHECK: {p}")

    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
