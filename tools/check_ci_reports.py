#!/usr/bin/env python3
"""Report assertions that go beyond chaosrun's and postmortem's own oracles.

One subcommand per check; each prints a line per item it checked and exits
nonzero if any check fails.

  slo-steady REPORT...   every slo-steady run reports zero outage windows
                         and zero max outage (a nonzero count means the
                         accounting charges outage to a fault-free network)
  adversary REPORT       every run passed its oracles and actually attacked
                         (a polling adversary that never fired would pass
                         vacuously)
  perfetto TRACE         the post-mortem Chrome trace parses and carries an
                         epoch span on a named reconfig track
  fingerprints CURRENT COMMITTED
                         every run in the CURRENT report has a run with the
                         same scenario, topology and seed in the COMMITTED
                         report, with equal log_hash, metrics_hash, (where
                         either carries one) adversary_hash and (where both
                         carry one) data_hash
  sweep CURRENT COMMITTED
                         the protocheck sweep reports hold the same schedule
                         ids, and each schedule has equal ok,
                         decision_points, dropped_decisions and log_hash
  perf BENCHMARK BASE HEAD
                         paired perfbench runs (tools/perf_pairs.sh): BASE
                         and HEAD hold one <workload>.<pair>.out per run, the
                         stdout of perfbench/run.py.  For every workload and
                         end-to-end metric BENCHMARK lists, the HEAD median is
                         no worse than the BASE median by more than the
                         metric's bound; every run is correct; and HEAD fails
                         no larger share of its operations than BASE.  Each
                         line also prints, for information, the median over
                         pairs of HEAD / BASE within a pair

Example:
  tools/check_ci_reports.py slo-steady slo-small3.json slo-srclan16.json
"""
import argparse
import glob
import json
import os
import statistics
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def check_slo_steady(paths):
    ok = True
    for path in paths:
        for run in load(path)["runs"]:
            if run["scenario"] != "slo-steady":
                continue
            slo = run.get("slo", {})
            windows = slo.get("outage_windows", -1)
            outage = slo.get("max_outage_ms", -1)
            if windows != 0 or outage != 0:
                print(f"FAIL {path} seed {run['seed']}: steady-state run has "
                      f"{windows} outage window(s), max {outage} ms")
                ok = False
            else:
                print(f"ok   {path} seed {run['seed']}: "
                      f"{slo['completed']} ops, zero outage windows")
    return ok


def check_adversary(path):
    ok = True
    runs = load(path)["runs"]
    for run in runs:
        name, seed = run["scenario"], run["seed"]
        if not run["ok"]:
            print(f"FAIL {name} seed {seed}: oracle violation")
            ok = False
        if run.get("adversary_moves", 0) < 1:
            print(f"FAIL {name} seed {seed}: adversary never fired")
            ok = False
    print(f"checked {len(runs)} adversarial runs")
    return ok


def check_perfetto(path):
    events = load(path)["traceEvents"]
    tracks = {e["args"]["name"]: e["tid"] for e in events
              if e["ph"] == "M" and e["name"] == "thread_name"}
    if "reconfig" not in tracks:
        print(f"FAIL {path}: no thread_name for the reconfig track")
        return False
    if not any(e["ph"] == "X" and e["tid"] == tracks["reconfig"] and
               e["name"].startswith("epoch ") for e in events):
        print(f"FAIL {path}: no epoch span on the reconfig track")
        return False
    print(f"ok   {path}: epoch spans on the reconfig track")
    return True


FINGERPRINTS = ("log_hash", "metrics_hash", "adversary_hash")
# Compared only when both reports carry it (older reports predate it).
DATA_FINGERPRINT = "data_hash"


def check_fingerprints(current, committed):
    key = lambda r: (r["scenario"], r["topology"], r["seed"])
    baseline = {key(r): r for r in load(committed)["runs"]}
    ok = True
    runs = load(current)["runs"]
    for run in runs:
        name = "{} {} seed {}".format(*key(run))
        want = baseline.get(key(run))
        if want is None:
            print(f"FAIL {name}: no such run in {committed}")
            ok = False
            continue
        fields = FINGERPRINTS
        if DATA_FINGERPRINT in run and DATA_FINGERPRINT in want:
            fields += (DATA_FINGERPRINT,)
        diff = [f for f in fields if run.get(f) != want.get(f)]
        if diff:
            print(f"FAIL {name}: {', '.join(diff)} differ from {committed}")
            ok = False
    print(f"checked {len(runs)} runs of {current} against {committed}")
    return ok


SWEEP_FIELDS = ("ok", "decision_points", "dropped_decisions", "log_hash")


def check_sweep(current, committed):
    runs = {r["id"]: r for r in load(current)["runs"]}
    baseline = {r["id"]: r for r in load(committed)["runs"]}
    ok = True
    for sid in sorted(baseline.keys() - runs.keys()):
        print(f"FAIL {sid}: missing from {current}")
        ok = False
    for sid in sorted(runs.keys() - baseline.keys()):
        print(f"FAIL {sid}: no such schedule in {committed}")
        ok = False
    for sid in sorted(runs.keys() & baseline.keys()):
        diff = [f for f in SWEEP_FIELDS if runs[sid][f] != baseline[sid][f]]
        if diff:
            print(f"FAIL {sid}: {', '.join(diff)} differ from {committed}")
            ok = False
    print(f"checked {len(runs)} schedules of {current} against {committed}")
    return ok


def load_runs(side, workload):
    """The pair number and result line (the last line of stdout) of every
    run of one workload on one side; None for a run that printed none."""
    runs = []
    for path in sorted(glob.glob(os.path.join(side, f"{workload}.*.out"))):
        pair = os.path.basename(path)[len(workload) + 1:-len(".out")]
        with open(path) as f:
            lines = f.read().splitlines()
        try:
            runs.append((path, pair, json.loads(lines[-1])))
        except (IndexError, ValueError):
            runs.append((path, pair, None))
    return runs


def median_pair_ratio(base, head, name):
    """The median over pairs run on both sides of head / base; None when no
    pair has a nonzero base."""
    ratios = [head[p]["metrics"][name]["value"] / b["metrics"][name]["value"]
              for p, b in base.items()
              if p in head and b["metrics"][name]["value"]]
    return statistics.median(ratios) if ratios else None


def check_perf(benchmark, base, head):
    spec = load(benchmark)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sides = {}
        for name, side in (("base", base), ("head", head)):
            runs = load_runs(side, workload)
            if not runs:
                print(f"FAIL {workload}: no {name} runs in {side}")
                ok = False
            for path, _, result in runs:
                if result is None or not result["correct"]:
                    why = "no result line" if result is None else "correct: false"
                    print(f"FAIL {workload}: {path}: {why}")
                    ok = False
            sides[name] = {p: r for _, p, r in runs if r is not None}
        if not sides["base"] or not sides["head"]:
            continue
        share = {name: sum(r["failed"] for r in rs.values()) /
                 max(sum(r["attempted"] for r in rs.values()), 1)
                 for name, rs in sides.items()}
        if share["head"] > share["base"]:
            print(f"FAIL {workload}: head failed {share['head']:.4%} of its "
                  f"operations, base {share['base']:.4%}")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b, h = (statistics.median(r["metrics"][name]["value"]
                                      for r in rs.values())
                    for rs in (sides["base"], sides["head"]))
            ratio = median_pair_ratio(sides["base"], sides["head"], name)
            ratio = "n/a" if ratio is None else f"{ratio:.3f}"
            # Relative change; from a zero base, any move counts as 100%.
            change = (h - b) / b if b else float((h > b) - (h < b))
            limit = -bound if metric["better"] == "higher" else bound
            mark = "ok  "
            if change * limit > 0 and abs(change) > bound:
                mark = "FAIL"
                ok = False
            print(f"{mark} {workload} {name}: head median {h:.6g} vs base "
                  f"{b:.6g} {metric['unit']} ({change:+.1%}, worse beyond "
                  f"{limit:+.0%}; {len(sides['head'])} vs "
                  f"{len(sides['base'])} runs; median pair ratio {ratio})")
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="check", required=True)
    sub.add_parser("slo-steady").add_argument("reports", nargs="+")
    sub.add_parser("adversary").add_argument("report")
    sub.add_parser("perfetto").add_argument("trace")
    fingerprints = sub.add_parser("fingerprints")
    fingerprints.add_argument("current")
    fingerprints.add_argument("committed")
    sweep = sub.add_parser("sweep")
    sweep.add_argument("current")
    sweep.add_argument("committed")
    perf = sub.add_parser("perf")
    for path in ("benchmark", "base", "head"):
        perf.add_argument(path)
    args = parser.parse_args()
    if args.check == "slo-steady":
        ok = check_slo_steady(args.reports)
    elif args.check == "adversary":
        ok = check_adversary(args.report)
    elif args.check == "fingerprints":
        ok = check_fingerprints(args.current, args.committed)
    elif args.check == "sweep":
        ok = check_sweep(args.current, args.committed)
    elif args.check == "perf":
        ok = check_perf(args.benchmark, args.base, args.head)
    else:
        ok = check_perfetto(args.trace)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
