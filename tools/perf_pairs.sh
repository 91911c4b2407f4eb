#!/usr/bin/env bash
# Paired runs of the repository benchmark, for the CI perf gate.
#
#   tools/perf_pairs.sh BASE HEAD OUT PAIRS SECONDS
#   tools/check_ci_reports.py perf HEAD/BENCHMARK.json OUT/base OUT/head
#
# BASE and HEAD are two checkouts: the commit a change starts from and the
# change.  Each of PAIRS pairs runs every workload HEAD/BENCHMARK.json lists
# once on each side, through that side's own perfbench/run.py (which builds
# that side's sources), at seed 1 for SECONDS.  The side that goes first
# flips from pair to pair, so a slow spell of the machine falls on both
# sides alike.  Each run's stdout lands in OUT/<side>/<workload>.<pair>.out;
# a run whose checks fail still leaves its result line there for the gate.
set -euo pipefail

if [ $# -ne 5 ]; then
  echo "usage: $0 BASE HEAD OUT PAIRS SECONDS" >&2
  exit 2
fi
base=$1 head=$2 out=$3 pairs=$4 seconds=$5
workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$head/BENCHMARK.json")
mkdir -p "$out/base" "$out/head"

run() {  # SIDE WORKLOAD PAIR
  local dir=$base
  [ "$1" = head ] && dir=$head
  echo "pair $3: $1 $2" >&2
  python3 "$dir/perfbench/run.py" --workload "$2" --seed 1 \
    --seconds "$seconds" --trace 0 > "$out/$1/$2.$3.out" || true
}

for ((pair = 1; pair <= pairs; pair++)); do
  first=base second=head
  if ((pair % 2 == 0)); then
    first=head second=base
  fi
  for workload in $workloads; do
    run "$first" "$workload" "$pair"
    run "$second" "$workload" "$pair"
  done
done
