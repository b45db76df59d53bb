#!/usr/bin/env bash
# Compares this checkout with a parent revision on one benchmark workload
# by alternating pairs of one-workload runs (`--workload W --seed S
# --seconds N --trace 0`, one result line each), and prints, for each
# end-to-end metric of BENCHMARK.json, both sides' medians and quartiles
# and how many pairs this checkout won.
#
#   bash scripts/bench/pairs.sh <parent-rev> <workload> <pairs> [seed] [seconds]
#
# seed defaults to 1 and seconds to 12. The parent is exported with
# `git archive` into a temporary directory, so nothing is added to .git,
# and removed on exit; each side is built and run by its own
# benchmark/run.sh. The parent runs first in odd pairs, this checkout in
# even ones. A run that is not correct, or that failed an operation,
# stops the script with exit 1. Quartiles are Python's
# statistics.quantiles(n=4), as the benchmark's own `repeat` computes them.
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 5 ]; then
  echo "usage: $0 <parent-rev> <workload> <pairs> [seed] [seconds]" >&2
  exit 2
fi
rev=$1 workload=$2 pairs=$3 seed=${4:-1} seconds=${5:-12}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"

# run <side> <pair>: one run of that side, its result line appended to
# $tmp/<side>.jsonl; a run that is not correct with 0 failed stops here.
run() {
  local dir=$root
  [ "$1" = parent ] && dir=$tmp/parent
  local line
  if ! line=$(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0 2>"$tmp/$1.log" | tail -n 1); then
    echo "pair $2, $1: the run failed" >&2
    tail -n 20 "$tmp/$1.log" >&2
    exit 1
  fi
  echo "pair $2, $1: $line"
  if ! python3 -c 'import json,sys; r=json.loads(sys.argv[1]); sys.exit(0 if r["correct"] and r["failed"]==0 else 1)' "$line"; then
    echo "pair $2, $1: not correct with 0 failed; refused" >&2
    tail -n 20 "$tmp/$1.log" >&2
    exit 1
  fi
  echo "$line" >>"$tmp/$1.jsonl"
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then
    run parent "$i"
    run change "$i"
  else
    run change "$i"
    run parent "$i"
  fi
done

python3 - "$root/BENCHMARK.json" "$tmp/parent.jsonl" "$tmp/change.jsonl" \
  "$workload" "$seed" "$pairs" "$rev" <<'PY'
import json, statistics, sys

bench, parent_file, change_file, workload, seed, pairs, rev = sys.argv[1:]
metrics = json.load(open(bench))["end_to_end"]
parent = [json.loads(l)["metrics"] for l in open(parent_file)]
change = [json.loads(l)["metrics"] for l in open(change_file)]

def spread(xs):
    q1, q3 = (xs[0], xs[0]) if len(xs) < 2 else (lambda q: (q[0], q[2]))(statistics.quantiles(xs, n=4))
    return statistics.median(xs), q1, q3

print(f"\n{workload}, seed {seed}, {pairs} pairs: parent {rev} vs this checkout")
print(f"{'metric':<12} {'parent median [q1-q3]':<32} {'change median [q1-q3]':<32} {'diff':>8}  won")
for m in metrics:
    name = m["name"]
    if name not in parent[0]:
        continue
    p = [r[name]["value"] for r in parent]
    c = [r[name]["value"] for r in change]
    pm, pq1, pq3 = spread(p)
    cm, cq1, cq3 = spread(c)
    better = (lambda a, b: a < b) if m["better"] == "lower" else (lambda a, b: a > b)
    won = sum(better(b, a) for a, b in zip(p, c))
    tied = sum(a == b for a, b in zip(p, c))
    diff = (cm - pm) / pm * 100 if pm else 0.0
    print(f"{name:<12} {f'{pm:.4g} [{pq1:.4g}-{pq3:.4g}]':<32} {f'{cm:.4g} [{cq1:.4g}-{cq3:.4g}]':<32} {diff:>+7.1f}%  {won} of {len(p)}"
          + (f", {tied} tied" if tied else ""))
PY
