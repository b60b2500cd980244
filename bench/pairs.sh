#!/usr/bin/env bash
# Paired runs of one bench/e2e workload: a base revision against the
# working tree.
#
#   bench/pairs.sh REV WORKLOAD SECONDS SEED...
#   bench/pairs.sh HEAD~1 marshal 20 1 2 3 4 5 6 7 8 9 10
#
# REV is extracted (git archive) into a fresh directory under
# ${TMPDIR:-/tmp}; it and the working tree are each built from their
# own sources with the dune cache off.  For every seed both sides run
#   bench/e2e/run.sh --workload WORKLOAD --seed S --seconds SECONDS --trace 0
# one after the other, alternating which side goes first.  Printed: one
# row per seed and metric, then for each of the five end-to-end metrics
# the median and quartiles of both sides, the median change, the parent
# interquartile range, and how many seeds the working tree won.  The
# extracted tree is removed on exit.  Needs git, dune and python3.
set -eu

if [ $# -lt 4 ]; then
  echo "usage: bench/pairs.sh REV WORKLOAD SECONDS SEED..." >&2
  exit 2
fi
rev=$1 workload=$2 seconds=$3
shift 3

here=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/flick-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
base=$work/base
mkdir "$base"
git -C "$here" archive "$rev" | tar -x -C "$base"

export DUNE_CACHE=disabled
echo "building $rev and the working tree" >&2
(cd "$base" && dune build --root . ./bench/e2e/main.exe) >&2
(cd "$here" && dune build --root . ./bench/e2e/main.exe) >&2

# one run: the last stdout line of run.sh is its JSON result
run() {
  (cd "$1" && bash bench/e2e/run.sh --workload "$workload" --seed "$2" \
     --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
}

results=$work/results
: > "$results"
i=0
for seed in "$@"; do
  if [ $((i % 2)) -eq 0 ]; then order="base change"; else order="change base"; fi
  for side in $order; do
    if [ "$side" = base ]; then dir=$base; else dir=$here; fi
    echo "seed $seed: $side" >&2
    printf '%s %s %s\n' "$seed" "$side" "$(run "$dir" "$seed")" >> "$results"
  done
  i=$((i + 1))
done

python3 - "$results" "$rev" "$workload" "$seconds" <<'EOF'
import json, sys

path, rev, workload, seconds = sys.argv[1:]
metrics = [("setup_s", "lower"), ("ops_per_s", "higher"),
           ("latency_p50_us", "lower"), ("latency_p99_us", "lower"),
           ("heap_peak_mb", "lower")]
runs = {}
for line in open(path):
    seed, side, payload = line.split(" ", 2)
    r = json.loads(payload)
    if not r.get("correct", False) or r.get("failed", 0):
        print(f"seed {seed} {side}: incorrect run {payload.strip()}")
    runs.setdefault(seed, {})[side] = {k: v["value"] for k, v in r["metrics"].items()}

def num(x):
    return f"{x:.2f}" if abs(x) >= 1 else f"{x:.4f}"

def quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

seeds = [s for s in runs if "base" in runs[s] and "change" in runs[s]]
print(f"{workload}: {rev} (base) vs working tree (change), {len(seeds)} pairs of {seconds} s")
print(f"{'seed':>6} {'metric':<16} {'base':>12} {'change':>12} {'delta':>8}")
for s in seeds:
    for m, _ in metrics:
        b, c = runs[s]["base"][m], runs[s]["change"][m]
        print(f"{s:>6} {m:<16} {num(b):>12} {num(c):>12} {100 * (c - b) / b:+7.1f}%")
print()
print(f"{'metric':<16} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30} {'delta':>8} {'base IQR':>10} {'wins':>6}")
for m, better in metrics:
    b = [runs[s]["base"][m] for s in seeds]
    c = [runs[s]["change"][m] for s in seeds]
    bm, cm = quantile(b, 0.5), quantile(c, 0.5)
    iqr = quantile(b, 0.75) - quantile(b, 0.25)
    wins = sum(1 for x, y in zip(b, c) if (y > x if better == "higher" else y < x))
    fmt = lambda xs: f"{num(quantile(xs, 0.5))} [{num(quantile(xs, 0.25))}, {num(quantile(xs, 0.75))}]"
    print(f"{m:<16} {fmt(b):>30} {fmt(c):>30} {100 * (cm - bm) / bm:+7.1f}% {num(iqr):>10} {wins:>3}/{len(seeds)}")
EOF
