#!/usr/bin/env bash
# Paired runs of one bench/e2e workload: a base revision against the
# working tree.
#
#   bench/pairs.sh [--trace] REV WORKLOAD SECONDS SEED...
#   bench/pairs.sh HEAD~1 marshal 20 1 2 3 4 5 6 7 8 9 10
#   bench/pairs.sh --trace HEAD~1 marshal 20 21 22 23
#
# REV is extracted (git archive) into a fresh directory under
# ${TMPDIR:-/tmp}; it and the working tree are each built from their
# own sources with the dune cache off.  For every seed both sides run
#   bench/e2e/run.sh --workload WORKLOAD --seed S --seconds SECONDS --trace 0
# (--trace 1 with --trace) one after the other, alternating which side
# goes first.  The metrics are those BENCHMARK.json declares: the
# end-to-end ones, or with --trace every per-layer one that either side
# reports nonzero, each read in its declared direction.  Printed: one
# row per seed and metric, then for each metric the median and
# quartiles of both sides, the median change, the parent interquartile
# range, how many seeds the working tree reads better, a verdict, and
# each side's attempted and failed operation totals.  The verdict
# applies the bounds BENCHMARK.json gives the end-to-end metrics, in
# this order: "worse" when the change's median is worse than the
# base's by more than the bound; "unresolved" when either side's
# interquartile range exceeds the bound (relative to the base median)
# and not every change run beats every base run; "better" when the
# change wins at least 9 of 10 pairs and its median beats the base's
# by more than the base interquartile range; else "holds".  A metric
# without a bound (the traced ones) reads "better" or "-".  A run that crashed
# (no result line) or reports "correct": false or failed > 0 is named
# by seed and side, its pair is left out of the summary, and the
# script exits 1.  The extracted tree is removed on exit.  Needs git,
# dune and python3.
set -eu

trace=0
if [ "${1:-}" = --trace ]; then
  trace=1
  shift
fi
if [ $# -lt 4 ]; then
  echo "usage: bench/pairs.sh [--trace] REV WORKLOAD SECONDS SEED..." >&2
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
     --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1)
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

python3 - "$results" "$rev" "$workload" "$seconds" "$trace" "$here/BENCHMARK.json" <<'EOF'
import json, sys

path, rev, workload, seconds, trace, spec = sys.argv[1:]
declared = json.load(open(spec))["per_layer" if trace == "1" else "end_to_end"]
metrics = [(m["name"], m["better"]) for m in declared]
bounds = {m["name"]: m["bound"] for m in declared if "bound" in m}
runs = {}
bad = []
totals = {"base": [0, 0], "change": [0, 0]}
for line in open(path):
    seed, side, payload = line.rstrip("\n").split(" ", 2)
    try:
        r = json.loads(payload)
        values = {k: v["value"] for k, v in r["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        bad.append(f"seed {seed} {side}: the run crashed, no result line")
        continue
    totals[side][0] += r.get("attempted", 0)
    totals[side][1] += r.get("failed", 0)
    if r.get("correct") is not True or r.get("failed", 0):
        bad.append(f"seed {seed} {side}: incorrect run {payload.strip()}")
        continue
    runs.setdefault(seed, {})[side] = values

def num(x):
    return f"{x:.2f}" if abs(x) >= 1 else f"{x:.4f}"

def quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

seeds = [s for s in runs if "base" in runs[s] and "change" in runs[s]]
# a metric counts when every pair reports it and, traced, some run
# reports it nonzero
reported = [(m, better) for m, better in metrics
            if all(m in runs[s][side] for s in seeds for side in ("base", "change"))]
zero = [m for m, _ in reported
        if trace == "1" and all(runs[s][side][m] == 0 for s in seeds for side in ("base", "change"))]
metrics = [(m, better) for m, better in reported if m not in zero]

def delta(b, c):
    return f"{100 * (c - b) / b:+7.1f}%" if b else "     n/a"

traced = " traced" if trace == "1" else ""
print(f"{workload}: {rev} (base) vs working tree (change), {len(seeds)}{traced} pairs of {seconds} s")
w = max([16] + [len(m) for m, _ in metrics])
print(f"{'seed':>6} {'metric':<{w}} {'base':>12} {'change':>12} {'delta':>8}")
for s in seeds:
    for m, _ in metrics:
        b, c = runs[s]["base"][m], runs[s]["change"][m]
        print(f"{s:>6} {m:<{w}} {num(b):>12} {num(c):>12} {delta(b, c)}")
print()
def verdict(m, b, c, bm, cm, iqr, wins, up):
    gain = (cm - bm) if up else (bm - cm)  # positive when the change is better
    bound = bounds.get(m)
    spread = lambda xs: quantile(xs, 0.75) - quantile(xs, 0.25)
    every = min(c) > max(b) if up else max(c) < min(b)
    if bound is not None and -gain > bound * abs(bm):
        return "worse"
    if bound is not None and max(spread(b), spread(c)) > bound * abs(bm) and not every:
        return "unresolved"
    if 10 * wins >= 9 * len(b) and gain > iqr:
        return "better"
    return "holds" if bound is not None else "-"

print(f"{'metric':<{w}} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30} {'delta':>8} {'base IQR':>10} {'wins':>6}  verdict")
for m, better in metrics if seeds else []:
    b = [runs[s]["base"][m] for s in seeds]
    c = [runs[s]["change"][m] for s in seeds]
    bm, cm = quantile(b, 0.5), quantile(c, 0.5)
    iqr = quantile(b, 0.75) - quantile(b, 0.25)
    wins = sum(1 for x, y in zip(b, c) if (y > x if better == "higher" else y < x))
    fmt = lambda xs: f"{num(quantile(xs, 0.5))} [{num(quantile(xs, 0.25))}, {num(quantile(xs, 0.75))}]"
    v = verdict(m, b, c, bm, cm, iqr, wins, better == "higher")
    print(f"{m:<{w}} {fmt(b):>30} {fmt(c):>30} {delta(bm, cm)} {num(iqr):>10} {wins:>3}/{len(seeds)}  {v}")
if zero:
    print(f"0 in every run: {', '.join(zero)}")
print()
for side in ("base", "change"):
    attempted, failed = totals[side]
    print(f"{side:<6} attempted {attempted}, failed {failed}")
if bad:
    print()
    for b in bad:
        print(b)
    sys.exit(1)
EOF
