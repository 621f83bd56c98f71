#!/usr/bin/env bash
# Alternating-pairs comparison of a parent revision and the working tree on
# one benchmark workload (the protocol of the choosing-metrics guide, §8).
#
#   scripts/bench_pairs.sh PARENT_REV WORKLOAD PAIRS [SEED]
#
# Builds the benchmark harness twice, each into its own CARGO_TARGET_DIR
# under target/pairs/: once from `git archive PARENT_REV`, once from the
# working tree (uncommitted edits included). Then runs
# `pic-e2e --workload WORKLOAD --trace 0 --seconds 2 [--seed SEED]` PAIRS
# times per side, alternating which side runs first, and prints for each
# end-to-end metric the parent's median [IQR], the change's median, how
# many pairs the change read lower, and whether the gain rule holds: the
# change lower in at least nine tenths of the pairs (ties count for
# neither) and the medians further apart than the parent's IQR.
#
# Exits non-zero if a build fails or any run reports `"correct": false`
# or `failed > 0`. Every result line is kept in target/pairs/runs.jsonl.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT_REV WORKLOAD PAIRS [SEED]" >&2
    exit 2
fi
rev="$1" workload="$2" pairs="$3" seed="${4:-}"
case "$pairs" in
    '' | *[!0-9]* | 0) echo "error: PAIRS must be a positive integer" >&2; exit 2 ;;
esac

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
work="$root/target/pairs"
mkdir -p "$work"

echo "==> building $rev (parent) and the working tree (change)" >&2
rm -rf "$work/parent-src"
mkdir -p "$work/parent-src"
git archive "$rev" | tar -x -C "$work/parent-src"
CARGO_TARGET_DIR="$work/parent-target" cargo build --release --offline --quiet \
    --manifest-path "$work/parent-src/bench/Cargo.toml" >&2
CARGO_TARGET_DIR="$work/change-target" cargo build --release --offline --quiet \
    --manifest-path "$root/bench/Cargo.toml" >&2
parent_bin="$work/parent-target/release/pic-e2e"
change_bin="$work/change-target/release/pic-e2e"

args=(--workload "$workload" --trace 0 --seconds 2)
if [ -n "$seed" ]; then
    args+=(--seed "$seed")
fi

runs="$work/runs.jsonl"
: >"$runs"
# One run of side $1: append `{"side": ..., "pair": ..., "result": ...}`.
run_side() {
    local side="$1" pair="$2" bin line
    if [ "$side" = parent ]; then bin="$parent_bin"; else bin="$change_bin"; fi
    line="$("$bin" "${args[@]}" 2>>"$work/stderr.log" | tail -n 1)" || {
        echo "error: $side run of pair $pair failed (stderr in $work/stderr.log)" >&2
        exit 1
    }
    printf '{"side": "%s", "pair": %d, "result": %s}\n' "$side" "$pair" "$line" >>"$runs"
}

: >"$work/stderr.log"
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    echo "==> pair $((i + 1))/$pairs (${order[0]} first)" >&2
    for side in "${order[@]}"; do
        run_side "$side" "$i"
    done
done

python3 - "$runs" "$rev" "$workload" "${seed:-default}" <<'EOF'
import json, statistics, sys

path, rev, workload, seed = sys.argv[1:]
runs = [json.loads(line) for line in open(path)]
bad = [r for r in runs
       if not r["result"].get("correct") or r["result"].get("failed", 0) > 0]
for r in bad:
    print(f"error: {r['side']} run of pair {r['pair']}: correct="
          f"{r['result'].get('correct')} failed={r['result'].get('failed')}",
          file=sys.stderr)

def series(side, metric):
    rows = sorted((r["pair"], r["result"]["metrics"][metric]["value"])
                  for r in runs if r["side"] == side)
    return [v for _, v in rows]

metrics = list(runs[0]["result"]["metrics"])
pairs = len(series("parent", metrics[0]))
print(f"{workload} (seed {seed}): parent {rev} vs working tree, {pairs} pairs")
for m in metrics:
    p, c = series("parent", m), series("change", m)
    pm, cm = statistics.median(p), statistics.median(c)
    q = statistics.quantiles(p, n=4, method="inclusive") if len(p) > 1 else [pm, pm, pm]
    iqr = q[2] - q[0]
    lower = sum(b < a for a, b in zip(p, c))
    holds = lower >= 0.9 * pairs and pm - cm > iqr
    delta = f"{100 * (cm - pm) / pm:+.1f} %" if pm else "n/a"
    print(f"  {m:12s} {pm:.3f} [{iqr:.3f}] -> {cm:.3f} ({delta}), "
          f"change lower in {lower}/{pairs}, gain rule {'holds' if holds else 'does not hold'}")
sys.exit(1 if bad else 0)
EOF
