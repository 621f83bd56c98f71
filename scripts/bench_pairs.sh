#!/usr/bin/env bash
# Alternating-pairs comparison of a parent revision and the working tree on
# one or more benchmark workloads (the protocol of the choosing-metrics
# guide, §8), kept as a commit-keyed record.
#
#   scripts/bench_pairs.sh PARENT_REV WORKLOAD[,WORKLOAD...|all] PAIRS [SEED]
#
# Builds the benchmark harness twice, each into its own CARGO_TARGET_DIR
# under target/pairs/: once from `git archive PARENT_REV`, once from the
# working tree (uncommitted edits included). Then, per workload (`all` =
# every workload BENCHMARK.json declares, in its order), runs
# `pic-e2e --workload W --trace 0 --seconds 2 [--seed SEED]` PAIRS times
# per side, alternating which side runs first, and prints one block: for
# each end-to-end metric the parent's median [IQR] and min–max spread,
# the change's median and spread, how many pairs the change read lower, whether the gain rule holds —
# the change lower in at least nine tenths of the pairs (ties count for
# neither) and the medians further apart than the parent's IQR — and the
# regression verdict the merge gate applies, from the metric's `bound` in
# BENCHMARK.json (read only; a bound is a share of the parent's median):
#   worse         the change's median is worse than the parent's by more
#                 than the bound;
#   unresolved    otherwise, when the parent's IQR is wider than the bound
#                 and not every change run beats every parent run;
#   within bound  neither.
#
# Each block is also appended as one JSON line to BENCH_e2e.jsonl at the
# repo root: the parent and change revisions, the host's CPU model and
# count, workload, the seed and kernel the runs' `stamp` lines report (the
# harness's default seed when SEED is not given), pairs, and per metric
# the two medians, the parent's IQR, both sides' `[min, max]` spread
# (`parent_range`, `change_range`; lines written before these fields
# existed lack them), the change-lower count, the gain rule and the
# regression verdict. Commit the lines a change measured.
#
# The change revision names the code the runs measured: HEAD on a clean
# tree; otherwise, with "dirty": true, the commit `git stash create` makes
# of the tracked edits (written to the object store only: no ref, index
# or file changes). Untracked files are built but not in that commit, so
# `git add` new sources before a run. The commit is unreferenced; keep it
# with `git stash store HASH` or a tag where it must outlive `git gc`.
#
# Exits non-zero if a build fails, if the two sides of a pair report a
# different seed, kernel or shape (`ncells`, `n`, `steps`, `smoke`) in
# their stamps (no line is written for that workload), or if any run
# reports `"correct": false` or `failed > 0` (its workload's line is still
# written, with "correct": false). Every run's stamp and result line is
# kept in target/pairs/runs.jsonl.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT_REV WORKLOAD[,WORKLOAD...|all] PAIRS [SEED]" >&2
    exit 2
fi
rev="$1" workloads="$2" pairs="$3" seed="${4:-}"
case "$pairs" in
    '' | *[!0-9]* | 0) echo "error: PAIRS must be a positive integer" >&2; exit 2 ;;
esac

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
declared="$(python3 -c 'import json; print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
if [ "$workloads" = all ]; then
    workloads="$declared"
fi
IFS=, read -r -a list <<<"$workloads"
for w in "${list[@]}"; do
    case ",$declared," in
        *",$w,"*) ;;
        *) echo "error: unknown workload '$w' (BENCHMARK.json declares $declared)" >&2; exit 2 ;;
    esac
done

parent_rev="$(git rev-parse --verify "$rev^{commit}")"
change_rev="$(git rev-parse HEAD)"
dirty=false
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    dirty=true
    change_rev="$(git stash create)"
    if [ -z "$change_rev" ]; then
        change_rev="$(git rev-parse HEAD)"
    fi
fi

work="$root/target/pairs"
mkdir -p "$work"
echo "==> building $rev (parent) and the working tree (change)" >&2
rm -rf "$work/parent-src"
mkdir -p "$work/parent-src"
git archive "$parent_rev" | tar -x -C "$work/parent-src"
CARGO_TARGET_DIR="$work/parent-target" cargo build --release --offline --quiet \
    --manifest-path "$work/parent-src/bench/Cargo.toml" >&2
CARGO_TARGET_DIR="$work/change-target" cargo build --release --offline --quiet \
    --manifest-path "$root/bench/Cargo.toml" >&2
parent_bin="$work/parent-target/release/pic-e2e"
change_bin="$work/change-target/release/pic-e2e"

runs="$work/runs.jsonl"
: >"$runs"
: >"$work/stderr.log"
# One run of side $1 on workload $3: append
# `{"workload": ..., "side": ..., "pair": ..., "stamp": ..., "result": ...}`.
run_side() {
    local side="$1" pair="$2" workload="$3" bin out stamp
    local args=(--workload "$workload" --trace 0 --seconds 2)
    if [ -n "$seed" ]; then
        args+=(--seed "$seed")
    fi
    if [ "$side" = parent ]; then bin="$parent_bin"; else bin="$change_bin"; fi
    out="$("$bin" "${args[@]}" 2>>"$work/stderr.log")" || {
        echo "error: $side run of $workload pair $pair failed (stderr in $work/stderr.log)" >&2
        exit 1
    }
    stamp="$(sed -n 's/^stamp //p' <<<"$out" | head -n 1)"
    if [ -z "$stamp" ]; then
        echo "error: $side run of $workload pair $pair printed no stamp line" >&2
        exit 1
    fi
    printf '{"workload": "%s", "side": "%s", "pair": %d, "stamp": %s, "result": %s}\n' \
        "$workload" "$side" "$pair" "$stamp" "$(tail -n 1 <<<"$out")" >>"$runs"
}

status=0
for w in "${list[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
        echo "==> $w: pair $((i + 1))/$pairs (${order[0]} first)" >&2
        for side in "${order[@]}"; do
            run_side "$side" "$i" "$w"
        done
    done
    python3 - "$runs" "$w" "$rev" "$parent_rev" "$change_rev" "$dirty" \
        "$root/BENCH_e2e.jsonl" "$root/BENCHMARK.json" <<'EOF' || status=1
import json, os, statistics, sys

path, workload, rev, parent_rev, change_rev, dirty, record, bench = sys.argv[1:]
declared = {m["name"]: m for m in json.load(open(bench))["end_to_end"]}
runs = [r for r in map(json.loads, open(path)) if r["workload"] == workload]

def ran(r):
    """What a run's stamp says it ran: both sides of a pair must agree."""
    return {k: r["stamp"].get(k) for k in ("seed", "kernel", "ncells", "n", "steps", "smoke")}

mismatched = False
for i in sorted({r["pair"] for r in runs}):
    sides = {r["side"]: ran(r) for r in runs if r["pair"] == i}
    if sides.get("parent") != sides.get("change"):
        print(f"error: {workload}: pair {i}: parent ran {sides.get('parent')}, "
              f"change ran {sides.get('change')}", file=sys.stderr)
        mismatched = True
if mismatched:
    sys.exit(1)
seed, kernel = ran(runs[0])["seed"], ran(runs[0])["kernel"]

bad = [r for r in runs
       if not r["result"].get("correct") or r["result"].get("failed", 0) > 0]
for r in bad:
    print(f"error: {workload}: {r['side']} run of pair {r['pair']}: correct="
          f"{r['result'].get('correct')} failed={r['result'].get('failed')}",
          file=sys.stderr)

def series(side, metric):
    rows = sorted((r["pair"], r["result"]["metrics"][metric]["value"])
                  for r in runs if r["side"] == side)
    return [v for _, v in rows]

def regression(metric, p, c, pm, cm, iqr):
    """The merge gate's verdict on one metric: worse / unresolved / within bound."""
    spec = declared.get(metric)
    if spec is None:
        return "no bound"
    sign = 1 if spec["better"] == "lower" else -1
    bound = spec["bound"] * abs(pm)
    if sign * (cm - pm) > bound:
        return "worse"
    beats_all = max(sign * v for v in c) < min(sign * v for v in p)
    if iqr > bound and not beats_all:
        return "unresolved"
    return "within bound"

def host():
    model = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                  if line.startswith("model name")), "unknown")
    return {"cpu": model, "cpus": os.cpu_count()}

metrics = list(runs[0]["result"]["metrics"])
pairs = len(series("parent", metrics[0]))
line = {"parent": parent_rev, "change": change_rev, "dirty": dirty == "true",
        "host": host(), "workload": workload, "seed": seed, "kernel": kernel, "pairs": pairs,
        "correct": not bad, "metrics": {}}
print(f"{workload} (seed {seed}, kernel {kernel}): parent {rev} vs working tree, {pairs} pairs")
for m in metrics:
    p, c = series("parent", m), series("change", m)
    pm, cm = statistics.median(p), statistics.median(c)
    q = statistics.quantiles(p, n=4, method="inclusive") if len(p) > 1 else [pm, pm, pm]
    iqr = q[2] - q[0]
    lower = sum(b < a for a, b in zip(p, c))
    holds = lower >= 0.9 * pairs and pm - cm > iqr
    verdict = regression(m, p, c, pm, cm, iqr)
    delta = f"{100 * (cm - pm) / pm:+.1f} %" if pm else "n/a"
    print(f"  {m:12s} {pm:.3f} [{iqr:.3f}] {{{min(p):.3f}-{max(p):.3f}}} -> "
          f"{cm:.3f} {{{min(c):.3f}-{max(c):.3f}}} ({delta}), "
          f"change lower in {lower}/{pairs}, gain rule {'holds' if holds else 'does not hold'}, "
          f"{verdict}")
    line["metrics"][m] = {"parent_median": pm, "change_median": cm, "parent_iqr": iqr,
                          "parent_range": [min(p), max(p)], "change_range": [min(c), max(c)],
                          "change_lower": lower, "gain_rule": holds, "regression": verdict}
with open(record, "a") as f:
    f.write(json.dumps(line) + "\n")
sys.exit(1 if bad else 0)
EOF
done
exit "$status"
