#!/usr/bin/env bash
# Regenerate the benchmark baselines.
#
#   scripts/bench.sh                 full sweep-engine run (1e4..1e6
#                                    particles), writes BENCH_sweep.json at
#                                    the repository root
#   scripts/bench.sh --quick         CI smoke run (drops the 1e6 tier)
#   scripts/bench.sh --threads 1,2,4 thread counts for the scaling grid
#                                    (default 1,2,4,8; pooled modes only —
#                                    pre-sizes the pool via PIC_THREADS)
#   scripts/bench.sh --modes aos-serial,soa-binned
#                                    restrict to a subset of sweep modes
#                                    (default: all three; sensitivity scans
#                                    run only when soa-binned is selected)
#   scripts/bench.sh --fast-report results/sweep_fast.md
#                                    also write the markdown exact-vs-fast
#                                    comparison (soa-binned vs
#                                    soa-binned-fast; needs both modes in
#                                    the run)
#   scripts/bench.sh --par           benchmark the *distributed* rank loop
#                                    instead: rank grid × implementation ×
#                                    kernel tier, writes BENCH_par.json and
#                                    the results/par_* scaling artifacts.
#                                    Remaining flags go to bench_par
#                                    (--quick, --ranks 1,2,4, --out,
#                                    --results DIR; default results dir:
#                                    results/)
#
# The binned sweeps auto-select the widest SIMD backend the host supports
# (reported in the artifact's "simd_backend"/"simd_lanes"/"fma" fields and
# per record); both runs include forced-scalar contrast rows for the exact
# and the fast binned tier. PIC_NO_SIMD=1 forces the scalar kernel for the
# whole run.
#
# All flags are forwarded to the selected binary. Interpretation notes
# live in results/sweep_baseline.md, results/sweep_scaling.md,
# results/sweep_simd.md, results/sweep_fast.md, and results/par_scaling.md.
set -euo pipefail
cd "$(dirname "$0")/.."

HOST_CORES=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

# Warn when a requested thread/rank grid exceeds the host's cores: the
# run still works (worker threads and thread-ranks oversubscribe
# deliberately), but wall-clock columns then measure contention, not
# scaling — the artifacts flag this too (host_cores / oversubscribed).
warn_oversubscription() {
    local flag="$1" list="" max=0 t
    shift
    while [ $# -gt 0 ]; do
        if [ "$1" = "$flag" ] && [ $# -gt 1 ]; then
            list="$2"
        fi
        shift
    done
    [ -n "$list" ] || return 0
    IFS=',' read -ra counts <<<"$list"
    for t in "${counts[@]}"; do
        [ "$t" -gt "$max" ] 2>/dev/null && max=$t
    done
    if [ "$max" -gt "$HOST_CORES" ]; then
        echo "WARNING: $flag $list exceeds the host's $HOST_CORES core(s);" >&2
        echo "         wall-clock numbers will measure oversubscription, not scaling." >&2
    fi
}

if [ "${1:-}" = "--par" ]; then
    shift
    # Defaults first so an explicit flag later in "$@" overrides them.
    warn_oversubscription --ranks --ranks 1,2,4 "$@"
    cargo build --release -p pic-bench --bin bench_par
    if [[ " $* " == *" --results "* ]]; then
        ./target/release/bench_par "$@"
    else
        ./target/release/bench_par --results results "$@"
    fi
else
    warn_oversubscription --threads --threads 1,2,4,8 "$@"
    cargo build --release -p pic-bench --bin bench_sweep
    ./target/release/bench_sweep "$@"
fi
