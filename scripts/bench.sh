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
#                                    (default: both; sensitivity scans
#                                    run only when soa-binned is selected)
#
# The binned sweep auto-selects the widest SIMD backend the host supports
# (reported in the artifact's "simd_backend"/"simd_lanes" fields and per
# record); the run includes a forced-scalar contrast row for it.
# PIC_NO_SIMD=1 forces the scalar kernel for the whole run.
#
# All flags are forwarded to bench_sweep. Interpretation notes live in
# results/sweep_baseline.md, results/sweep_scaling.md and
# results/sweep_simd.md. The distributed rank loop is measured by the repo
# benchmark (bench/run.sh); BENCH_par.json and results/par_* are archived
# one-core snapshots.
set -euo pipefail
cd "$(dirname "$0")/.."

HOST_CORES=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

# Warn when a requested thread grid exceeds the host's cores: the run
# still works (worker threads oversubscribe deliberately), but wall-clock
# columns then measure contention, not scaling — the artifact flags this
# too (host_cores).
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

# Defaults first so an explicit flag later in "$@" overrides them.
warn_oversubscription --threads --threads 1,2,4,8 "$@"
cargo build --release -p pic-bench --bin bench_sweep
./target/release/bench_sweep "$@"
