#!/usr/bin/env bash
# The repo benchmark's one command (see bench/README.md).
#
#   bench/run.sh                       all six workloads, every metric
#   bench/run.sh --workload NAME ...   one workload; the last line of output
#                                      is the JSON result BENCHMARK.json's
#                                      contract prescribes
#   bench/run.sh --smoke               all workloads, small and quick
#   bench/run.sh --selfcheck           the full set twice on one build; fails
#                                      unless the two sets agree
#
# Other arguments (--seed N, --seconds S, --trace 0|1, --ranks N, --list,
# --manifest) go to the harness unchanged. Any failure exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Build into target/e2e (covered by the root .gitignore) unless the caller
# chose a target directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/e2e}"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/pic-e2e"

# Stamp of what was just built. Outside a git checkout the commit is unknown;
# the search stops at the repo root so no parent repository answers instead.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
if commit="$(git rev-parse --short=12 HEAD 2>/dev/null)"; then
    export PIC_E2E_COMMIT="$commit"
    if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
        export PIC_E2E_DIRTY=true
    else
        export PIC_E2E_DIRTY=false
    fi
fi
export PIC_E2E_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"

selfcheck=false
single=false
args=()
for a in "$@"; do
    case "$a" in
        --selfcheck) selfcheck=true ;;
        --workload | --list | --manifest) single=true; args+=("$a") ;;
        *) args+=("$a") ;;
    esac
done

if $single; then
    exec "$bin" "${args[@]}"
fi

# Runs every workload, one process each (peak memory is per process), and
# writes each result line to the file named by $1.
run_set() {
    local out="$1" failed=0 w
    : >"$out"
    for w in $("$bin" --list); do
        echo "=== $w"
        if "$bin" --workload "$w" "${args[@]}" | tee "$out.log"; then
            tail -n 1 "$out.log" >>"$out"
        else
            failed=1
        fi
    done
    rm -f "$out.log"
    return $failed
}

results="$CARGO_TARGET_DIR/results"
mkdir -p "$results"
start=$SECONDS
if ! $selfcheck; then
    run_set "$results/latest.jsonl"
    echo "all workloads passed in $((SECONDS - start)) s; result lines in $results/latest.jsonl"
    exit 0
fi

run_set "$results/selfcheck_a.jsonl"
run_set "$results/selfcheck_b.jsonl"
echo "=== selfcheck: set B against set A, bounds from BENCHMARK.json ($((SECONDS - start)) s)"
python3 bench/selfcheck.py BENCHMARK.json "$results/selfcheck_a.jsonl" "$results/selfcheck_b.jsonl"
