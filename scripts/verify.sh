#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md) plus the static gates:
#   build (release) -> tests (every crate; SIMD on and forced off) -> fmt ->
#   clippy, rustdoc (deny warnings) and the stale-reference gate over the
#   docs -> CLI smokes -> the paper figures regenerated and diffed against
#   results/ -> the benchmark harness's unit tests -> benchmark smokes.
# Run from anywhere; operates on the repository root. CI
# (.github/workflows/verify.yml) calls this script rather than repeating
# its steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (every crate), SIMD on and forced off"
# `default-members` makes the tier-1 command cover every crate's suite.
# The serial engine and the rank loops default to the binned SIMD kernel;
# the bit-identity contract must hold just the same with it forced off.
# `--no-fail-fast` runs every test binary of a pass even after one fails,
# so a red run names every failing suite; the pass still exits non-zero.
cargo test -q --no-fail-fast
PIC_NO_SIMD=1 cargo test -q --no-fail-fast
# The corner-fold suite's NaN-lane case, and the owner classifiers' lanes
# outside the domain (NaN, ±inf, negatives), need a build without the
# debug range checks (they reject such coordinates before any arithmetic).
# Each filter runs on its own, and one that matches no test (after a
# rename or a move) fails the step instead of passing empty.
release_lib_tests() {
    local out
    out="$(cargo test -q --release -p pic-core --lib -- "$1" 2>&1)" || {
        printf '%s\n' "$out"
        return 1
    }
    printf '%s\n' "$out"
    grep -qE '^running [1-9][0-9]* tests?$' <<<"$out" || {
        echo "error: no pic-core release test matches '$1'" >&2
        return 1
    }
}
release_lib_tests simd::
release_lib_tests owner::tests::owner_classifiers

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (deny warnings)"
# What a deletion leaves behind: intra-doc links to items that are gone.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> stale-reference gate (what the docs name exists)"
# What a deletion leaves behind in prose: every `--bin NAME`,
# `target/release/NAME`, `--example NAME`, `scripts/*.sh` and `results/*`
# path (globs allowed) that README, DESIGN, EXPERIMENTS, a results note or
# the verify skill names must be in the tree.
docs=(README.md DESIGN.md EXPERIMENTS.md results/*.md .claude/skills/verify/SKILL.md)
stale=0
while read -r kind name; do
    case "$kind" in
    --bin) compgen -G "crates/*/src/bin/$name.rs" >/dev/null || compgen -G "src/bin/$name.rs" >/dev/null ;;
    --example) test -f "examples/$name.rs" ;;
    esac || { echo "stale reference: $kind $name" >&2; stale=1; }
done < <(grep -ohE -- '(--(bin|example) |target/release/)[A-Za-z0-9_-]+' "${docs[@]}" |
    sed 's|^target/release/|--bin |' | sort -u)
while read -r path; do
    compgen -G "$path" >/dev/null || { echo "stale reference: $path" >&2; stale=1; }
done < <(grep -ohE '(scripts/[A-Za-z0-9_.*-]+\.sh|results/[A-Za-z0-9_.*-]+)' "${docs[@]}" | sed 's/[.]$//' | sort -u)
# Every backticked `Type::member` README, DESIGN or EXPERIMENTS names, and
# every lowercase `module::item` path (any depth, std, core and primitive
# types skipped), must have its last segment defined in the sources: an
# item, a field, or a variant of that name.
while read -r item; do
    member="${item##*::}"
    grep -rqE "\b(fn|const|static|type|struct|enum|trait|mod) $member\b|\b$member *:([^:]|$)|^\s*$member\b" crates/*/src src ||
        { echo "stale reference: $item" >&2; stale=1; }
done < <(grep -ohE '`([A-Z][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*|[a-z][a-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+)' \
    README.md DESIGN.md EXPERIMENTS.md | tr -d '`' |
    grep -vE '^(std|core|bool|char|str|f32|f64|[iu](8|16|32|64|128|size))::' | sort -u)
# Every backticked `pic_<crate>::<module>` path they name must resolve to
# that module's file, so a deleted or renamed module cannot linger in prose
# (a lowercase first segment is read as a module: name a crate-root item
# through its module).
while read -r item; do
    dir="crates/$(tr _ - <<<"${item%%::*}")/src/${item#*::}"
    test -f "$dir.rs" || test -f "$dir/mod.rs" || { echo "stale reference: $item" >&2; stale=1; }
done < <(grep -ohE '`pic_[a-z]+::[a-z_][a-z0-9_]*' README.md DESIGN.md EXPERIMENTS.md | tr -d '`' | sort -u)
# Every backticked `SCREAMING_SNAKE` name they name must be a `const` or
# `static` of that name in the sources, or a string literal there (the
# environment variables the program reads).
while read -r name; do
    grep -rqE "\b(const|static) $name\b|\"$name\"" crates/*/src src ||
        { echo "stale reference: $name" >&2; stale=1; }
done < <(grep -ohE '`[A-Z][A-Z0-9]*(_[A-Z0-9]+)+`' README.md DESIGN.md EXPERIMENTS.md | tr -d '`' | sort -u)
test "$stale" -eq 0

echo "==> traced diffusion smoke run (binned rank path, --trace + trace_check)"
# 4 thread-ranks on the default (binned) rank kernel: the summary must
# name the kernel, verification must PASS, the trace run header must
# record the kernel descriptor, and the ndjson must validate.
trace_file="$(mktemp /tmp/pic-trace-smoke.XXXXXX.ndjson)"
out="$(./target/release/pic --balancer diffusion --ranks 4 --grid 32 \
    --particles 2000 --steps 40 --m 1 --dist geometric:0.9 --lb-interval 5 \
    --trace "$trace_file" --trace-every 2)"
echo "$out" | grep -E "rank kernel *: .*/exact"
echo "$out" | grep -q "verification          : PASS"
head -1 "$trace_file" | grep -q '"simd":"[a-z0-9]*/exact"'
cargo run --release -q -p pic-bench --bin trace_check -- "$trace_file"
rm -f "$trace_file"
# The serial engine has one store, so there is no sweep mode to choose.
./target/release/pic --sweep serial 2>/dev/null && exit 1 || test $? -eq 2
# No option sets a sort interval: no store sorts on a timer.
./target/release/pic --rebin 4 2>/dev/null && exit 1 || test $? -eq 2
# A sampling interval past the last step would write no step record.
./target/release/pic --steps 5 --trace /dev/null --trace-every 50 2>/dev/null && exit 1 || test $? -eq 2
# A trace that could not be written fails the run, serial and distributed.
for strategy in "" "--balancer static --ranks 2"; do
    ./target/release/pic --trace /dev/full --grid 16 --particles 100 --steps 5 \
        $strategy >/dev/null 2>&1 && exit 1 || test $? -eq 1
done

echo "==> traced adaptive smoke run (online strategy switching)"
# Sustained geometric skew must drive the adaptive balancer through at
# least one deterministic strategy switch; the header/summary must carry
# the balancer identity, the stream must validate (trace_check also
# cross-checks the summary's switch count against the records), and the
# forced-scalar path must pass the same run.
trace_file="$(mktemp /tmp/pic-trace-adaptive.XXXXXX.ndjson)"
out="$(./target/release/pic --balancer adaptive --ranks 4 --grid 32 \
    --particles 2000 --steps 60 --m 1 --dist geometric:0.9 --lb-interval 5 \
    --trace "$trace_file" --trace-every 2)"
echo "$out" | grep -q "verification          : PASS"
head -1 "$trace_file" | grep -q '"balancer":"adaptive"'
switches="$(grep -c '"type":"switch"' "$trace_file")"
test "$switches" -ge 1
cargo run --release -q -p pic-bench --bin trace_check -- "$trace_file"
rm -f "$trace_file"
PIC_NO_SIMD=1 ./target/release/pic --balancer adaptive --ranks 4 --grid 32 \
    --particles 2000 --steps 60 --m 1 --dist geometric:0.9 --lb-interval 5 \
    --quiet | grep -qx PASS

echo "==> traced vp-refine smoke run (the VP family through trace_check)"
# The same checks under a VP ownership map: the header must name the VP
# runtime and its strategy, the sampled stream must validate, and the
# forced-scalar path must pass the same run.
trace_file="$(mktemp /tmp/pic-trace-vp.XXXXXX.ndjson)"
./target/release/pic --balancer vp-refine --ranks 4 --grid 32 \
    --particles 2000 --steps 40 --m 1 --dist geometric:0.9 --lb-interval 5 \
    --trace "$trace_file" --trace-every 2 --quiet | grep -qx PASS
head -1 "$trace_file" | grep -q '"impl":"ampi".*"balancer":"vp-refine"'
cargo run --release -q -p pic-bench --bin trace_check -- "$trace_file"
rm -f "$trace_file"
PIC_NO_SIMD=1 ./target/release/pic --balancer vp-refine --ranks 4 --grid 32 \
    --particles 2000 --steps 40 --m 1 --dist geometric:0.9 --lb-interval 5 \
    --quiet | grep -qx PASS

echo "==> vp-refine at d = 1 (one VP row on the identity placement drains by columns)"
for simd_env in "" PIC_NO_SIMD=1; do
    env $simd_env ./target/release/pic --balancer vp-refine --ranks 2 --d 1 --grid 32 \
        --particles 2000 --steps 40 --m 1 --dist geometric:0.9 --lb-interval 5 \
        --quiet | grep -qx PASS
done

echo "==> an odd-step injection (two charges in one phase half; the force fold's fallback)"
# Particles injected on step 7 carry the opposite charge of the residents
# that drifted into their columns: a group that mixes the two must take the
# corner folds, not the force fold.
for run in "--threads 1" "--balancer static --ranks 2"; do
    for simd_env in "" PIC_NO_SIMD=1; do
        env $simd_env ./target/release/pic --grid 32 --particles 2000 --steps 40 --k 1 --m 1 \
            --dist uniform --inject 7,0,16,0,32,500 $run --quiet | grep -qx PASS
    done
done

echo "==> paper_all reproduces results/ byte for byte (~2 min)"
# Every E1–E5 number in EXPERIMENTS.md is read from results/; the modeled
# runs are deterministic, so the committed figures must be exactly what
# the code writes at full scale.
results_dir="$(mktemp -d /tmp/pic-results.XXXXXX)"
./target/release/paper_all --out "$results_dir" >/dev/null 2>&1
diff -r "$results_dir" results/
rm -rf "$results_dir"

echo "==> the benchmark harness's own unit tests"
# The smoke below builds only the harness binary; its test code (including
# the check that BENCHMARK.json equals its generator) compiles against the
# pinned API only here. Same target directory as bench/run.sh.
CARGO_TARGET_DIR=target/e2e cargo test -q --offline --manifest-path bench/Cargo.toml

echo "==> bench/run.sh --smoke (every workload verifies, counts, traced == entry point)"
# The repo benchmark at its small shape, as a correctness gate: each
# repetition must verify, end with the expected particle count, and agree
# with the traced run of the same input (bench/README.md). The harness also
# bounds span coverage at 97 %, which a 40 ms smoke run trips whenever one
# preemption lands outside every span, on any commit. So a pass that fails
# with that coverage line as its only `error:` is a warning showing the
# reading; any other `error:` line (verification, counts, self-cost, a
# probe, the build), or a failure that names none, fails the gate.
smoke() {
    local log rc=0
    local coverage='^error: trace\.span_coverage_pct = [0-9.]+ is below 97$'
    log="$(mktemp /tmp/pic-smoke.XXXXXX.log)"
    env "$@" bash bench/run.sh --smoke >/dev/null 2>"$log" || rc=$?
    if [ "$rc" -ne 0 ] && { ! grep -q '^error: ' "$log" ||
        grep '^error: ' "$log" | grep -qvE "$coverage"; }; then
        cat "$log" >&2
        rm -f "$log"
        return 1
    fi
    grep -E "$coverage" "$log" | sed "s/^error: /warning: smoke${*:+ ($*)}: /" >&2 || true
    rm -f "$log"
}
smoke
# Once more on the scalar reference kernel (what a host without a vector
# backend runs), under the benchmark's own correctness checks.
smoke PIC_NO_SIMD=1

echo "verify: OK"
