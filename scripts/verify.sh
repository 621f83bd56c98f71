#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md) plus the static gates:
#   build (release) -> tests (every crate; SIMD on and forced off) -> fmt ->
#   clippy, rustdoc (deny warnings) and the stale-reference gate over the
#   docs -> CLI and benchmark smokes.
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
cargo test -q
PIC_NO_SIMD=1 cargo test -q
# The corner-fold suite's NaN-lane case needs a build without the
# kernels' debug range checks (they reject NaN before any arithmetic).
cargo test -q --release -p pic-core --lib simd::

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
test "$stale" -eq 0

echo "==> cargo check --all-targets"
# Stable-toolchain compile gate over every target (the AVX-512 kernel
# instantiations included) even when the test steps above were filtered.
cargo check --all-targets

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
# The sweep mode is the serial engine's: under a balancer it must exit 2.
./target/release/pic --balancer static --sweep serial 2>/dev/null && exit 1 || test $? -eq 2
# The rebin interval is a constant (DEFAULT_REBIN), not an option.
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
trace_file="$(mktemp /tmp/pic-trace-vp.XXXXXX.ndjson)"
./target/release/pic --balancer vp-refine --ranks 4 --grid 32 \
    --particles 2000 --steps 40 --m 1 --dist geometric:0.9 --lb-interval 5 \
    --trace "$trace_file" --quiet | grep -qx PASS
head -1 "$trace_file" | grep -q '"impl":"ampi".*"balancer":"vp-refine"'
cargo run --release -q -p pic-bench --bin trace_check -- "$trace_file"
rm -f "$trace_file"

echo "==> bench/run.sh --smoke (every workload verifies, counts, traced == entry point)"
# The repo benchmark at its small shape, as a correctness gate: each
# repetition must verify, end with the expected particle count, and agree
# with the traced run of the same input (bench/README.md). Those checks
# are deterministic; the harness also bounds span coverage and tracing
# cost, which one preemption of a 40 ms smoke run can trip — so a failed
# pass is repeated once, and only a failure that repeats fails the gate.
bash bench/run.sh --smoke >/dev/null || bash bench/run.sh --smoke >/dev/null
# Once more on the scalar reference kernel (what a host without a vector
# backend runs), under the benchmark's own correctness checks.
PIC_NO_SIMD=1 bash bench/run.sh --smoke >/dev/null || PIC_NO_SIMD=1 bash bench/run.sh --smoke >/dev/null

echo "verify: OK"
