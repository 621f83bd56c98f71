#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md) plus the static gates:
#   build (release) -> tests (every crate; SIMD on and forced off) -> fmt ->
#   clippy (deny warnings) -> benches compile -> CLI and benchmark smokes.
# Run from anywhere; operates on the repository root. CI
# (.github/workflows/verify.yml) calls this script rather than repeating
# its steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q -p pic-core (store, kernels, pool), SIMD on and forced off"
# `cargo test -q` above covers the root package only; the binned store,
# the span kernels (ordered and per-lane-charge) and the sweep pool are
# pinned by pic-core's own suites.
cargo test -q -p pic-core
PIC_NO_SIMD=1 cargo test -q -p pic-core
# The corner-fold suite's NaN-lane case needs a build without the
# kernels' debug range checks (they reject NaN before any arithmetic).
cargo test -q --release -p pic-core --lib simd::

echo "==> cargo test -q -p pic-comm -p pic-cluster -p pic-trace"
# Message fabric, balancer decisions and tracer: green, and until this
# line run by no gate.
cargo test -q -p pic-comm -p pic-cluster -p pic-trace

echo "==> cargo test -q -p pic-par -p pic-ampi, SIMD on and forced off; then the root package forced off"
# The distributed rank loop defaults to the binned SIMD kernel: the full
# rank suites (equivalence, wire-format, balancer conformance, alloc
# audits) run on the vector path and again with it forced off, where the
# bit-identity contract must hold just the same. The rank suites run
# before the root package so a scalar-path regression is reported against
# the responsible crate.
cargo test -q -p pic-par -p pic-ampi
PIC_NO_SIMD=1 cargo test -q -p pic-par -p pic-ampi
PIC_NO_SIMD=1 cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo check --all-targets"
# Stable-toolchain compile gate over every target (the AVX-512 kernel
# instantiations included) even when the test steps above were filtered.
cargo check --all-targets

echo "==> cargo bench --no-run"
cargo bench --no-run

echo "==> traced diffusion smoke run (binned rank path, --trace + trace_check)"
# 4 thread-ranks on the binned fast-tier rank kernel: the summary must
# name the kernel, verification must PASS, the trace run header must
# record the kernel descriptor, and the ndjson must validate.
trace_file="$(mktemp /tmp/pic-trace-smoke.XXXXXX.ndjson)"
out="$(./target/release/pic --impl diffusion --ranks 4 --grid 32 \
    --particles 2000 --steps 40 --m 1 --dist geometric:0.9 --lb-interval 5 \
    --sweep soa-binned-fast --trace "$trace_file" --trace-every 2)"
echo "$out" | grep -E "rank kernel *: .*/fast"
echo "$out" | grep -q "verification          : PASS"
head -1 "$trace_file" | grep -q '"simd":"[a-z0-9]*/fast"'
cargo run --release -q -p pic-bench --bin trace_check -- "$trace_file"
rm -f "$trace_file"

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

echo "==> overlap-mode equivalence pass (overlapped sparse vs dense oracle)"
# The overlapped sparse exchange (the default) must be bit-identical to
# the dense synchronous oracle. The rank suites above pin this in-process
# (vector and forced-scalar); this gate smokes both CLI modes on every
# implementation.
for impl in baseline diffusion ampi; do
    for overlap in on off; do
        ./target/release/pic --impl "$impl" --ranks 4 --grid 32 \
            --particles 2000 --steps 30 --k 1 --dist geometric:0.9 \
            --overlap "$overlap" --quiet | grep -qx PASS
    done
done

echo "==> typed-wire equivalence pass (zero-copy lane vs byte oracle)"
# The typed zero-copy particle wire (the default) must be bit-identical
# to the byte-serialization oracle on every implementation and exchange
# mode. The rank suites above pin this in-process (vector and
# forced-scalar); this gate smokes both CLI wire formats (crossed with
# --overlap auto) on every implementation.
for impl in baseline diffusion ampi; do
    for wire in typed bytes; do
        ./target/release/pic --impl "$impl" --ranks 4 --grid 32 \
            --particles 2000 --steps 30 --k 1 --dist geometric:0.9 \
            --wire "$wire" --overlap auto --quiet | grep -qx PASS
    done
done

echo "==> fast-tier analytic gate (--sweep soa-binned-fast must PASS)"
# The fast kernel relaxes bit-identity; its correctness gate is the
# analytic trajectory bound (DESIGN.md §12), which verify() applies in
# this mode. A tolerance breach makes the run FAIL and exit non-zero.
./target/release/pic --sweep soa-binned-fast --grid 64 --particles 20000 \
    --steps 60 --k 1 --m 1 --rebin 3 --dist geometric:0.95 --quiet \
    | grep -qx PASS
PIC_NO_SIMD=1 ./target/release/pic --sweep soa-binned-fast --grid 64 \
    --particles 20000 --steps 60 --k 1 --m 1 --rebin 3 \
    --dist geometric:0.95 --quiet | grep -qx PASS

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
