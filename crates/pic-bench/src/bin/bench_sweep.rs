//! `bench_sweep` — wall-clock ns/particle/step for every sweep
//! mode of the single-process engine, across a thread-count grid, plus
//! the chunk-size sensitivity of the binned sweep, and a SIMD-on/SIMD-off
//! pair for the binned sweep (vector backend vs forced-scalar kernel).
//!
//! ```text
//! bench_sweep [--out PATH] [--quick] [--threads LIST] [--modes LIST]
//! ```
//!
//! `--quick` drops the 1e6-particle tier (for CI smoke runs).
//! `--threads 1,2,4` selects the thread counts to scan (default
//! `1,2,4,8`); the process pre-sizes the worker pool to the largest
//! requested count (via `PIC_THREADS`) and then caps the active threads
//! per measurement, so one process covers the whole scaling grid.
//! `--modes aos-serial,soa-binned` restricts the run to a subset of sweep
//! modes (default: both; the sensitivity scan only runs when
//! `soa-binned` is selected). The single-thread-by-construction
//! `aos-serial` is measured once at 1 thread. The output is one JSON
//! object with host metadata (core count, detected SIMD backend and its
//! lane width, git commit, rustc version) and a record
//! per (mode, n, threads, chunk, simd) configuration, written to
//! `--out PATH` or to stdout without it.

use pic_core::dist::Distribution;
use pic_core::engine::{Simulation, SweepMode};
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_core::pool;
use pic_core::simd::SimdBackend;
use std::fmt::Write as _;
use std::time::Instant;

const GRID: usize = 512;

fn mode_name(mode: SweepMode) -> &'static str {
    match mode {
        SweepMode::Serial => "aos-serial",
        SweepMode::SoaBinned => "soa-binned",
    }
}

fn mode_from_name(name: &str) -> Option<SweepMode> {
    Some(match name {
        "aos-serial" => SweepMode::Serial,
        "soa-binned" => SweepMode::SoaBinned,
        _ => return None,
    })
}

/// Whether a mode's sweep goes through the worker pool (and therefore
/// belongs in the thread-scaling grid).
fn mode_is_pooled(mode: SweepMode) -> bool {
    mode != SweepMode::Serial
}

#[derive(Clone, Copy)]
struct Record {
    mode: &'static str,
    n: u64,
    threads: usize,
    chunk: usize,
    /// SIMD backend the sweep kernel ran on: a vector ISA name or
    /// "scalar" for `soa-binned`, "-" for modes without a SIMD path.
    simd: &'static str,
    steps: u32,
    ns: f64,
}

/// Measure one configuration: warm up (pool spawn, cache fill, initial
/// binning), then time `steps` steps and return ns per particle per step
/// together with the effective chunk size the run used (`chunk: None`
/// means the adaptive default; the resolved value is what gets recorded).
fn time_mode(
    mode: SweepMode,
    chunk: Option<usize>,
    backend: Option<SimdBackend>,
    n: u64,
    steps: u32,
) -> (f64, usize) {
    let grid = Grid::new(GRID).unwrap();
    let setup = InitConfig::new(grid, n, Distribution::PAPER_SKEW)
        .with_m(1)
        .build()
        .unwrap();
    let mut sim = Simulation::with_mode(setup, mode);
    if let Some(chunk) = chunk {
        sim = sim.with_chunk_size(chunk);
    }
    if let Some(backend) = backend {
        sim = sim.with_simd_backend(backend);
    }
    let effective_chunk = sim.chunk_size();
    sim.run(3);
    let t = Instant::now();
    sim.run(steps);
    let ns = t.elapsed().as_nanos() as f64;
    assert!(sim.verify().passed(), "{mode:?} n={n}: verification failed");
    (ns / (steps as f64 * n as f64), effective_chunk)
}

/// Steps per timing run, scaled so every tier takes a comparable wall time.
fn steps_for(n: u64) -> u32 {
    match n {
        0..=20_000 => 200,
        20_001..=200_000 => 40,
        _ => 12,
    }
}

fn run_record(
    mode: SweepMode,
    chunk: Option<usize>,
    backend: Option<SimdBackend>,
    n: u64,
    threads: usize,
) -> Record {
    let threads = pool::global().set_active_threads(threads);
    let steps = steps_for(n);
    let (ns, effective_chunk) = time_mode(mode, chunk, backend, n, steps);
    let simd = match (mode, backend) {
        (SweepMode::SoaBinned, Some(b)) => b.name(),
        (SweepMode::SoaBinned, None) => SimdBackend::detect().name(),
        _ => "-",
    };
    eprintln!(
        "{:>12} n={n:<9} threads={threads} chunk={effective_chunk:<6} \
         simd={simd:<6} {ns:.2} ns/particle/step",
        mode_name(mode)
    );
    Record {
        mode: mode_name(mode),
        n,
        threads,
        chunk: effective_chunk,
        simd,
        steps,
        ns,
    }
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1));
    let thread_counts: Vec<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or("1,2,4,8")
        .split(',')
        .map(|t| t.trim().parse().expect("bad --threads entry"))
        .collect();
    assert!(
        !thread_counts.is_empty(),
        "--threads needs at least one count"
    );
    let modes: Vec<SweepMode> = match args
        .iter()
        .position(|a| a == "--modes")
        .and_then(|i| args.get(i + 1))
    {
        Some(list) => list
            .split(',')
            .map(|m| {
                mode_from_name(m.trim())
                    .unwrap_or_else(|| panic!("bad --modes entry: {m} (see --help of pic)"))
            })
            .collect(),
        None => SweepMode::ALL.to_vec(),
    };
    assert!(!modes.is_empty(), "--modes needs at least one mode");

    // Pre-size the pool to the largest requested count before first use;
    // individual measurements then cap the active threads. On hosts with
    // fewer cores this oversubscribes deliberately (the scaling section in
    // results/ is where the numbers are interpreted).
    let max_threads = *thread_counts.iter().max().unwrap();
    if std::env::var("PIC_THREADS").is_err() {
        std::env::set_var("PIC_THREADS", max_threads.to_string());
    }
    let pool_threads = pool::global().threads();

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let simd_backend = SimdBackend::detect();
    let git_commit = command_line("git", &["rev-parse", "--short", "HEAD"]);
    let rustc_version = command_line("rustc", &["--version"]);

    let sizes: &[u64] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    let mut records = Vec::new();
    for &n in sizes {
        for &mode in &modes {
            if mode_is_pooled(mode) {
                for &t in &thread_counts {
                    records.push(run_record(mode, None, None, n, t));
                }
            } else {
                records.push(run_record(mode, None, None, n, 1));
            }
        }
        // SIMD-off contrast row: the binned sweep with the vector path
        // forced to the scalar kernel, at 1 thread so the backend is the
        // only variable. Skipped when the host has no vector backend —
        // the default rows already are the scalar numbers.
        if modes.contains(&SweepMode::SoaBinned) && simd_backend.is_vector() {
            records.push(run_record(
                SweepMode::SoaBinned,
                None,
                Some(SimdBackend::Scalar),
                n,
                1,
            ));
        }
    }
    // Sensitivity scan at the largest tier, single-threaded so the knob
    // under study is the only variable (explicit chunk sizes here; the
    // grid above uses the adaptive default).
    let n = *sizes.last().unwrap();
    if modes.contains(&SweepMode::SoaBinned) {
        for chunk in [256usize, 1_024, 4_096, 16_384, 65_536] {
            records.push(run_record(SweepMode::SoaBinned, Some(chunk), None, n, 1));
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"sweep\",");
    let _ = writeln!(json, "  \"grid\": {GRID},");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"pool_threads\": {pool_threads},");
    let _ = writeln!(json, "  \"simd_backend\": \"{}\",", simd_backend.name());
    let _ = writeln!(json, "  \"simd_lanes\": {},", simd_backend.lanes());
    let _ = writeln!(json, "  \"git_commit\": \"{git_commit}\",");
    let _ = writeln!(json, "  \"rustc_version\": \"{rustc_version}\",");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"n\": {}, \"threads\": {}, \
             \"chunk\": {}, \"simd\": \"{}\", \"steps\": {}, \
             \"ns_per_particle_step\": {:.3}}}{comma}",
            r.mode, r.n, r.threads, r.chunk, r.simd, r.steps, r.ns
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    pic_bench::report::write_or_print(out_path.map(|s| s.as_str()), &json);
}
