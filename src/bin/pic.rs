//! `pic` — command-line driver for the PIC Parallel Research Kernel.
//!
//! Runs a configurable simulation with any of the implementations and
//! prints the verification verdict plus load-balance statistics, in the
//! spirit of the original PRK driver binaries.
//!
//! ```text
//! pic --grid 64 --particles 20000 --steps 200 --dist geometric:0.95 \
//!     --impl diffusion --ranks 8 --lb-interval 1 --border 3
//! ```
//!
//! Run `pic --help` for all options.

use pic_prk::ampi::balancer::Balancer;
use pic_prk::ampi::model::AmpiParams;
use pic_prk::ampi::runtime::{run_ampi_adaptive_traced, run_ampi_traced};
use pic_prk::comm::world::run_threads;
use pic_prk::core::init::SkewAxis;
use pic_prk::par::balance::run_adaptive_traced;
use pic_prk::par::baseline::run_baseline_traced;
use pic_prk::par::diffusion::{run_diffusion_mode_traced, DiffusionMode, DiffusionParams};
use pic_prk::par::runner::{ExchangeMode, ParConfig, ParOutcome, RankKernel, WireFormat};
use pic_prk::prelude::*;
use pic_prk::trace::{trace_simulation, Phase, Tracer};
use std::io::Write;
use std::process::exit;
use std::sync::Mutex;

/// Help text. Defaults that mirror library defaults are injected from the
/// source constants so the text can never drift out of date again (it
/// previously advertised `--lb-interval` 10 vs the library's 20, `--border`
/// 2 vs 1, and `--rebin` 1 vs 16).
fn help() -> String {
    let diff = DiffusionParams::default();
    let sweep_modes = SweepMode::ALL
        .iter()
        .map(|m| m.cli_name())
        .collect::<Vec<_>>()
        .join(" | ");
    format!(
        "\
pic — the PIC Parallel Research Kernel (IPDPS 2016 reproduction)

USAGE: pic [OPTIONS]

Workload:
  --grid N            cells per side (even, default 64)
  --particles N       particle count (default 10000)
  --steps N           time steps (default 100)
  --dist SPEC         uniform | geometric:R | sinusoidal |
                      linear:ALPHA,BETA | patch:X0,X1,Y0,Y1
                      (default geometric:0.99)
  --k K               horizontal stride parameter, 2k+1 cells/step (default 0)
  --m M               vertical cells/step (default 0)
  --dir D             +1 or -1 drift direction (default +1)
  --skew-axis A       x | y : axis the distribution profile applies to
  --inject S,X0,X1,Y0,Y1,N   inject N particles at step S in the region
  --remove S,X0,X1,Y0,Y1,N   remove up to N particles at step S

Implementation:
  --impl NAME         serial | baseline | diffusion | ampi | adaptive
                      (default serial)
  --ranks P           thread-ranks for the parallel implementations (default 4)

Load balancing:
  --balancer B        baseline | static | diffusion | ampi | adaptive |
                      refine | greedy | none
                      selects the balancing strategy; without --impl it
                      also picks the implementation that hosts it
                      (baseline/static -> mpi-2d, diffusion -> mpi-2d-LB,
                      ampi/refine/greedy/none -> the AMPI runtime,
                      adaptive -> the online-switching cut balancer).
                      With --impl ampi the historical values
                      refine | greedy | none pick the VP strategy
                      (default refine) and adaptive switches VP
                      strategies online; with other --impl values the
                      implementation wins as before.

Kernel selection (all implementations):
  --sweep MODE        {sweep_modes} :
                      particle sweep strategy and memory layout (default
                      serial; every mode except soa-binned-fast is
                      bit-identical — soa-binned-fast trades bit-identity
                      for speed and is verified against the analytic
                      trajectory bound instead)
                      for the parallel implementations, soa-binned[-fast]
                      select the binned SIMD rank loop at that tier, any
                      other mode selects the scalar AoS reference loop;
                      default without --sweep is soa-binned (bit-identical
                      to the AoS loop)
  --rebin R           counting-sort interval for the binned sweeps
                      (steps between re-sorts, default {rebin}); no effect
                      on --impl ampi, whose store is sorted only at
                      construction and after a removal event
  --overlap MODE      on | off | auto — particle exchange strategy for
                      the parallel implementations (default on): on =
                      sparse neighbor-aware all-to-all, split-phase
                      overlapped with the interior sweep where the
                      decomposition allows; off = dense synchronous
                      alltoallv (the oracle both paths are verified
                      against); auto = pick per run from the world size
                      and neighbor density (dense at small P, sparse once
                      elided messages outweigh the protocol overhead) —
                      bit-identical results in every mode
  --wire bytes|typed  particle wire representation for the parallel
                      implementations (default typed): typed moves the
                      per-destination particle buffers through the
                      in-process fabric by ownership — zero serialization,
                      zero per-particle copies; bytes encodes to the
                      76-byte portable wire record first (kept as the
                      serialization oracle) — bit-identical results
                      either way

Single-process engine (--impl serial):
  --chunk N           chunk size for --sweep soa-chunked / soa-binned
                      (default: adaptive, max(4096, n / (threads * 4)))
  --threads T         cap the sweep worker pool at T threads (default:
                      all cores; PIC_THREADS overrides the pool size)
                      the binned sweeps auto-select the widest SIMD backend
                      the host supports; set PIC_NO_SIMD=1 to force the
                      scalar kernel on every tier (the fast tier then runs
                      the exact scalar kernel, bit-identical to soa-binned)

Diffusion / adaptive balancer (--impl diffusion | adaptive):
  --lb-interval F     steps between LB invocations (default {diff_interval})
  --tau T             count-difference threshold (default {diff_tau})
  --border W          border width in cells (default {diff_border})
  --mode M            x | y | 2phase (default x)

AMPI runtime (--impl ampi):
  --d D               over-decomposition degree (default 4)
  --lb-interval F     steps between LB invocations (default {ampi_interval})
  --balancer B        refine | greedy | none | adaptive (default refine)

Telemetry:
  --trace FILE        write ndjson load-balance telemetry to FILE
                      (per-step phase times, counters, per-rank loads,
                      cut decisions, end-of-run summary)
  --trace-every N     sample a step record every N steps (default 1;
                      cut decisions and the summary are never sampled away)

Output:
  --quiet             only print PASS/FAIL
  --help              this text
",
        rebin = pic_prk::core::bin::DEFAULT_REBIN,
        diff_interval = diff.interval,
        diff_tau = diff.tau,
        diff_border = diff.border_w,
        ampi_interval = AMPI_LB_INTERVAL_DEFAULT,
    )
}

/// CLI default for the AMPI `--lb-interval`. The library's
/// `AmpiParams::paper_default()` uses the paper's full-scale `F = 160`,
/// which is useless at CLI-scale step counts, so the driver keeps its own.
const AMPI_LB_INTERVAL_DEFAULT: u32 = 10;

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(|s| s.as_str())
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("error: invalid value for {name}: {v}");
                exit(2);
            }),
        }
    }
}

fn parse_dist(spec: &str) -> Distribution {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    match kind {
        "uniform" => Distribution::Uniform,
        "geometric" => Distribution::Geometric {
            r: rest
                .parse()
                .unwrap_or_else(|_| bail(&format!("bad geometric ratio: {rest}"))),
        },
        "sinusoidal" => Distribution::Sinusoidal,
        "linear" => {
            let parts: Vec<&str> = rest.split(',').collect();
            if parts.len() != 2 {
                bail::<f64>("linear needs ALPHA,BETA");
            }
            Distribution::Linear {
                alpha: parts[0].parse().unwrap_or_else(|_| bail("bad alpha")),
                beta: parts[1].parse().unwrap_or_else(|_| bail("bad beta")),
            }
        }
        "patch" => {
            let p: Vec<usize> = rest
                .split(',')
                .map(|s| s.parse().unwrap_or_else(|_| bail("bad patch coordinate")))
                .collect();
            if p.len() != 4 {
                bail::<usize>("patch needs X0,X1,Y0,Y1");
            }
            Distribution::Patch {
                x0: p[0],
                x1: p[1],
                y0: p[2],
                y1: p[3],
            }
        }
        other => bail(&format!("unknown distribution: {other}")),
    }
}

fn parse_event(spec: &str, inject: bool) -> Event {
    let p: Vec<u64> = spec
        .split(',')
        .map(|s| s.parse().unwrap_or_else(|_| bail("bad event field")))
        .collect();
    if p.len() != 6 {
        bail::<usize>("event needs S,X0,X1,Y0,Y1,N");
    }
    let region = Region {
        x0: p[1] as usize,
        x1: p[2] as usize,
        y0: p[3] as usize,
        y1: p[4] as usize,
    };
    if inject {
        Event::inject(p[0] as u32, region, p[5], 0, 0, 1)
    } else {
        Event::remove(p[0] as u32, region, p[5])
    }
}

fn bail<T>(msg: &str) -> T {
    eprintln!("error: {msg}");
    exit(2);
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    if args.flag("--help") || args.flag("-h") {
        print!("{}", help());
        return;
    }
    let quiet = args.flag("--quiet");

    // Workload.
    let ncells: usize = args.parse("--grid", 64);
    let n: u64 = args.parse("--particles", 10_000);
    let steps: u32 = args.parse("--steps", 100);
    let dist = parse_dist(args.value("--dist").unwrap_or("geometric:0.99"));
    let k: u32 = args.parse("--k", 0);
    let m: i32 = args.parse("--m", 0);
    let dir: i8 = args.parse("--dir", 1);
    let axis = match args.value("--skew-axis").unwrap_or("x") {
        "x" => SkewAxis::X,
        "y" => SkewAxis::Y,
        other => bail(&format!("bad skew axis: {other}")),
    };

    let grid = Grid::new(ncells).unwrap_or_else(|e| bail(&e.to_string()));
    let mut setup = InitConfig::new(grid, n, dist)
        .with_k(k)
        .with_m(m)
        .with_dir(dir)
        .with_skew_axis(axis)
        .build()
        .unwrap_or_else(|e| bail(&e.to_string()));
    if let Some(spec) = args.value("--inject") {
        setup = setup.with_event(parse_event(spec, true));
    }
    if let Some(spec) = args.value("--remove") {
        setup = setup.with_event(parse_event(spec, false));
    }

    // Implementation resolution: an explicit --impl always wins (the
    // historical contract — --balancer then only refines the strategy
    // inside it). Without --impl, --balancer picks the implementation
    // hosting the requested strategy, so `pic --balancer adaptive` is a
    // complete invocation.
    let balancer_flag = args.value("--balancer");
    let implementation = match args.value("--impl") {
        Some(i) => i.to_string(),
        None => match balancer_flag {
            None => "serial".to_string(),
            Some("baseline") | Some("static") => "baseline".to_string(),
            Some("diffusion") => "diffusion".to_string(),
            Some("adaptive") => "adaptive".to_string(),
            Some("ampi") | Some("refine") | Some("greedy") | Some("none") => "ampi".to_string(),
            Some(other) => bail(&format!("bad balancer: {other}")),
        },
    };
    let ranks: usize = args.parse("--ranks", 4);

    // Telemetry: the file is opened up front (so a bad path fails before
    // the run), then handed to exactly one tracer — rank 0's in the
    // parallel implementations.
    let trace_every: u32 = args.parse("--trace-every", 1);
    let trace_writer: Mutex<Option<Box<dyn Write + Send>>> =
        Mutex::new(args.value("--trace").map(|path| {
            let f = std::fs::File::create(path)
                .unwrap_or_else(|e| bail(&format!("cannot create trace file {path}: {e}")));
            Box::new(std::io::BufWriter::new(f)) as Box<dyn Write + Send>
        }));
    let rank0_tracer = |rank: usize| -> Tracer {
        if rank == 0 {
            match trace_writer.lock().unwrap().take() {
                Some(w) => Tracer::to_writer(w, trace_every),
                None => Tracer::disabled(),
            }
        } else {
            Tracer::disabled()
        }
    };

    if !quiet {
        println!(
            "PIC PRK: {ncells}x{ncells} cells, {n} particles, {steps} steps, \
             dist {dist:?}, k={k} m={m} dir={dir}, impl {implementation}"
        );
    }

    // Rank-kernel selection for the parallel implementations: --sweep maps
    // onto the rank hot loop (binned modes → binned SIMD path at that
    // tier, anything else → the AoS reference loop); without --sweep the
    // ranks run the binned exact tier, bit-identical to the AoS loop.
    let rebin: u32 = args.parse("--rebin", pic_prk::core::bin::DEFAULT_REBIN);
    let exchange = match args.value("--overlap").unwrap_or("on") {
        "on" => ExchangeMode::OverlappedSparse,
        "off" => ExchangeMode::DenseSync,
        "auto" => ExchangeMode::Auto,
        other => bail(&format!("bad --overlap value: {other}")),
    };
    let wire = match args.value("--wire").unwrap_or("typed") {
        "typed" => WireFormat::Typed,
        "bytes" => WireFormat::Bytes,
        other => bail(&format!("bad --wire value: {other}")),
    };
    let rank_kernel = match args.value("--sweep") {
        Some(name) => RankKernel::from_sweep(
            SweepMode::from_cli_name(name)
                .unwrap_or_else(|| bail(&format!("bad sweep mode: {name}"))),
        ),
        None => RankKernel::default(),
    }
    .with_rebin_interval(rebin)
    .with_exchange(exchange)
    .with_wire(wire);

    let outcome: Option<ParOutcome> = match implementation.as_str() {
        "serial" => {
            let sweep_name = args.value("--sweep").unwrap_or("serial");
            let sweep = SweepMode::from_cli_name(sweep_name)
                .unwrap_or_else(|| bail(&format!("bad sweep mode: {sweep_name}")));
            let chunk: Option<usize> = args.value("--chunk").map(|v| match v.parse() {
                Ok(c) => c,
                Err(_) => bail("bad --chunk"),
            });
            let rebin: u32 = args.parse("--rebin", pic_prk::core::bin::DEFAULT_REBIN);
            if let Some(t) = args.value("--threads") {
                let t: usize = t.parse().unwrap_or_else(|_| bail("bad --threads"));
                pic_prk::core::pool::global().set_active_threads(t.max(1));
            }
            let mut sim = Simulation::with_mode(setup, sweep).with_rebin_interval(rebin);
            if let Some(chunk) = chunk {
                sim = sim.with_chunk_size(chunk);
            }
            if !quiet {
                println!(
                    "sweep mode            : {} (kernel {})",
                    sweep.cli_name(),
                    sim.kernel_desc()
                );
            }
            let mut tracer = rank0_tracer(0);
            trace_simulation(&mut sim, steps, &mut tracer);
            tracer.phase_start(Phase::Verify);
            let report = sim.verify();
            tracer.phase_end(Phase::Verify);
            tracer.set_final_particles(sim.particle_count() as u64);
            tracer.finish();
            summarize_serial(&report, sim.particle_count(), quiet);
            if !report.passed() {
                exit(1);
            }
            None
        }
        "baseline" => {
            let cfg = ParConfig::new(setup, steps).with_kernel(rank_kernel);
            Some(
                run_threads(ranks, |comm| {
                    let mut tracer = rank0_tracer(comm.rank());
                    let out = run_baseline_traced(&comm, &cfg, &mut tracer);
                    tracer.finish();
                    out
                })
                .swap_remove(0),
            )
        }
        "diffusion" | "adaptive" => {
            let params = DiffusionParams {
                interval: args.parse("--lb-interval", DiffusionParams::default().interval),
                tau: args.parse("--tau", DiffusionParams::default().tau),
                border_w: args.parse("--border", DiffusionParams::default().border_w),
            };
            let mode = match args.value("--mode").unwrap_or("x") {
                "x" => DiffusionMode::XOnly,
                "y" => DiffusionMode::YOnly,
                "2phase" => DiffusionMode::TwoPhase,
                other => bail(&format!("bad mode: {other}")),
            };
            // `--impl diffusion --balancer adaptive` upgrades to the
            // online-switching balancer over the same cut machinery.
            let adaptive = implementation == "adaptive" || balancer_flag == Some("adaptive");
            let cfg = ParConfig::new(setup, steps).with_kernel(rank_kernel);
            Some(
                run_threads(ranks, |comm| {
                    let mut tracer = rank0_tracer(comm.rank());
                    let out = if adaptive {
                        run_adaptive_traced(&comm, &cfg, params, mode, &mut tracer)
                    } else {
                        run_diffusion_mode_traced(&comm, &cfg, params, mode, &mut tracer)
                    };
                    tracer.finish();
                    out
                })
                .swap_remove(0),
            )
        }
        "ampi" => {
            let d: usize = args.parse("--d", 4);
            let interval: u32 = args.parse("--lb-interval", AMPI_LB_INTERVAL_DEFAULT);
            let cfg = ParConfig::new(setup, steps).with_kernel(rank_kernel);
            if balancer_flag == Some("adaptive") {
                Some(
                    run_threads(ranks, |comm| {
                        let mut tracer = rank0_tracer(comm.rank());
                        let out = run_ampi_adaptive_traced(&comm, &cfg, d, interval, &mut tracer);
                        tracer.finish();
                        out
                    })
                    .swap_remove(0),
                )
            } else {
                let balancer = match balancer_flag.unwrap_or("refine") {
                    "refine" | "ampi" => Balancer::paper_default(),
                    "greedy" => Balancer::Greedy,
                    "none" => Balancer::None,
                    other => bail(&format!("bad balancer: {other}")),
                };
                let params = AmpiParams {
                    d,
                    interval,
                    balancer,
                };
                Some(
                    run_threads(ranks, |comm| {
                        let mut tracer = rank0_tracer(comm.rank());
                        let out = run_ampi_traced(&comm, &cfg, &params, &mut tracer);
                        tracer.finish();
                        out
                    })
                    .swap_remove(0),
                )
            }
        }
        other => bail(&format!("unknown implementation: {other}")),
    };

    if let Some(o) = outcome {
        summarize_parallel(&o, ranks, quiet);
        if !o.verify.passed() {
            exit(1);
        }
    }
}

fn summarize_serial(report: &pic_prk::core::verify::VerifyReport, count: usize, quiet: bool) {
    if quiet {
        println!("{}", if report.passed() { "PASS" } else { "FAIL" });
        return;
    }
    println!("final particles       : {count}");
    println!("position failures     : {}", report.position_failures);
    println!("max trajectory error  : {:.2e}", report.max_error);
    println!(
        "id checksum           : {} (expected {})",
        report.id_sum, report.expected_id_sum
    );
    println!(
        "verification          : {}",
        if report.passed() { "PASS" } else { "FAIL" }
    );
}

fn summarize_parallel(o: &ParOutcome, ranks: usize, quiet: bool) {
    if quiet {
        println!("{}", if o.verify.passed() { "PASS" } else { "FAIL" });
        return;
    }
    let ideal = o.total_count as f64 / ranks as f64;
    println!("rank kernel           : {}", o.kernel);
    println!("final particles       : {}", o.total_count);
    println!(
        "max particles/rank    : {} (ideal {:.0}, ratio {:.2}x)",
        o.max_count,
        ideal,
        o.max_count as f64 / ideal
    );
    println!("position failures     : {}", o.verify.position_failures);
    println!("max trajectory error  : {:.2e}", o.verify.max_error);
    println!(
        "id checksum           : {} (expected {})",
        o.verify.id_sum, o.verify.expected_id_sum
    );
    println!(
        "verification          : {}",
        if o.verify.passed() { "PASS" } else { "FAIL" }
    );
}
