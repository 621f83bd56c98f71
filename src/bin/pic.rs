//! `pic` — command-line driver for the PIC Parallel Research Kernel.
//!
//! Runs a configurable simulation under any balancing strategy (or the
//! serial engine) and prints the verification verdict plus load-balance
//! statistics, in the spirit of the original PRK driver binaries.
//!
//! ```text
//! pic --grid 64 --particles 20000 --steps 200 --dist geometric:0.95 \
//!     --balancer diffusion --ranks 8 --lb-interval 1 --border 3
//! ```
//!
//! Run `pic --help` for all options.

use pic_prk::ampi::Balancer;
use pic_prk::comm::world::run_threads;
use pic_prk::core::init::{validate_event, SkewAxis};
use pic_prk::par::decomp::factor_2d;
use pic_prk::par::diffusion::{DiffusionMode, DiffusionParams};
use pic_prk::par::runner::{ParConfig, ParOutcome};
use pic_prk::par::{run_config_traced, BalancerSpec};
use pic_prk::prelude::*;
use pic_prk::trace::{trace_simulation, Phase, Tracer};
use std::io::Write;
use std::process::exit;
use std::sync::Mutex;

/// Help text. Defaults that mirror library defaults are injected from the
/// source constants so the text can never drift out of date again (it
/// previously advertised `--lb-interval` 10 vs the library's 20 and
/// `--border` 2 vs 1).
fn help() -> String {
    let diff = DiffusionParams::default();
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

Strategy:
  --balancer NAME     what runs; without it, the single-process engine
                        static       mpi-2d: static 2D blocks, no balancing
                        diffusion    mpi-2d-LB: cut diffusion
                        adaptive     cut ladder, switched online
                                     (static -> diffusion -> wide diffusion)
                        vp-none      VP runtime, assignment never changes
                        vp-refine    ampi: VP runtime, RefineLB
                        vp-greedy    VP runtime, GreedyLB
  --ranks P           thread-ranks (any --balancer; default 4)

Single-process engine (no --balancer):
  --threads T         cap the sweep worker pool at T threads (default:
                      all cores; PIC_THREADS overrides the pool size)
                      the binned sweeps auto-select the widest SIMD backend
                      the host supports; set PIC_NO_SIMD=1 to force the
                      scalar kernel (same bits, slower)

Cut family (--balancer diffusion | adaptive):
  --lb-interval F     steps between LB invocations (default {diff_interval})
  --tau T             count-difference threshold (default {diff_tau})
  --border W          border width in cells (default {diff_border})
  --mode M            x | y | 2phase (default x)

VP family (--balancer vp-none | vp-refine | vp-greedy):
  --d D               over-decomposition degree (default 4)
  --lb-interval F     steps between LB invocations (default {ampi_interval})

An option the selected strategy does not read is an error.

Telemetry:
  --trace FILE        write ndjson load-balance telemetry to FILE
                      (per-step phase times, counters, per-rank loads,
                      cut decisions, end-of-run summary)
  --trace-every N     sample a step record every N steps (default 1;
                      cut decisions and the summary are never sampled
                      away); needs --trace, at most --steps

Output:
  --quiet             only print PASS/FAIL
  --help              this text
",
        diff_interval = diff.interval,
        diff_tau = diff.tau,
        diff_border = diff.border_w,
        ampi_interval = AMPI_LB_INTERVAL_DEFAULT,
    )
}

/// CLI default for the AMPI `--lb-interval`, sized for CLI-scale step
/// counts (the paper's full-scale runs balance every `F = 160` steps).
const AMPI_LB_INTERVAL_DEFAULT: u32 = 10;

/// Options that take a value, and bare flags. Anything else on the
/// command line is an error, so a removed or misspelt option can never
/// turn into a silent no-op.
const VALUE_OPTS: &[&str] = &[
    "--grid",
    "--particles",
    "--steps",
    "--dist",
    "--k",
    "--m",
    "--dir",
    "--skew-axis",
    "--inject",
    "--remove",
    "--ranks",
    "--balancer",
    "--threads",
    "--lb-interval",
    "--tau",
    "--border",
    "--mode",
    "--d",
    "--trace",
    "--trace-every",
];
const FLAGS: &[&str] = &["--quiet", "--help", "-h"];

/// The `--balancer` values: the names the balancers report through
/// `LoadBalancer::name()`.
const BALANCERS: &[&str] = &[
    "static",
    "diffusion",
    "adaptive",
    "vp-none",
    "vp-refine",
    "vp-greedy",
];

/// What runs without `--balancer`, as [`OPTION_SCOPE`] and its error name it.
const SERIAL: &str = "the serial engine";

/// Options only some strategies read, with the strategies that do. Given
/// to any other strategy they are an error, not a silent no-op.
const OPTION_SCOPE: &[(&str, &[&str])] = &[
    ("--threads", &[SERIAL]),
    ("--ranks", BALANCERS),
    (
        "--lb-interval",
        &["diffusion", "adaptive", "vp-none", "vp-refine", "vp-greedy"],
    ),
    ("--tau", &["diffusion", "adaptive"]),
    ("--border", &["diffusion", "adaptive"]),
    ("--mode", &["diffusion", "adaptive"]),
    ("--d", &["vp-none", "vp-refine", "vp-greedy"]),
];

struct Args(Vec<String>);

impl Args {
    /// The process arguments, rejecting unknown options, value options
    /// with no value after them (a following `--option` is not a value;
    /// `-1` is) and a value option given twice ([`Args::value`] reads one
    /// occurrence, so the other would be dropped silently).
    fn from_env() -> Args {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < raw.len() {
            let a = raw[i].as_str();
            if FLAGS.contains(&a) {
                i += 1;
            } else if VALUE_OPTS.contains(&a) {
                // Values never start with `--`, so an earlier equal
                // argument is the same option.
                if raw[..i].contains(&raw[i]) {
                    bail(&format!("{a} given more than once"))
                }
                match raw.get(i + 1) {
                    Some(v) if !v.starts_with("--") => i += 2,
                    _ => bail(&format!("{a} needs a value")),
                }
            } else {
                bail(&format!("unknown option: {a}"))
            }
        }
        Args(raw)
    }

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

    fn parse_opt<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| bail(&format!("invalid value for {name}: {v}")))
        })
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.parse_opt(name).unwrap_or(default)
    }

    /// A count that must be at least 1 (`None` when the option is absent).
    fn positive<T: std::str::FromStr + Default + PartialEq>(&self, name: &str) -> Option<T> {
        let v: T = self.parse_opt(name)?;
        if v == T::default() {
            bail(&format!("{name} must be at least 1 (got 0)"))
        }
        Some(v)
    }
}

fn parse_dist(spec: &str) -> Distribution {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    match kind {
        "uniform" | "sinusoidal" if !rest.is_empty() => bail(&format!("{kind} takes no parameter")),
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
                bail("linear needs ALPHA,BETA");
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
                bail("patch needs X0,X1,Y0,Y1");
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

/// Parse `S,X0,X1,Y0,Y1,N` for `opt` (`--inject` / `--remove`), each field
/// in its own type, and refuse an event the grid cannot hold or a run of
/// `steps` steps never reaches.
fn parse_event(opt: &str, spec: &str, grid: &Grid, steps: u32) -> Event {
    fn field<T: std::str::FromStr>(opt: &str, spec: &str, s: &str) -> T {
        s.parse()
            .unwrap_or_else(|_| bail(&format!("{opt} {spec}: bad field {s}")))
    }
    let f: Vec<&str> = spec.split(',').collect();
    if f.len() != 6 {
        bail(&format!("{opt} needs S,X0,X1,Y0,Y1,N"));
    }
    let region = Region {
        x0: field(opt, spec, f[1]),
        x1: field(opt, spec, f[2]),
        y0: field(opt, spec, f[3]),
        y1: field(opt, spec, f[4]),
    };
    let (at_step, count): (u32, u64) = (field(opt, spec, f[0]), field(opt, spec, f[5]));
    if count == 0 {
        bail(&format!("{opt} {spec}: count must be at least 1 (got 0)"));
    }
    let event = if opt == "--inject" {
        Event::inject(at_step, region, count, 0, 0, 1)
    } else {
        Event::remove(at_step, region, count)
    };
    if let Err(e) = validate_event(grid, &event) {
        let n = grid.ncells();
        bail(&format!(
            "{opt} {spec}: {e}; a region needs X0 < X1 <= {n} and Y0 < Y1 <= {n}"
        ));
    }
    // Events fire at the start of 0-based step S; the last one is steps - 1.
    if event.at_step >= steps {
        bail(&format!(
            "{opt} step {} is not reached in a run of {steps} steps",
            event.at_step
        ));
    }
    event
}

fn bail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(2);
}

fn main() {
    let args = Args::from_env();
    if args.flag("--help") || args.flag("-h") {
        print!("{}", help());
        return;
    }
    let quiet = args.flag("--quiet");

    // The strategy, and the options it does not read.
    let balancer = args.value("--balancer");
    if let Some(b) = balancer.filter(|b| !BALANCERS.contains(b)) {
        bail(&format!(
            "bad balancer: {b} (one of: {})",
            BALANCERS.join(", ")
        ));
    }
    let strategy = balancer.unwrap_or(SERIAL);
    for (opt, readers) in OPTION_SCOPE {
        if args.value(opt).is_some() && !readers.contains(&strategy) {
            let given = match balancer {
                Some(b) => format!("--balancer {b}"),
                None => format!("{SERIAL} (no --balancer)"),
            };
            bail(&format!(
                "{opt} is not read by {given}; it applies to: {}",
                readers.join(", ")
            ));
        }
    }
    if args.value("--trace-every").is_some() && args.value("--trace").is_none() {
        bail("--trace-every needs --trace");
    }

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
    for opt in ["--inject", "--remove"] {
        if let Some(spec) = args.value(opt) {
            setup = setup.with_event(parse_event(opt, spec, &grid, steps));
        }
    }

    // Counts that must be positive, and decompositions that must fit the
    // grid — rejected here, before any rank thread exists to panic.
    let ranks: usize = args.positive("--ranks").unwrap_or(4);
    let lb_interval: Option<u32> = args.positive("--lb-interval");
    let border_w: usize = args
        .positive("--border")
        .unwrap_or(DiffusionParams::default().border_w);
    let d: usize = args.positive("--d").unwrap_or(4);
    let threads: Option<usize> = args.positive("--threads");
    let trace_every: u32 = args.positive("--trace-every").unwrap_or(1);
    // Step records are written at 1-based steps N, 2N, …: a run with no
    // step, or an interval past the last one, leaves a stream
    // `trace_check` refuses.
    if args.value("--trace").is_some() && steps == 0 {
        bail("--trace needs at least one step");
    }
    if args.value("--trace").is_some() && trace_every > steps {
        bail(&format!(
            "--trace-every {trace_every} samples no step of a {steps}-step run"
        ));
    }
    let (px, _) = factor_2d(ranks);
    match balancer {
        None => {}
        Some(b) if b.starts_with("vp-") => {
            let vp_cols = px * factor_2d(d).0;
            if vp_cols > ncells {
                bail(&format!(
                    "--ranks {ranks} with --d {d} needs {vp_cols} VP columns, \
                     more than the {ncells} cells of --grid {ncells}"
                ));
            }
        }
        Some(_) if px > ncells => bail(&format!(
            "--ranks {ranks} needs {px} processor columns, \
             more than the {ncells} cells of --grid {ncells}"
        )),
        Some(_) => {}
    }

    // Telemetry: the file is opened up front (so a bad path fails before
    // the run), then handed to exactly one tracer — rank 0's in a
    // distributed run.
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
             dist {dist:?}, k={k} m={m} dir={dir}, balancer {}",
            balancer.unwrap_or("none (serial engine)")
        );
    }

    let Some(balancer) = balancer else {
        if let Some(t) = threads {
            pic_prk::core::pool::global().set_active_threads(t);
        }
        let mut sim = Simulation::new(setup);
        if !quiet {
            println!("serial kernel         : {}", sim.kernel_desc());
        }
        let mut tracer = rank0_tracer(0);
        trace_simulation(&mut sim, steps, &mut tracer);
        tracer.phase_start(Phase::Verify);
        let report = sim.verify();
        tracer.phase_end(Phase::Verify);
        tracer.set_final_particles(sim.particle_count() as u64);
        let trace_error = tracer.finish().and_then(|r| r.write_error);
        summarize_serial(&report, sim.particle_count(), quiet);
        finish_run(report.passed(), args.value("--trace"), trace_error);
    };

    // Resolve the name once into the library's spec type, then one run.
    let vp = |strategy| BalancerSpec::Vp {
        d,
        interval: lb_interval.unwrap_or(AMPI_LB_INTERVAL_DEFAULT),
        strategy,
    };
    let spec = match balancer {
        "static" => BalancerSpec::Static,
        "diffusion" | "adaptive" => {
            let params = DiffusionParams {
                interval: lb_interval.unwrap_or(DiffusionParams::default().interval),
                tau: args.parse("--tau", DiffusionParams::default().tau),
                border_w,
            };
            let mode = match args.value("--mode").unwrap_or("x") {
                "x" => DiffusionMode::XOnly,
                "y" => DiffusionMode::YOnly,
                "2phase" => DiffusionMode::TwoPhase,
                other => bail(&format!("bad mode: {other}")),
            };
            if balancer == "adaptive" {
                BalancerSpec::Adaptive { params, mode }
            } else {
                BalancerSpec::Diffusion { params, mode }
            }
        }
        "vp-none" => vp(Balancer::None),
        "vp-refine" => vp(Balancer::paper_default()),
        "vp-greedy" => vp(Balancer::Greedy),
        _ => unreachable!("--balancer was checked against BALANCERS"),
    };
    let cfg = ParConfig::new(setup, steps).with_balancer(spec);
    let (o, trace_error) = run_threads(ranks, |comm| {
        let mut tracer = rank0_tracer(comm.rank());
        let out = run_config_traced(&comm, &cfg, &mut tracer);
        (out, tracer.finish().and_then(|r| r.write_error))
    })
    .swap_remove(0);
    summarize_parallel(&o, ranks, quiet);
    finish_run(o.verify.passed(), args.value("--trace"), trace_error);
}

/// End the process after the verdict is printed: exit 1 when verification
/// failed or the trace could not be written (the run was not stopped for
/// it — ranks may have been inside a collective), 0 otherwise.
fn finish_run(passed: bool, trace_path: Option<&str>, trace_error: Option<String>) -> ! {
    if let (Some(path), Some(e)) = (trace_path, &trace_error) {
        eprintln!("error: trace file {path}: {e}");
    }
    exit(if passed && trace_error.is_none() {
        0
    } else {
        1
    })
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
