//! `pic-e2e` — the repo benchmark. One process measures one workload:
//! set-up, a discarded warm-up, timed repetitions through the public entry
//! point with tracing off, then (or instead) traced repetitions with the
//! benchmark's own spans around each layer, and the layer probes last.
//! `bench/run.sh` builds and drives it; README.md explains every number.

mod adapter;
mod host;
mod json;
mod layers;
mod metrics;
mod probe;
mod span;
mod stats;

use adapter::{Case, Outcome, Shape, Traced, WORKLOADS};
use host::NoiseGate;
use json::Value;
use metrics::{MetricDef, Values};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed used while the benchmark was written; `65537` is the hold-out.
const DEFAULT_SEED: u64 = 2016;
/// Distributed workloads run on two thread-ranks. `--ranks 4` is allowed
/// off the record (the 2×2 decomposition falls back to the synchronous
/// exchange and is a known gap, not a named workload).
const DEFAULT_RANKS: usize = 2;
/// Builds of the input per process; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Timed repetitions a process makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Untraced/traced pairs a traced process makes at least.
const MIN_PAIRS: usize = 2;
/// The layer table is only valid when the spans cover the ranks' time and
/// recording them costs next to nothing (both in percent of a rank's wall
/// time).
const MIN_COVERAGE_PCT: f64 = 97.0;
const MAX_OVERHEAD_PCT: f64 = 5.0;

const USAGE: &str = "usage: pic-e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--ranks N]\n       pic-e2e --list | --manifest";

struct Args {
    workload: &'static adapter::Workload,
    seed: u64,
    seconds: f64,
    /// Measure the end-to-end metrics (tracing off).
    end_to_end: bool,
    /// Measure the per-layer metrics (traced run and probes).
    layers: bool,
    smoke: bool,
    ranks: usize,
}

enum Command {
    Run(Args),
    List,
    Manifest,
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut seconds) = (DEFAULT_SEED, metrics::RUN_SECONDS as f64);
    let (mut trace, mut smoke, mut ranks) = (None, false, DEFAULT_RANKS);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--list" => return Ok(Command::List),
            "--manifest" => return Ok(Command::Manifest),
            "--smoke" => smoke = true,
            "--workload" => {
                let name = value()?;
                workload = Some(
                    adapter::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = parse(flag, value()?)?,
            "--seconds" => {
                seconds = parse(flag, value()?)?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {seconds}"));
                }
            }
            "--trace" => {
                trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--ranks" => {
                ranks = parse(flag, value()?)?;
                if ranks != 2 && ranks != 4 {
                    return Err(format!("--ranks takes 2 or 4, got {ranks}"));
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        end_to_end: trace != Some(true),
        layers: trace != Some(false),
        smoke,
        ranks,
    }))
}

fn parse<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: cannot read {s:?} as a number"))
}

/// Operation accounting. One repetition is one operation; it fails on a
/// panic, a failed verification, a wrong final count, or an outcome that
/// differs from the first repetition's.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    first: Option<Outcome>,
    errors: Vec<String>,
}

impl Ops {
    fn check(&mut self, what: &str, expected_total: u64, outcome: std::thread::Result<Outcome>) {
        self.attempted += 1;
        let verdict = match outcome {
            Err(_) => Err("panicked".to_string()),
            Ok(o) if !o.verified => Err("verification failed".to_string()),
            Ok(o) if o.total_count != expected_total => Err(format!(
                "ended with {} particles, expected {expected_total}",
                o.total_count
            )),
            Ok(o) => match self.first.as_ref() {
                Some(first) if *first != o => {
                    Err(format!("outcome {o:?} differs from the first {first:?}"))
                }
                Some(_) => Ok(()),
                None => {
                    self.first = Some(o);
                    Ok(())
                }
            },
        };
        if let Err(e) = verdict {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

/// One repetition's clocks: wall time and process CPU time (user + system,
/// all threads) over the same window.
struct Clocks {
    wall_s: f64,
    cpu_s: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (std::thread::Result<R>, Clocks) {
    let (cpu0, t0) = (host::process_cpu_ns(), Instant::now());
    let out = catch_unwind(AssertUnwindSafe(f));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
    (out, Clocks { wall_s, cpu_s })
}

/// Repeat `rep`, which returns the seconds it measured, until `seconds` of
/// measuring are used up, at least `min` times. Only measured time counts:
/// a wait at the noise gate does not cost the window a repetition. Stops
/// early rather than start a repetition that would mostly run past the
/// window.
fn repeat_for(seconds: f64, min: usize, mut rep: impl FnMut() -> f64) {
    let (mut measured, mut done) = (0.0, 0usize);
    loop {
        measured += rep();
        done += 1;
        if done >= min && measured + 0.5 * measured / done as f64 >= seconds {
            return;
        }
    }
}

struct Run {
    args: Args,
    case: Case,
    gate: NoiseGate,
    ops: Ops,
    /// Failures of the benchmark's own validity checks (span coverage,
    /// tracing overhead, exact counts); any of them fails the run.
    errors: Vec<String>,
}

impl Run {
    fn untraced_rep(&mut self) -> Clocks {
        let staged = self.case.stage();
        self.gate.wait_until_quiet();
        let case = &self.case;
        let (out, clocks) = timed(|| case.run(staged));
        self.ops.check("entry point", case.expected_total(), out);
        clocks
    }

    fn traced_rep(&mut self) -> (Option<Traced>, Clocks) {
        let staged = self.case.stage();
        self.gate.wait_until_quiet();
        let case = &self.case;
        let (out, clocks) = timed(|| case.run_traced(staged));
        let (outcome, traced) = match out {
            Ok(t) => (Ok(t.outcome.clone()), Some(t)),
            Err(e) => (Err(e), None),
        };
        // Checked against the first entry-point repetition: the traced
        // driver must reach the entry point's outcome.
        self.ops
            .check("traced driver", case.expected_total(), outcome);
        (traced, clocks)
    }

    /// Timed repetitions with tracing off; returns the end-to-end values.
    fn measure_end_to_end(&mut self, setup_s: f64) -> Values {
        let (mut wall, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
        let (seconds, min) = self.window(MIN_REPS);
        repeat_for(seconds, min, || {
            // The peak of this repetition alone. A process-lifetime peak
            // grows with the number of repetitions and with which malloc
            // arenas the rank threads happen to land in.
            host::reset_peak_rss();
            let c = self.untraced_rep();
            rss.push(host::peak_rss_mb());
            wall.push(c.wall_s);
            cpu.push(c.cpu_s);
            c.wall_s
        });
        println!("end-to-end (tracing off, one repetition = one operation)");
        let run_s = print_summary("run_s", "s", &wall);
        let cpu_s = print_summary("cpu_s", "s", &cpu);
        let rss = print_summary("peak_rss_mb", "MB", &rss);
        println!(
            "  {:<22} {:>12.3} ns  (run_s / core.particle_steps, display only)",
            "ns_per_particle_step",
            run_s * 1e9 / self.case.particle_steps().max(1) as f64
        );
        let mut v = Values::default();
        v.set("run_s", run_s);
        v.set("cpu_s", cpu_s);
        v.set("peak_rss_mb", rss);
        v.set("setup_s", setup_s);
        v
    }

    /// Untraced/traced pairs, then the probes; returns the per-layer values.
    fn measure_layers(&mut self, init: &[(f64, f64)]) -> Values {
        let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
        let mut rows: Vec<Values> = Vec::new();
        let mut volume = probe::Volume::default();
        let (seconds, min) = self.window(MIN_PAIRS);
        let span_cost_ns = span::cost_per_span_ns();
        let mut traced_first = false;
        repeat_for(seconds, min, || {
            // Paired and alternating in order, so that a drift of the host
            // hits both sides alike.
            let (untraced, (traced, clocks)) = if traced_first {
                let traced = self.traced_rep();
                (self.untraced_rep().wall_s, traced)
            } else {
                (self.untraced_rep().wall_s, self.traced_rep())
            };
            traced_first = !traced_first;
            untraced_s.push(untraced);
            let measured = untraced + clocks.wall_s;
            // A traced run that panicked is a failed operation already.
            let Some(t) = traced else { return measured };
            traced_s.push(clocks.wall_s);
            if let Err(e) = layers::check_counts(&self.case, &t) {
                self.errors.push(e);
            }
            volume = layers::probe_volume(&self.case, &t);
            rows.push(layers::from_trace(&self.case, &t, span_cost_ns));
            measured
        });
        if rows.is_empty() {
            self.errors.push("no traced run completed".to_string());
            return Values::default();
        }
        // Every traced run measures the same metrics; the process reports
        // their medians, and the program's own counts must not move at all.
        let mut v = Values::default();
        for def in metrics::per_layer() {
            let samples: Vec<f64> = rows.iter().filter_map(|r| r.get(&def.name)).collect();
            if samples.is_empty() {
                continue;
            }
            if metrics::is_exact_count(&def) && samples.iter().any(|s| *s != samples[0]) {
                self.errors.push(format!(
                    "count {} differs between traced runs: {samples:?}",
                    def.name
                ));
            }
            v.set(&def.name, stats::median(&samples));
        }

        let med =
            |f: fn(&(f64, f64)) -> f64| stats::median(&init.iter().map(f).collect::<Vec<_>>());
        v.set("core.init.wall_ms", med(|(wall, _)| wall * 1e3));
        v.set("core.init.cpu_ms", med(|(_, cpu)| cpu * 1e3));
        v.set(
            "core.init.wait_ms",
            med(|(wall, cpu)| (wall - cpu).max(0.0) * 1e3),
        );
        v.set("core.init.calls", 1.0);

        println!("tracing overhead (untraced and traced runs, paired)");
        let base = print_summary("untraced run_s", "s", &untraced_s);
        let overhead = 100.0 * (print_summary("traced run_s", "s", &traced_s) - base) / base;
        v.set("trace.overhead_pct", overhead);
        // Traced against untraced is the overhead as a user would see it,
        // and on a shared host it is mostly weather: the untraced runs of
        // one process differ among themselves by more than 5 %. So it is
        // reported, and flagged when high, but the hard limit is on what
        // can be measured exactly: the time spent recording spans.
        if overhead > MAX_OVERHEAD_PCT {
            println!("  note: traced runs were {overhead:.1} % slower than untraced ones");
        }
        let self_cost = v.get("trace.self_cost_pct").unwrap_or(f64::INFINITY);
        if self_cost > MAX_OVERHEAD_PCT {
            self.errors.push(format!(
                "trace.self_cost_pct = {self_cost:.2} exceeds {MAX_OVERHEAD_PCT}"
            ));
        }
        let coverage = v.get("trace.span_coverage_pct").unwrap_or(0.0);
        if coverage < MIN_COVERAGE_PCT {
            self.errors.push(format!(
                "trace.span_coverage_pct = {coverage:.2} is below {MIN_COVERAGE_PCT}"
            ));
        }

        match catch_unwind(AssertUnwindSafe(|| probe::run(&self.case, volume))) {
            Ok(p) => {
                v.set("core.store.drain_ns_per_migrant", p.drain_ns_per_migrant);
                v.set("comm.wire.ns_per_exchange", p.wire_ns_per_exchange);
                v.set("comm.wire.bytes_per_exchange", p.wire_bytes_per_exchange);
                v.set("comm.allreduce.ns_per_call", p.allreduce_ns_per_call);
                v.set("ampi.vp_route.ns_per_resident", p.vp_route_ns_per_resident);
            }
            Err(_) => self.errors.push("a layer probe panicked".to_string()),
        }
        v.set("host.calib_ms", stats::median(&self.gate.calib_ms));
        v.set("host.parallel_capacity", stats::median(&self.gate.capacity));
        v.set("host.reps_retried", self.gate.reps_retried as f64);
        v.set("host.noisy", f64::from(u8::from(self.gate.noisy)));

        println!(
            "per-layer (traced run: medians of {} runs; probes at the measured volume)",
            rows.len()
        );
        for d in metrics::per_layer() {
            if let Some(x) = v.get(&d.name) {
                println!("  {:<36} {:>16.3} {}", d.name, x, d.unit);
            }
        }
        v
    }

    /// `(seconds, minimum repetitions)` of a measuring window: a smoke run
    /// makes one repetition and stops.
    fn window(&self, min: usize) -> (f64, usize) {
        if self.args.smoke {
            (0.0, 1)
        } else {
            (self.args.seconds, min)
        }
    }
}

/// Prints a timed metric — median, quartiles, extremes, sample count and
/// the samples themselves in run order — and returns the median.
fn print_summary(name: &str, unit: &str, samples: &[f64]) -> f64 {
    let s = stats::summarize(samples);
    println!(
        "  {name:<22} {:>12.6} {unit}   q1 {:.6}  q3 {:.6}  min {:.6}  max {:.6}  n={}",
        s.median, s.q1, s.q3, s.min, s.max, s.n
    );
    let listed: Vec<String> = samples.iter().map(|x| format!("{x:.4}")).collect();
    println!("  {:<22} [{}]", "", listed.join(" "));
    s.median
}

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn run(args: Args) -> ExitCode {
    let shape = if args.smoke {
        Shape::SMOKE
    } else {
        Shape::FULL
    };

    // Set-up, several times over: `setup_s` is the median build.
    let mut init: Vec<(f64, f64)> = Vec::new();
    let mut case = None;
    for _ in 0..SETUP_REPS {
        drop(case.take());
        let (cpu0, t0) = (host::thread_cpu_ns(), Instant::now());
        case = Some(Case::build(args.workload, shape, args.seed, args.ranks));
        let wall = t0.elapsed().as_secs_f64();
        init.push((
            wall,
            host::thread_cpu_ns().saturating_sub(cpu0) as f64 / 1e9,
        ));
    }
    let mut case = case.expect("SETUP_REPS is at least one");

    // Warm-up on the same input, discarded: fills caches, spawns the
    // sweep pool, and shows the kernel the run will use.
    case.set_steps(shape.warm_steps);
    let mut warm = Ops::default();
    let staged = case.stage();
    let (out, _) = timed(|| case.run(staged));
    warm.check("warm-up", case.expected_total(), out);
    let kernel = warm.first.as_ref().map_or("unknown", |o| o.kernel.as_str());
    case.set_steps(shape.steps);

    let threads = case.threads();
    let stamp = Value::obj([
        ("workload", Value::str(args.workload.name)),
        ("seed", Value::Int(args.seed)),
        ("commit", Value::str(&env_or("PIC_E2E_COMMIT", "unknown"))),
        ("dirty", Value::str(&env_or("PIC_E2E_DIRTY", "unknown"))),
        ("rustc", Value::str(&env_or("PIC_E2E_RUSTC", "unknown"))),
        ("nproc", Value::Int(host::nproc() as u64)),
        ("threads", Value::Int(threads as u64)),
        ("oversubscribed", Value::Bool(host::nproc() < threads)),
        ("kernel", Value::str(kernel)),
        ("ncells", Value::Int(shape.ncells as u64)),
        ("n", Value::Int(shape.n)),
        ("steps", Value::Int(shape.steps as u64)),
        ("smoke", Value::Bool(args.smoke)),
    ]);
    println!("stamp {}", stamp.render());
    println!("set-up ({SETUP_REPS} builds of the input)");
    let setup_walls: Vec<f64> = init.iter().map(|(wall, _)| *wall).collect();
    let setup_s = print_summary("setup_s", "s", &setup_walls);

    // The gate may add at most half the measuring window, and at most 20 s.
    let budget = Duration::from_secs_f64((args.seconds * 0.5).min(20.0));
    let mut run = Run {
        gate: NoiseGate::new(threads >= 2, budget),
        ops: Ops {
            errors: warm.errors,
            failed: warm.failed,
            ..Ops::default()
        },
        errors: Vec::new(),
        case,
        args,
    };

    let mut defs: Vec<MetricDef> = Vec::new();
    let mut values = Values::default();
    if run.ops.failed == 0 {
        if run.args.end_to_end {
            values.extend(run.measure_end_to_end(setup_s));
            defs.extend(metrics::end_to_end());
        }
        if run.args.layers {
            values.extend(run.measure_layers(&init));
            defs.extend(metrics::per_layer());
        }
    }

    println!(
        "ops_attempted {}  ops_failed {}  reps_retried {}  noisy {}",
        run.ops.attempted, run.ops.failed, run.gate.reps_retried, run.gate.noisy
    );
    let metrics_obj = metrics::metrics_json(&defs, &values).unwrap_or_else(|e| {
        run.errors.push(e);
        Value::Obj(Vec::new())
    });
    for e in run.ops.errors.iter().chain(&run.errors) {
        eprintln!("error: {e}");
    }
    let correct = run.ops.failed == 0 && run.errors.is_empty();
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Int(run.ops.attempted.max(1))),
        ("failed", Value::Int(run.ops.failed)),
        ("metrics", metrics_obj),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Command::List) => {
            for w in &WORKLOADS {
                println!("{}", w.name);
            }
            ExitCode::SUCCESS
        }
        Ok(Command::Manifest) => {
            print!("{}", metrics::manifest().render_pretty());
            ExitCode::SUCCESS
        }
        Ok(Command::Run(args)) => run(args),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
