//! Emit `BENCH_par.json`: the distributed rank loop benchmarked across a
//! thread-rank grid × implementation (`mpi-2d`, `mpi-2d-LB`, `ampi`) ×
//! rank kernel (AoS reference, binned exact, binned fast), with
//! forced-scalar contrast rows isolating the vector kernel's
//! contribution. The headline number is the per-rank *advance-phase*
//! ns/particle-step improvement of the binned fast tier over the AoS
//! loop at the largest population tier.
//!
//! ```text
//! bench_par [--out PATH] [--quick] [--ranks LIST] [--results DIR]
//! ```
//!
//! `--quick` drops the 1e6-particle tier (CI smoke). `--ranks 1,2,4`
//! selects the rank counts (default `1,2,4`). `--results DIR`
//! additionally writes the thread-count analogues of the paper's
//! Fig 6-left (strong scaling) and Fig 7 (weak scaling) as functional
//! runs on thread-ranks — `par_fig6_left.csv`, `par_fig7_weak.csv`, and
//! `par_scaling.md` with a per-rank-count trace summary digest.
//!
//! Ranks are OS threads, so rank counts above the host's core count
//! oversubscribe deliberately; `host_cores` leads the artifact metadata
//! and every row carries an `oversubscribed` flag so readers don't
//! mistake contention for scaling. The advance-phase metric sums each
//! rank's own phase clock, which stays meaningful under
//! oversubscription (it counts work, not wall overlap).

use pic_ampi::balancer::Balancer;
use pic_ampi::model::AmpiParams;
use pic_ampi::runtime::run_ampi_traced;
use pic_bench::report::trace_summary_markdown;
use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_core::simd::SimdBackend;
use pic_par::diffusion::{DiffusionMode, DiffusionParams};
use pic_par::runner::{ExchangeMode, ParConfig, ParOutcome, RankKernel};
use pic_par::{run_config_traced, BalancerSpec};
use pic_trace::{Counter, Phase, TraceSummary, Tracer};
use std::fmt::Write as _;
use std::time::Instant;

const GRID: usize = 512;

#[derive(Clone, Copy, PartialEq)]
enum Impl {
    Baseline,
    Diffusion,
    Ampi,
}

impl Impl {
    const ALL: [Impl; 3] = [Impl::Baseline, Impl::Diffusion, Impl::Ampi];

    /// Paper naming, matching the other artifacts.
    fn name(self) -> &'static str {
        match self {
            Impl::Baseline => "mpi-2d",
            Impl::Diffusion => "mpi-2d-LB",
            Impl::Ampi => "ampi",
        }
    }
}

#[derive(Clone, Copy)]
enum Kernel {
    Aos,
    Binned,
    BinnedFast,
    /// Binned exact forced to the scalar kernel (contrast row).
    BinnedScalar,
    /// Binned fast forced to the scalar kernel — which *is* the exact
    /// scalar kernel, the fast tier's `PIC_NO_SIMD` baseline.
    BinnedFastScalar,
    /// Binned exact over the dense synchronous exchange (the reference) —
    /// the before-row for the overlapped-sparse exchange contrast.
    BinnedDense,
}

impl Kernel {
    fn rank_kernel(self) -> RankKernel {
        use pic_core::engine::SweepMode;
        match self {
            Kernel::Aos => RankKernel::aos(),
            Kernel::Binned => RankKernel::default(),
            Kernel::BinnedFast => RankKernel::from_sweep(SweepMode::SoaBinnedFast),
            Kernel::BinnedScalar => RankKernel::default().with_backend(SimdBackend::Scalar),
            Kernel::BinnedFastScalar => {
                RankKernel::from_sweep(SweepMode::SoaBinnedFast).with_backend(SimdBackend::Scalar)
            }
            Kernel::BinnedDense => RankKernel::default().with_exchange(ExchangeMode::DenseSync),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Aos => "aos",
            Kernel::Binned => "binned",
            Kernel::BinnedFast => "binned-fast",
            Kernel::BinnedScalar => "binned/scalar",
            Kernel::BinnedFastScalar => "binned-fast/scalar",
            Kernel::BinnedDense => "binned/dense-sync",
        }
    }

    /// The exchange strategy the kernel runs (all kernels except the
    /// dense contrast row use the overlapped-sparse default).
    fn exchange_name(self) -> &'static str {
        match self {
            Kernel::BinnedDense => "dense-sync",
            _ => "sparse-overlap",
        }
    }
}

struct Row {
    imp: &'static str,
    kernel: &'static str,
    /// The `<backend>/<tier>` descriptor the runtime actually selected.
    kernel_desc: String,
    /// Exchange strategy: `sparse-overlap` (default) or `dense-sync`.
    exchange: &'static str,
    n: u64,
    ranks: usize,
    steps: u32,
    oversubscribed: bool,
    wall_s: f64,
    /// Σ over ranks of the rank's advance-phase clock, per particle-step.
    advance_ns: f64,
    /// Same for the exchange phase (routing + drain + rebin check).
    exchange_ns: f64,
    /// Σ over ranks of the exchange-phase *CPU* clock, per particle-step:
    /// work only — a rank blocked in a receive accrues exchange wall
    /// time but no exchange work (`pic_trace::thread_cpu_ns`).
    exchange_work_ns: f64,
    /// Particles rehomed across ranks per step (global).
    migrants_per_step: f64,
    /// Global wire messages (payload/count/escape/fallback) per step.
    msgs_per_step: f64,
    /// Messages the sparse protocol elided per step (0 under dense).
    msgs_skipped_per_step: f64,
}

struct RunResult {
    outcomes: Vec<(ParOutcome, TraceSummary)>,
    wall_s: f64,
}

fn run_one(imp: Impl, kernel: RankKernel, n: u64, ranks: usize, steps: u32) -> RunResult {
    let setup = InitConfig::new(Grid::new(GRID).unwrap(), n, Distribution::PAPER_SKEW)
        .with_m(1)
        .build()
        .unwrap();
    let balancer = match imp {
        Impl::Diffusion => BalancerSpec::Diffusion {
            params: DiffusionParams {
                interval: 5,
                tau: 0,
                border_w: 2,
            },
            mode: DiffusionMode::XOnly,
        },
        Impl::Baseline | Impl::Ampi => BalancerSpec::Static,
    };
    let cfg = ParConfig::new(setup, steps)
        .with_kernel(kernel)
        .with_balancer(balancer);
    let t = Instant::now();
    let outcomes = run_threads(ranks, |comm| {
        let mut tracer = Tracer::in_memory(steps.max(1));
        let o = match imp {
            Impl::Baseline | Impl::Diffusion => run_config_traced(&comm, &cfg, &mut tracer),
            Impl::Ampi => run_ampi_traced(
                &comm,
                &cfg,
                &AmpiParams {
                    d: 4,
                    interval: 20,
                    balancer: Balancer::paper_default(),
                },
                &mut tracer,
            ),
        };
        assert!(
            o.verify.passed(),
            "{} n={n} ranks={ranks}: verification failed: {:?}",
            imp.name(),
            o.verify
        );
        let summary = tracer.finish().expect("enabled tracer").summary;
        (o, summary)
    });
    RunResult {
        outcomes,
        wall_s: t.elapsed().as_secs_f64(),
    }
}

/// Σ over ranks of `phase` ns, per particle-step. Each rank clocks its
/// own phases, so the sum counts *work* and is oversubscription-safe.
fn phase_ns_per_pstep(r: &RunResult, phase: Phase, n: u64, steps: u32) -> f64 {
    let total: u64 = r
        .outcomes
        .iter()
        .map(|(_, s)| s.phase_ns[phase.idx()])
        .sum();
    total as f64 / (n as f64 * steps as f64)
}

/// Σ over ranks of `phase` *CPU* ns, per particle-step: the work-only
/// twin of [`phase_ns_per_pstep`]. Blocked time (the receive wait that
/// dominates the exchange wall clock whenever load is imbalanced) does
/// not advance a thread's CPU clock, so this is the late-sender-free
/// cost of the phase.
fn phase_work_ns_per_pstep(r: &RunResult, phase: Phase, n: u64, steps: u32) -> f64 {
    let total: u64 = r
        .outcomes
        .iter()
        .map(|(_, s)| s.phase_cpu_ns[phase.idx()])
        .sum();
    total as f64 / (n as f64 * steps as f64)
}

fn measure(imp: Impl, kernel: Kernel, n: u64, ranks: usize, host_cores: usize) -> Row {
    let steps = steps_for(n);
    let r = run_one(imp, kernel.rank_kernel(), n, ranks, steps);
    // The message counters are globally reduced at every telemetry
    // snapshot, so every rank's summary already holds the world totals —
    // read rank 0's rather than summing across ranks.
    let counters = &r.outcomes[0].1.counters;
    let row = Row {
        imp: imp.name(),
        kernel: kernel.name(),
        kernel_desc: r.outcomes[0].0.kernel.clone(),
        exchange: kernel.exchange_name(),
        n,
        ranks,
        steps,
        oversubscribed: ranks > host_cores,
        wall_s: r.wall_s,
        advance_ns: phase_ns_per_pstep(&r, Phase::Advance, n, steps),
        exchange_ns: phase_ns_per_pstep(&r, Phase::Exchange, n, steps),
        exchange_work_ns: phase_work_ns_per_pstep(&r, Phase::Exchange, n, steps),
        migrants_per_step: counters[Counter::Rehomed.idx()] as f64 / steps as f64,
        msgs_per_step: counters[Counter::MsgsSent.idx()] as f64 / steps as f64,
        msgs_skipped_per_step: counters[Counter::MsgsSkipped.idx()] as f64 / steps as f64,
    };
    eprintln!(
        "{:>9} {:<18} n={:<9} ranks={} advance={:.2} exchange={:.2} \
         (work {:.2}) ns/pstep migrants/step={:.0} msgs/step={:.1} \
         (skipped {:.1}) wall={:.2}s",
        row.imp,
        row.kernel_desc,
        row.n,
        row.ranks,
        row.advance_ns,
        row.exchange_ns,
        row.exchange_work_ns,
        row.migrants_per_step,
        row.msgs_per_step,
        row.msgs_skipped_per_step,
        row.wall_s
    );
    row
}

/// Steps per timing run, scaled so every tier takes comparable wall time.
fn steps_for(n: u64) -> u32 {
    match n {
        0..=20_000 => 100,
        20_001..=200_000 => 30,
        _ => 10,
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
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_par.json".to_string());
    let rank_counts: Vec<usize> = args
        .iter()
        .position(|a| a == "--ranks")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or("1,2,4")
        .split(',')
        .map(|t| t.trim().parse().expect("bad --ranks entry"))
        .collect();
    assert!(!rank_counts.is_empty(), "--ranks needs at least one count");
    let results_dir = args
        .iter()
        .position(|a| a == "--results")
        .and_then(|i| args.get(i + 1).cloned());

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let max_ranks = *rank_counts.iter().max().unwrap();
    if max_ranks > host_cores {
        eprintln!(
            "NOTE: rank counts up to {max_ranks} on a {host_cores}-core host — \
             thread-ranks will oversubscribe; wall times measure contention, \
             per-rank phase clocks still measure work."
        );
    }
    let simd_backend = SimdBackend::detect();
    let git_commit = command_line("git", &["rev-parse", "--short", "HEAD"]);
    let rustc_version = command_line("rustc", &["--version"]);

    let sizes: &[u64] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    let mut rows = Vec::new();
    for &n in sizes {
        for imp in Impl::ALL {
            for kernel in [Kernel::Aos, Kernel::Binned, Kernel::BinnedFast] {
                for &ranks in &rank_counts {
                    rows.push(measure(imp, kernel, n, ranks, host_cores));
                }
            }
            // Forced-scalar contrast rows at the largest rank count: same
            // configuration as the headline rows with only the backend
            // changed, so the vector kernel's contribution is isolated.
            if simd_backend.is_vector() {
                for kernel in [Kernel::BinnedScalar, Kernel::BinnedFastScalar] {
                    rows.push(measure(imp, kernel, n, max_ranks, host_cores));
                }
            }
            // Dense-exchange contrast row at the largest rank count: the
            // synchronous P²-message reference against the overlapped-sparse
            // default (same binned kernel, only the exchange changes).
            if max_ranks > 1 {
                rows.push(measure(imp, Kernel::BinnedDense, n, max_ranks, host_cores));
            }
        }
    }

    // Headline: per-rank advance-phase improvement of the binned fast
    // tier over the AoS reference loop at the largest tier and rank
    // count, per implementation.
    let n_head = *sizes.last().unwrap();
    let advance_of = |imp: &str, kernel: &str| -> Option<f64> {
        rows.iter()
            .find(|r| r.imp == imp && r.kernel == kernel && r.n == n_head && r.ranks == max_ranks)
            .map(|r| r.advance_ns)
    };
    let mut headline = Vec::new();
    for imp in Impl::ALL {
        if let (Some(aos), Some(fast)) = (
            advance_of(imp.name(), "aos"),
            advance_of(imp.name(), "binned-fast"),
        ) {
            let speedup = aos / fast;
            eprintln!(
                "headline {:>9} n={n_head}: advance {aos:.2} -> {fast:.2} ns/pstep ({speedup:.2}x)",
                imp.name()
            );
            headline.push((imp.name(), aos, fast, speedup));
        }
    }

    // Exchange headline: dense synchronous oracle vs overlapped sparse on
    // the same binned kernel at the largest tier and rank count —
    // exchange-phase ns/pstep before/after plus the wire-message
    // reduction (the dense path sends ranks² messages per step).
    let row_of = |imp: &str, kernel: &str| -> Option<&Row> {
        rows.iter()
            .find(|r| r.imp == imp && r.kernel == kernel && r.n == n_head && r.ranks == max_ranks)
    };
    // Each headline entry is a preformatted JSON object.
    let mut exchange_headline: Vec<String> = Vec::new();
    for imp in Impl::ALL {
        if let (Some(dense), Some(sparse)) = (
            row_of(imp.name(), "binned/dense-sync"),
            row_of(imp.name(), "binned"),
        ) {
            eprintln!(
                "exchange {:>9} n={n_head}: dense {:.2} -> sparse {:.2} ns/pstep, \
                 msgs/step {:.1} -> {:.1}",
                imp.name(),
                dense.exchange_ns,
                sparse.exchange_ns,
                dense.msgs_per_step,
                sparse.msgs_per_step
            );
            exchange_headline.push(format!(
                "{{\"impl\": \"{}\", \"contrast\": \"dense-vs-sparse\", \
                 \"n\": {n_head}, \"ranks\": {max_ranks}, \
                 \"dense_exchange_ns_per_particle_step\": {:.3}, \
                 \"sparse_exchange_ns_per_particle_step\": {:.3}, \
                 \"dense_msgs_per_step\": {:.1}, \
                 \"sparse_msgs_per_step\": {:.1}}}",
                imp.name(),
                dense.exchange_ns,
                sparse.exchange_ns,
                dense.msgs_per_step,
                sparse.msgs_per_step
            ));
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"par\",");
    // Host capacity leads the metadata: rank counts beyond it mean the
    // wall-clock columns measure oversubscription, not scaling.
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"grid\": {GRID},");
    let _ = writeln!(json, "  \"simd_backend\": \"{}\",", simd_backend.name());
    let _ = writeln!(json, "  \"simd_lanes\": {},", simd_backend.lanes());
    let _ = writeln!(json, "  \"git_commit\": \"{git_commit}\",");
    let _ = writeln!(json, "  \"rustc_version\": \"{rustc_version}\",");
    let _ = writeln!(json, "  \"headline\": [");
    for (i, (imp, aos, fast, speedup)) in headline.iter().enumerate() {
        let comma = if i + 1 == headline.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"impl\": \"{imp}\", \"n\": {n_head}, \"ranks\": {max_ranks}, \
             \"aos_advance_ns_per_particle_step\": {aos:.3}, \
             \"binned_fast_advance_ns_per_particle_step\": {fast:.3}, \
             \"advance_speedup\": {speedup:.3}}}{comma}"
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"exchange_headline\": [");
    for (i, entry) in exchange_headline.iter().enumerate() {
        let comma = if i + 1 == exchange_headline.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(json, "    {entry}{comma}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"impl\": \"{}\", \"kernel\": \"{}\", \"kernel_desc\": \"{}\", \
             \"exchange\": \"{}\", \
             \"n\": {}, \"ranks\": {}, \"steps\": {}, \"oversubscribed\": {}, \
             \"wall_s\": {:.4}, \"advance_ns_per_particle_step\": {:.3}, \
             \"exchange_ns_per_particle_step\": {:.3}, \
             \"exchange_work_ns_per_particle_step\": {:.3}, \
             \"migrants_per_step\": {:.0}, \
             \"msgs_per_step\": {:.1}, \"msgs_skipped_per_step\": {:.1}}}{comma}",
            r.imp,
            r.kernel,
            r.kernel_desc,
            r.exchange,
            r.n,
            r.ranks,
            r.steps,
            r.oversubscribed,
            r.wall_s,
            r.advance_ns,
            r.exchange_ns,
            r.exchange_work_ns,
            r.migrants_per_step,
            r.msgs_per_step,
            r.msgs_skipped_per_step
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).expect("write benchmark artifact");
    eprintln!("wrote {out_path}");

    if let Some(dir) = results_dir {
        write_scaling_artifacts(&dir, &rank_counts, host_cores, quick);
    }
}

// ---------------------------------------------------------------------------
// Thread-count analogues of Fig 6-left (strong) and Fig 7 (weak)
// ---------------------------------------------------------------------------

/// Functional strong- and weak-scaling runs across the rank grid with the
/// default (binned) kernel, each rank count traced; writes
/// `par_fig6_left.csv`, `par_fig7_weak.csv`, and `par_scaling.md`.
fn write_scaling_artifacts(dir: &str, rank_counts: &[usize], host_cores: usize, quick: bool) {
    let (strong_n, weak_base, steps) = if quick {
        (50_000u64, 25_000u64, 20u32)
    } else {
        (200_000, 100_000, 30)
    };

    let mut md = String::from("# Thread-rank scaling of the distributed implementations\n\n");
    let _ = writeln!(
        md,
        "Functional analogues of the paper's Fig 6-left (strong) and Fig 7 \
         (weak), on thread-ranks with the default binned kernel \
         (`bench_par --results`). Host: **{host_cores} core(s)** — rank \
         counts above that oversubscribe, so wall times measure contention \
         and correctness of the overlap, not parallel speedup; the paper's \
         modeled figures (`fig6_left.csv`, `fig7_weak.csv`) carry the \
         scaling story. Strong: n={strong_n}, grid {GRID}, {steps} steps. \
         Weak: n={weak_base}/rank.\n"
    );

    let mut strong_csv = String::from("ranks,mpi-2d_s,ampi_s,mpi-2d-LB_s\n");
    let mut weak_csv = String::from("ranks,n,mpi-2d_s,ampi_s,mpi-2d-LB_s\n");
    // Strong-run message counts per step: the overlapped-sparse default
    // vs the dense oracle's ranks·(ranks−1) payload wires.
    let mut msg_md = String::from(
        "| ranks | impl | msgs/step (sparse) | elided/step | dense msgs/step |\n\
         |---|---|---|---|---|\n",
    );
    let mut summaries: Vec<(usize, &'static str, TraceSummary)> = Vec::new();

    for &ranks in rank_counts {
        let mut strong = [0.0f64; 3];
        let mut weak = [0.0f64; 3];
        let weak_n = weak_base * ranks as u64;
        for (i, imp) in Impl::ALL.iter().enumerate() {
            let r = run_one(*imp, RankKernel::default(), strong_n, ranks, steps);
            strong[i] = r.wall_s;
            // Keep rank 0's trace digest of the strong run.
            let summary = r.outcomes[0].1.clone();
            let _ = writeln!(
                msg_md,
                "| {ranks} | {} | {:.1} | {:.1} | {} |",
                imp.name(),
                summary.counters[Counter::MsgsSent.idx()] as f64 / steps as f64,
                summary.counters[Counter::MsgsSkipped.idx()] as f64 / steps as f64,
                ranks * ranks.saturating_sub(1),
            );
            summaries.push((ranks, imp.name(), summary));
            weak[i] = run_one(*imp, RankKernel::default(), weak_n, ranks, steps).wall_s;
        }
        let _ = writeln!(
            strong_csv,
            "{ranks},{:.3},{:.3},{:.3}",
            strong[0], strong[2], strong[1]
        );
        let _ = writeln!(
            weak_csv,
            "{ranks},{weak_n},{:.3},{:.3},{:.3}",
            weak[0], weak[2], weak[1]
        );
        eprintln!(
            "scaling ranks={ranks}: strong {:.2}/{:.2}/{:.2}s weak {:.2}/{:.2}/{:.2}s",
            strong[0], strong[1], strong[2], weak[0], weak[1], weak[2]
        );
    }

    let _ = writeln!(
        md,
        "## Strong scaling (Fig 6-left analogue)\n\n```\n{strong_csv}```\n"
    );
    let _ = writeln!(
        md,
        "## Weak scaling (Fig 7 analogue)\n\n```\n{weak_csv}```\n"
    );
    let _ = writeln!(
        md,
        "## Exchange wire messages per step (strong runs)\n\n\
         Overlapped-sparse exchange (the default): per-neighbor count \
         wires always travel, payload wires only when non-empty; the \
         *elided* column counts payloads the sparse protocol skipped. The \
         dense reference (`ExchangeMode::DenseSync`) would send `ranks·(ranks−1)` \
         payload wires every step regardless of occupancy.\n\n{msg_md}"
    );
    let _ = writeln!(
        md,
        "## Per-rank-count trace summaries (rank 0, strong runs)\n"
    );
    for (ranks, imp, s) in &summaries {
        let _ = writeln!(
            md,
            "### {imp}, {ranks} rank(s)\n\n{}",
            trace_summary_markdown(s)
        );
    }

    std::fs::create_dir_all(dir).expect("create results dir");
    let p1 = format!("{dir}/par_fig6_left.csv");
    let p2 = format!("{dir}/par_fig7_weak.csv");
    let p3 = format!("{dir}/par_scaling.md");
    std::fs::write(&p1, &strong_csv).expect("write strong csv");
    std::fs::write(&p2, &weak_csv).expect("write weak csv");
    std::fs::write(&p3, &md).expect("write scaling md");
    eprintln!("wrote {p1}, {p2}, {p3}");
}
