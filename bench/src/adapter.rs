//! The benchmark's only door into the program (besides the isolated layer
//! probes in `probe.rs`): every workload definition, every entry-point call
//! and the traced drivers live here, so the list of program APIs the
//! benchmark holds still is this file's `use` block (see README.md, "Pinned
//! API").

use crate::span::{Recorder, Span};
use pic_ampi::{run_ampi, AmpiParams, Balancer};
use pic_cluster::balancer::{
    AdaptiveLb, Axes, BalanceInput, DiffusionLb, Layout, LoadBalancer, StaticLb,
};
use pic_comm::{run_threads, Communicator};
use pic_core::dist::Distribution;
use pic_core::engine::{Simulation, SweepMode};
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::{InitConfig, RowSpread, SimulationSetup};
use pic_core::pool;
use pic_core::verify::VerifyReport;
use pic_par::runner::RankState;
use pic_par::{run_config, BalancerSpec, Decomp2d, DiffusionMode, DiffusionParams, ParConfig};
use pic_trace::Tracer;
use std::time::Instant;

/// Problem size shared by all workloads of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Grid cells per side (`L`).
    pub ncells: usize,
    pub n: u64,
    pub steps: u32,
    /// Steps of the discarded warm-up run on the same input.
    pub warm_steps: u32,
}

impl Shape {
    /// The recorded shape.
    pub const FULL: Shape = Shape {
        ncells: 1024,
        n: 500_000,
        steps: 240,
        warm_steps: 24,
    };
    /// `--smoke`: the same workloads small enough for a CI job.
    pub const SMOKE: Shape = Shape {
        ncells: 1024,
        n: 50_000,
        steps: 40,
        warm_steps: 4,
    };
}

/// Vertical cells per step, common to all workloads.
const M: i32 = 1;
/// Balance cadence and cut step of the two cut-balanced workloads.
const LB_PARAMS: DiffusionParams = DiffusionParams {
    interval: 10,
    tau: 0,
    border_w: 32,
};
/// VP runtime knobs of `ampi_geo`: the paper's refinement strategy at
/// over-decomposition 4, balanced every 20 steps.
pub(crate) const AMPI_D: usize = 4;
const AMPI_INTERVAL: u32 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Balance {
    Static,
    Diffusion,
    Adaptive,
}

/// Which implementation runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runner {
    /// `Simulation` on one thread: no `pic-comm`, no exchange, no balancer.
    Serial,
    /// `run_config` over thread-ranks with a cut-family balancer.
    Cut(Balance),
    /// `run_ampi` over thread-ranks.
    Ampi,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Input {
    Uniform,
    /// Geometric skew: the cloud starts in the low columns and drifts
    /// across the rank cut during the run.
    Geometric {
        r: f64,
    },
    /// Everything starts in the left quarter of the grid.
    LeftPatch,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the full rationale is in README.md.
    pub why: &'static str,
    input: Input,
    /// Horizontal speed: particles move `2k+1` cells per step.
    k: u32,
    /// Inject a quarter of `n` at a third of the run and remove as many at
    /// two thirds.
    events: bool,
    pub runner: Runner,
}

const GEO: Input = Input::Geometric { r: 0.99 };

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "serial_uniform",
        why: "single-thread baseline: kernel sweep and rebin only; exchange or balance work must not move it",
        input: Input::Uniform,
        k: 0,
        events: false,
        runner: Runner::Serial,
    },
    Workload {
        name: "static_geo",
        why: "mpi-2d on the paper's drifting skew: trickle exchange, the light rank waits; the reference to beat",
        input: GEO,
        k: 1,
        events: false,
        runner: Runner::Cut(Balance::Static),
    },
    Workload {
        name: "diffusion_geo",
        why: "mpi-2d-LB on the same input: 23 balance rounds, the only place balance cost trades against wait",
        input: GEO,
        k: 1,
        events: false,
        runner: Runner::Cut(Balance::Diffusion),
    },
    Workload {
        name: "ampi_geo",
        why: "VP runtime on the same input: full-grid store, owner-routing scan every step, near-perfect balance",
        input: GEO,
        k: 1,
        events: false,
        runner: Runner::Ampi,
    },
    Workload {
        name: "migrate_uniform",
        why: "balanced bulk migration (17 cells/step): drain, wire and arrival cost dominate, nobody waits",
        input: Input::Uniform,
        k: 8,
        events: false,
        runner: Runner::Cut(Balance::Static),
    },
    Workload {
        name: "events_adaptive",
        why: "injection and removal events under the adaptive balancer: store writes beside reads, and switching",
        input: Input::LeftPatch,
        k: 0,
        events: true,
        runner: Runner::Cut(Balance::Adaptive),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one run ends with; what every repetition is checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The paper's analytic trajectory check and the id checksum.
    pub verified: bool,
    pub total_count: u64,
    pub max_count: u64,
    pub id_sum: u128,
    /// Kernel descriptor of the hot loop (`<backend>/<tier>`).
    pub kernel: String,
}

/// One rank's share of a traced run.
#[derive(Debug, Default)]
pub struct RankTrace {
    pub rec: Recorder,
    /// Wall time of the rank's closure, first line to last.
    pub wall_ns: u64,
    /// Particles homed on the rank after each step (cut-family drivers),
    /// logged locally — the imbalance series costs no collective.
    pub counts: Vec<u64>,
    pub final_count: u64,
    pub migrants: u64,
    pub msgs_sent: u64,
    pub msgs_skipped: u64,
    pub balance_rounds: u64,
    pub cut_moves: u64,
    pub rehomed: u64,
    pub switches: u64,
}

/// A traced run: the outcome, the main thread's spans (`comm.world`), and
/// one [`RankTrace`] per rank.
#[derive(Debug)]
pub struct Traced {
    pub outcome: Outcome,
    pub main: Recorder,
    pub ranks: Vec<RankTrace>,
}

/// A workload made concrete: inputs built from the seed, ready to run.
pub struct Case {
    pub workload: &'static Workload,
    pub shape: Shape,
    pub ranks: usize,
    pub(crate) cfg: ParConfig,
}

/// The input a serial run consumes (`Simulation` takes its setup by
/// value); staged outside the timed window.
pub struct Staged(Option<SimulationSetup>);

impl Case {
    /// Build the workload's input. This is the set-up a user pays before
    /// the entry point: `InitConfig::build` plus the event schedule.
    pub fn build(workload: &'static Workload, shape: Shape, seed: u64, ranks: usize) -> Case {
        let l = shape.ncells;
        let grid = Grid::new(l).expect("benchmark grid size is valid");
        let dist = match workload.input {
            Input::Uniform => Distribution::Uniform,
            Input::Geometric { r } => Distribution::Geometric { r },
            Input::LeftPatch => Distribution::Patch {
                x0: 0,
                x1: l / 4,
                y0: 0,
                y1: l,
            },
        };
        let mut setup = InitConfig::new(grid, shape.n, dist)
            .with_k(workload.k)
            .with_m(M)
            .with_spread(RowSpread::Random { seed })
            .build()
            .expect("benchmark workload is a valid configuration");
        for (at_step, delta) in event_schedule(workload, shape) {
            let event = if delta > 0 {
                let strip = Region {
                    x0: 0,
                    x1: l / 8,
                    y0: 0,
                    y1: l,
                };
                Event::inject(at_step, strip, delta as u64, workload.k, M, 1)
            } else {
                Event::remove(at_step, Region::whole(l), (-delta) as u64)
            };
            setup = setup.with_event(event);
        }
        let balancer = match workload.runner {
            Runner::Cut(Balance::Diffusion) => BalancerSpec::Diffusion {
                params: LB_PARAMS,
                mode: DiffusionMode::XOnly,
            },
            Runner::Cut(Balance::Adaptive) => BalancerSpec::Adaptive {
                params: LB_PARAMS,
                mode: DiffusionMode::XOnly,
            },
            _ => BalancerSpec::Static,
        };
        Case {
            workload,
            shape,
            ranks,
            cfg: ParConfig::new(setup, shape.steps).with_balancer(balancer),
        }
    }

    /// Number of steps the next run executes (the warm-up runs fewer).
    pub fn set_steps(&mut self, steps: u32) {
        self.cfg.steps = steps;
    }

    pub fn steps(&self) -> u32 {
        self.cfg.steps
    }

    /// Threads that compute during a run.
    pub fn threads(&self) -> usize {
        match self.workload.runner {
            Runner::Serial => 1,
            _ => self.ranks,
        }
    }

    /// Particle count the run must end with: `n + injected − removed`.
    pub fn expected_total(&self) -> u64 {
        let delta: i64 = event_schedule(self.workload, self.shape)
            .iter()
            .filter(|(at, _)| *at < self.cfg.steps)
            .map(|(_, d)| d)
            .sum();
        (self.shape.n as i64 + delta) as u64
    }

    /// Particle advances of one run: the population of each step, summed.
    pub fn particle_steps(&self) -> u64 {
        let schedule = event_schedule(self.workload, self.shape);
        (0..self.cfg.steps)
            .map(|s| {
                let delta: i64 = schedule
                    .iter()
                    .filter(|(at, _)| *at <= s)
                    .map(|(_, d)| d)
                    .sum();
                (self.shape.n as i64 + delta) as u64
            })
            .sum()
    }

    pub fn stage(&self) -> Staged {
        Staged(match self.workload.runner {
            Runner::Serial => Some(self.cfg.setup.clone()),
            _ => None,
        })
    }

    /// One run through the entry point a user's run goes through, tracing
    /// off: from the call to the verified outcome.
    pub fn run(&self, staged: Staged) -> Outcome {
        match self.workload.runner {
            Runner::Serial => {
                let mut sim = self.serial_sim(staged);
                sim.run(self.cfg.steps);
                serial_outcome(&sim, &sim.verify())
            }
            Runner::Cut(_) => {
                let outs = run_threads(self.ranks, |comm| run_config(&comm, &self.cfg));
                par_outcome(&outs[0])
            }
            Runner::Ampi => {
                let params = ampi_params();
                let outs = run_threads(self.ranks, |comm| run_ampi(&comm, &self.cfg, &params));
                par_outcome(&outs[0])
            }
        }
    }

    /// The same run with the benchmark's spans around each layer's public
    /// calls. The cut-family driver is the production loop of
    /// `run_balanced_traced` rebuilt from its public parts — it calls
    /// `RankState::step_traced`, so the overlapped border drain runs
    /// exactly as in [`Case::run`] — and must end with the same outcome.
    pub fn run_traced(&self, staged: Staged) -> Traced {
        let mut main = Recorder::default();
        if self.workload.runner == Runner::Serial {
            // The one thread of a serial run is traced as its only rank.
            let t0 = Instant::now();
            let mut trace = RankTrace::default();
            let mut sim = trace
                .rec
                .time(Span::CoreStoreBuild, || self.serial_sim(staged));
            for _ in 0..self.cfg.steps {
                trace.rec.time(Span::CoreStep, || sim.step());
            }
            let report = trace.rec.time(Span::CoreVerify, || sim.verify());
            trace.final_count = sim.particle_count() as u64;
            trace.wall_ns = t0.elapsed().as_nanos() as u64;
            return Traced {
                outcome: serial_outcome(&sim, &report),
                main,
                ranks: vec![trace],
            };
        }
        let (cpu0, t0) = (crate::host::thread_cpu_ns(), Instant::now());
        let per_rank = run_threads(self.ranks, |comm| match self.workload.runner {
            Runner::Ampi => self.ampi_rank_traced(&comm),
            _ => self.cut_rank_traced(&comm),
        });
        let world_ns = t0.elapsed().as_nanos() as u64;
        let slowest = per_rank.iter().map(|(_, t)| t.wall_ns).max().unwrap_or(0);
        main.record(
            Span::CommWorld,
            world_ns.saturating_sub(slowest),
            crate::host::thread_cpu_ns().saturating_sub(cpu0),
        );
        let outcome = per_rank[0].0.clone();
        Traced {
            outcome,
            main,
            ranks: per_rank.into_iter().map(|(_, t)| t).collect(),
        }
    }

    fn serial_sim(&self, staged: Staged) -> Simulation {
        // The plain single-thread baseline: the sweep pool stays out of it.
        pool::global().set_active_threads(1);
        let setup = staged.0.expect("serial run needs a staged setup");
        Simulation::with_mode(setup, SweepMode::SoaBinned)
    }

    fn ampi_rank_traced(&self, comm: &Communicator) -> (Outcome, RankTrace) {
        let t0 = Instant::now();
        let mut trace = RankTrace::default();
        let params = ampi_params();
        // Monolithic: `run_ampi` has no public seams to put spans between.
        let out = trace
            .rec
            .time(Span::AmpiRun, || run_ampi(comm, &self.cfg, &params));
        trace.final_count = out.local_count as u64;
        trace.wall_ns = t0.elapsed().as_nanos() as u64;
        (par_outcome(&out), trace)
    }

    fn cut_rank_traced(&self, comm: &Communicator) -> (Outcome, RankTrace) {
        let t0 = Instant::now();
        let mut trace = RankTrace::default();
        let steps = self.cfg.steps;
        trace.counts.reserve(steps as usize);
        let mut lb: Box<dyn LoadBalancer> = match self.workload.runner {
            Runner::Cut(Balance::Diffusion) => Box::new(DiffusionLb::new(
                LB_PARAMS.interval as u64,
                LB_PARAMS.tau,
                LB_PARAMS.border_w,
                Axes::X,
            )),
            Runner::Cut(Balance::Adaptive) => Box::new(AdaptiveLb::cut_arms(
                LB_PARAMS.interval as u64,
                LB_PARAMS.tau,
                LB_PARAMS.border_w,
                Axes::X,
            )),
            _ => Box::new(StaticLb),
        };
        let mut off = Tracer::disabled();
        let decomp = Decomp2d::uniform(self.cfg.setup.grid.ncells(), comm.size());
        let mut st = trace.rec.time(Span::ParRankInit, || {
            RankState::with_kernel(&self.cfg.setup, decomp, comm.rank(), self.cfg.kernel)
        });
        for s in 1..=steps {
            let sent = trace
                .rec
                .time(Span::ParStep, || st.step_traced(comm, &mut off));
            trace.migrants += sent as u64;
            if lb.wants(s as u64) && s < steps {
                balance_round(comm, &mut st, s as u64, lb.as_mut(), &mut trace);
            }
            trace.counts.push(st.local_count() as u64);
        }
        let out = trace.rec.time(Span::ParVerify, || st.finish(comm));
        (trace.msgs_sent, trace.msgs_skipped) = st.take_message_counts();
        trace.final_count = out.local_count as u64;
        trace.wall_ns = t0.elapsed().as_nanos() as u64;
        (par_outcome(&out), trace)
    }
}

/// One balance round, as `pic_par::balance` runs it: gather what the
/// strategy needs (column histogram, then row counts), decide, apply.
fn balance_round(
    comm: &Communicator,
    st: &mut RankState,
    step: u64,
    lb: &mut dyn LoadBalancer,
    trace: &mut RankTrace,
) {
    trace.balance_rounds += 1;
    let needs = lb.needs();
    let (hist, rows) = trace.rec.time(Span::ParBalanceGather, || {
        let mut scratch = Vec::new();
        let hist = if needs.col_hist {
            st.aggregate_column_histogram(comm, &mut scratch)
        } else {
            Vec::new()
        };
        let mut rows = Vec::new();
        if needs.row_counts {
            st.aggregate_axis_counts_into(comm, false, &mut rows);
        }
        (hist, rows)
    });
    let decision = trace.rec.time(Span::ClusterDecide, || {
        let layout = Layout {
            ncells: st.decomp.ncells,
            ranks: comm.size(),
            xcuts: &st.decomp.xcuts,
            ycuts: &st.decomp.ycuts,
            vp_assignment: &[],
        };
        let input = BalanceInput {
            step,
            col_hist: &hist,
            row_counts: &rows,
            vp_counts: &[],
        };
        lb.decide(&input, &layout)
    });
    trace.switches += u64::from(decision.switched.is_some());
    let (moved, sent) = trace.rec.time(Span::ParBalanceApply, || {
        let mut moved = false;
        for mv in &decision.cuts {
            match mv.axis {
                'x' if mv.new_cuts != st.decomp.xcuts => st.decomp.set_xcuts(mv.new_cuts.clone()),
                'y' if mv.new_cuts != st.decomp.ycuts => st.decomp.set_ycuts(mv.new_cuts.clone()),
                _ => continue,
            }
            moved = true;
        }
        if moved {
            st.rebuild_charges();
        }
        let (sent, _received) = st.rehome(comm);
        st.rebind_store();
        (moved, sent)
    });
    trace.cut_moves += u64::from(moved);
    trace.rehomed += sent as u64;
}

/// `(step, population change)` of the workload's events, in step order.
fn event_schedule(workload: &Workload, shape: Shape) -> Vec<(u32, i64)> {
    if !workload.events {
        return Vec::new();
    }
    let quarter = (shape.n / 4) as i64;
    vec![(shape.steps / 3, quarter), (2 * shape.steps / 3, -quarter)]
}

fn ampi_params() -> AmpiParams {
    AmpiParams {
        d: AMPI_D,
        interval: AMPI_INTERVAL,
        balancer: Balancer::paper_default(),
    }
}

fn par_outcome(out: &pic_par::ParOutcome) -> Outcome {
    Outcome {
        verified: out.verify.passed(),
        total_count: out.total_count,
        max_count: out.max_count,
        id_sum: out.verify.id_sum,
        kernel: out.kernel.clone(),
    }
}

fn serial_outcome(sim: &Simulation, report: &VerifyReport) -> Outcome {
    let n = sim.particle_count() as u64;
    Outcome {
        verified: report.passed(),
        total_count: n,
        max_count: n,
        id_sum: report.id_sum,
        kernel: sim.kernel_desc(),
    }
}
