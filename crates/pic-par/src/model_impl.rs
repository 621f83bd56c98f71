//! The three strategies expressed against the analytic load model, for
//! full-scale modeled runs: one step loop over two ownership maps.
//!
//! The units of work are the rectangles of a [`Decomp2d`]. Under the cut
//! map they are its ranks, each on its own core, and a round moves the
//! x-cuts through [`pic_cluster::balancer::diffuse_xcuts`] (`mpi-2d-LB`;
//! the `mpi-2d` baseline never balances). Under the VP map they are the
//! virtual processors of a [`VpGrid`], owned through the VP→core table a
//! round moves through [`VpStrategy::rebalance`] (`ampi`). The decisions
//! are the functional runtimes' own; only the particle bookkeeping is
//! replaced by O(1) count queries, and time is charged through
//! [`pic_cluster::cost::CostModel`] + [`pic_cluster::bsp::BspSimulator`]. This is what
//! lets Figures 5–7 run at 24–3,072 modeled cores on one host.
//!
//! Every step charges each unit, in index order, its compute and one
//! message to its downstream neighbour at the distance between the two
//! owning cores — so after the VP balancer scatters VPs, formerly on-node
//! traffic is charged at remote rates, the fragmentation effect the paper
//! describes. The VP map adds the virtualized runtime's per-VP scheduling
//! and per-message overheads.

use crate::balance::AmpiParams;
use crate::decomp::{Decomp2d, VpGrid};
use crate::diffusion::DiffusionParams;
use pic_cluster::balancer::{diffuse_xcuts, VpStrategy};
use pic_cluster::bsp::{BspSimulator, RunStats};
use pic_cluster::cost::CostModel;
use pic_cluster::loadmodel::ColumnLoadModel;
use pic_cluster::machine::{Distance, MachineModel};
use pic_cluster::noise::NoiseModel;
use pic_core::dist::Distribution;

/// Configuration of a modeled run.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    pub ncells: usize,
    pub n: u64,
    pub steps: u64,
    pub dist: Distribution,
    /// Horizontal stride parameter (cells/step = 2k+1).
    pub k: u32,
    /// Drift direction.
    pub dir: i8,
    pub cores: usize,
    pub machine: MachineModel,
    pub cost: CostModel,
    /// System non-uniformity injection (category-1 imbalance; defaults to
    /// a uniform machine).
    pub noise: NoiseModel,
}

impl ModelConfig {
    /// The paper's strong-scaling experiment (Figure 6): 2,998² cells,
    /// 600 k particles, 6,000 steps, geometric skew r = 0.999, k = 0.
    pub fn paper_strong(cores: usize) -> ModelConfig {
        ModelConfig {
            ncells: 2998,
            n: 600_000,
            steps: 6_000,
            dist: Distribution::PAPER_SKEW,
            k: 0,
            dir: 1,
            cores,
            machine: MachineModel::edison(cores),
            cost: CostModel::edison_like(),
            noise: NoiseModel::None,
        }
    }

    /// The paper's AMPI-tuning experiment (Figure 5): 5,998² cells,
    /// 6.4 M particles, 6,000 steps, 192 cores.
    pub fn paper_tuning() -> ModelConfig {
        ModelConfig {
            ncells: 5998,
            n: 6_400_000,
            steps: 6_000,
            dist: Distribution::PAPER_SKEW,
            k: 0,
            dir: 1,
            cores: 192,
            machine: MachineModel::edison(192),
            cost: CostModel::edison_like(),
            noise: NoiseModel::None,
        }
    }

    /// The paper's weak-scaling experiment (Figure 7): 11,998² cells,
    /// 400 k particles at 48 cores, particles scale with cores.
    pub fn paper_weak(cores: usize) -> ModelConfig {
        ModelConfig {
            ncells: 11_998,
            n: 400_000 * (cores as u64) / 48,
            steps: 6_000,
            dist: Distribution::PAPER_SKEW,
            k: 0,
            dir: 1,
            cores,
            machine: MachineModel::edison(cores),
            cost: CostModel::edison_like(),
            noise: NoiseModel::None,
        }
    }

    /// Scale the run length down by `factor` (for tests/benches); the
    /// per-step dynamics are periodic in the drift, so shapes survive.
    ///
    /// Per-*invocation* load-balancing costs are divided by the same
    /// factor: tuned LB intervals are proportional to the run length, so
    /// invocation counts are scale-invariant — dividing their fixed cost
    /// preserves the overhead-to-compute ratio of the full-scale run.
    pub fn shortened(mut self, factor: u64) -> ModelConfig {
        self.steps = (self.steps / factor).max(1);
        let f = factor as f64;
        self.cost.ampi_lb_base_ns /= f;
        self.cost.ampi_lb_tree_ns /= f;
        self.cost.ampi_lb_per_vp_ns /= f;
        self.cost.lb_decision_ns /= f;
        self
    }
}

/// Result of a modeled run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelOutcome {
    pub stats: RunStats,
    /// Modeled wall seconds (= `stats.seconds`).
    pub seconds: f64,
    /// Max particles on any core at the end (paper §V-B).
    pub max_particles_end: f64,
    /// Ideal particles per core.
    pub ideal_particles: f64,
    /// Fraction of neighbor-exchange channels that cross a node boundary
    /// at the end of the run — the fragmentation indicator behind the
    /// paper's locality argument (§V-B: migrated interior VPs turn local
    /// traffic into network traffic).
    pub remote_neighbor_frac: f64,
}

/// Who owns a unit, and how a balance round moves it.
enum Ownership {
    /// The units are the ranks of the Cartesian decomposition, on the
    /// identity rank→core placement; a round diffuses the x-cuts (`None`:
    /// the static baseline, which never balances).
    Cuts(Option<DiffusionParams>),
    /// The units are VPs, owned through the replicated VP→core table.
    Vps {
        params: AmpiParams,
        assignment: Vec<usize>,
    },
}

impl Ownership {
    #[inline]
    fn core(&self, unit: usize) -> usize {
        match self {
            Ownership::Cuts(_) => unit,
            Ownership::Vps { assignment, .. } => assignment[unit],
        }
    }

    /// One balance round: decide, move the map, and return the round's
    /// critical path (ns) and migrated bytes. `unit_ns` is the last step's
    /// measured per-unit compute.
    fn round(
        &mut self,
        cfg: &ModelConfig,
        units: &mut Decomp2d,
        load: &ColumnLoadModel,
        unit_ns: &[f64],
    ) -> (f64, f64) {
        match self {
            Ownership::Cuts(None) => unreachable!("the static baseline never balances"),
            // Aggregate per-processor-column counts (the two reductions of
            // the paper's two-phase scheme collapse to one here); the phase
            // costs a sync, the decision, and the largest single transfer.
            Ownership::Cuts(Some(params)) => {
                let px = units.px;
                let col_counts: Vec<u64> = (0..px)
                    .map(|cx| {
                        let (a, b) = units.col_range(cx);
                        load.count_in_columns(a, b)
                    })
                    .collect();
                let new_cuts = diffuse_xcuts(
                    &units.xcuts,
                    &col_counts,
                    params.tau,
                    params.border_w,
                    cfg.ncells,
                );
                let mut max_migration_ns = 0.0f64;
                let mut bytes = 0.0f64;
                let interior = units.xcuts.iter().zip(&new_cuts).enumerate();
                for (i, (&old, &new)) in interior.take(px).skip(1) {
                    if old == new {
                        continue;
                    }
                    let (a, b) = (old.min(new), old.max(new));
                    let moved_particles = load.count_in_columns(a, b) as f64;
                    let moved_cols = (b - a) as f64;
                    for cy in 0..units.py {
                        let rows = units.row_range(cy);
                        let d = cfg
                            .machine
                            .distance(units.rank_of(i - 1, cy), units.rank_of(i, cy));
                        let cells = moved_cols * (rows.1 - rows.0) as f64;
                        let parts = moved_particles * (rows.1 - rows.0) as f64 / cfg.ncells as f64;
                        let ns = cfg.cost.migration_ns(d, cells, parts);
                        max_migration_ns = max_migration_ns.max(ns);
                        bytes += cells * cfg.cost.cell_bytes + parts * cfg.cost.particle_bytes;
                    }
                }
                units.set_xcuts(new_cuts);
                let lb_ns =
                    cfg.cost.sync_ns(cfg.cores) + cfg.cost.lb_decision_ns + max_migration_ns;
                (lb_ns, bytes)
            }
            // The runtime's fixed invocation cost, plus the migration: each
            // core sends and receives its moved VPs, and the phase ends when
            // the busiest core finishes.
            Ownership::Vps { params, assignment } => {
                let new_assignment = params.balancer.rebalance(unit_ns, assignment, cfg.cores);
                let mut per_core_ns = vec![0.0f64; cfg.cores];
                let mut bytes = 0.0f64;
                for vp in 0..units.ranks() {
                    let (from, to) = (assignment[vp], new_assignment[vp]);
                    if from == to {
                        continue;
                    }
                    let (cols, rows) = units.bounds(vp);
                    let cells = units.cell_count(vp) as f64;
                    let parts = load.count_in_rect(cols, rows);
                    let ns = cfg
                        .cost
                        .migration_ns(cfg.machine.distance(from, to), cells, parts);
                    per_core_ns[from] += ns;
                    per_core_ns[to] += ns;
                    bytes += cells * cfg.cost.cell_bytes + parts * cfg.cost.particle_bytes;
                }
                *assignment = new_assignment;
                let max_migration = per_core_ns.iter().copied().fold(0.0f64, f64::max);
                let lb_ns =
                    cfg.cost.ampi_lb_invocation_ns(cfg.cores, units.ranks()) + max_migration;
                (lb_ns, bytes)
            }
        }
    }
}

/// The unit downstream of `(cx, cy)` in the drift direction, and the cut
/// its leavers cross.
fn downstream(units: &Decomp2d, cx: usize, cy: usize, rightward: bool) -> (usize, usize) {
    let px = units.px;
    if rightward {
        (
            units.rank_of((cx + 1) % px, cy),
            units.xcuts[cx + 1] % units.ncells,
        )
    } else {
        (units.rank_of((cx + px - 1) % px, cy), units.xcuts[cx])
    }
}

/// The one modeled loop: `cfg.steps` steps over `units` owned through
/// `map`, with a balance round every interval (never on the last step).
fn run_model(cfg: &ModelConfig, mut units: Decomp2d, mut map: Ownership) -> ModelOutcome {
    let mut load = ColumnLoadModel::new(cfg.dist, cfg.ncells, cfg.n, cfg.k, cfg.dir);
    let mut bsp = BspSimulator::new(cfg.machine, cfg.cost, cfg.cores);
    // Steps between rounds, if any. Every VP is scheduled, and every VP
    // message routed, by the runtime — even between co-located VPs; the
    // cut map has no runtime.
    let (interval, sched_ns, msg_overhead_ns) = match &map {
        Ownership::Cuts(params) => (params.map(|p| p.interval as u64), 0.0, 0.0),
        Ownership::Vps { params, .. } => (
            Some(params.interval as u64),
            cfg.cost.vp_sched_ns,
            cfg.cost.ampi_msg_overhead_ns,
        ),
    };
    let rightward = load.stride() >= 0;
    let mut unit_ns = vec![0.0f64; units.ranks()];
    let mut compute = vec![0.0f64; cfg.cores];
    let mut comm = vec![0.0f64; cfg.cores];
    for s in 1..=cfg.steps {
        compute.fill(0.0);
        comm.fill(0.0);
        for cy in 0..units.py {
            let rows = units.row_range(cy);
            // Fraction of a column's particles lying in this unit row.
            let frac = if load.total() == 0 {
                0.0
            } else {
                load.count_in_rect((0, cfg.ncells), rows) / load.total() as f64
            };
            for cx in 0..units.px {
                let unit = units.rank_of(cx, cy);
                let core = map.core(unit);
                // The measured load includes the core's speed perturbation:
                // runtime balancers instrument wall time, so (unlike the
                // count-based diffusion scheme) they see and compensate for
                // system non-uniformity.
                unit_ns[unit] = load.count_in_rect(units.col_range(cx), rows)
                    * cfg.cost.particle_ns
                    * cfg.noise.factor(core, s);
                compute[core] += unit_ns[unit] + sched_ns;
                // Leavers cross the unit's downstream cut. (The model
                // assumes the stride does not skip a whole unit column; the
                // functional runtimes handle the general case.)
                let (next, cut) = downstream(&units, cx, cy, rightward);
                let dest = map.core(next);
                let sent = load.crossing_cut(cut) as f64 * frac;
                let ns = cfg
                    .cost
                    .particle_msg_ns(cfg.machine.distance(core, dest), sent)
                    + msg_overhead_ns;
                comm[core] += ns;
                comm[dest] += ns;
            }
        }
        bsp.step(&compute, &comm);
        load.advance(1);
        if interval.is_some_and(|f| s % f == 0) && s < cfg.steps {
            let (lb_ns, bytes) = map.round(cfg, &mut units, &load, &unit_ns);
            bsp.lb_phase(lb_ns, bytes);
        }
    }

    // The end state, read from the same unit table: particles per core,
    // and how many neighbour channels cross a node boundary.
    let mut per_core = vec![0.0f64; cfg.cores];
    let mut remote = 0usize;
    for cy in 0..units.py {
        for cx in 0..units.px {
            let unit = units.rank_of(cx, cy);
            let core = map.core(unit);
            let (cols, rows) = units.bounds(unit);
            per_core[core] += load.count_in_rect(cols, rows);
            let next = downstream(&units, cx, cy, rightward).0;
            if cfg.machine.distance(core, map.core(next)) == Distance::Remote {
                remote += 1;
            }
        }
    }
    let stats = bsp.stats();
    ModelOutcome {
        stats,
        seconds: stats.seconds,
        max_particles_end: per_core.iter().copied().fold(0.0f64, f64::max),
        ideal_particles: cfg.n as f64 / cfg.cores as f64,
        remote_neighbor_frac: remote as f64 / units.ranks() as f64,
    }
}

/// Modeled `mpi-2d` baseline run.
pub fn model_baseline(cfg: &ModelConfig) -> ModelOutcome {
    run_model(
        cfg,
        Decomp2d::uniform(cfg.ncells, cfg.cores),
        Ownership::Cuts(None),
    )
}

/// Modeled `mpi-2d-LB` (diffusion) run.
pub fn model_diffusion(cfg: &ModelConfig, params: DiffusionParams) -> ModelOutcome {
    assert!(params.interval > 0 && params.border_w > 0);
    run_model(
        cfg,
        Decomp2d::uniform(cfg.ncells, cfg.cores),
        Ownership::Cuts(Some(params)),
    )
}

/// Modeled `ampi` run: the VP grid of `params.d` VPs per core, starting
/// from its compact block placement.
pub fn model_ampi(cfg: &ModelConfig, params: &AmpiParams) -> ModelOutcome {
    assert!(params.interval > 0);
    let grid = VpGrid::new(cfg.ncells, cfg.cores, params.d);
    let map = Ownership::Vps {
        params: *params,
        assignment: grid.initial_assignment(),
    };
    run_model(cfg, grid.decomp().clone(), map)
}

/// Run every candidate and keep the fastest (the first, on a tie) — the
/// paper "tuned the relevant parameters and picked the best performing
/// execution at each level of concurrency".
fn fastest<P: Copy>(
    candidates: impl IntoIterator<Item = P>,
    run: impl Fn(P) -> ModelOutcome,
) -> (ModelOutcome, P) {
    let mut best: Option<(ModelOutcome, P)> = None;
    for params in candidates {
        let out = run(params);
        if best.as_ref().is_none_or(|(b, _)| out.seconds < b.seconds) {
            best = Some((out, params));
        }
    }
    best.expect("at least one candidate")
}

/// LB-interval candidates `steps / divisor` (at least 1, repeats dropped):
/// the paper's tuned values are for 6,000-step runs, so the candidates
/// scale with the run length.
fn intervals(steps: u64, divisors: &[u64]) -> Vec<u32> {
    let mut out: Vec<u32> = divisors
        .iter()
        .map(|&d| (steps / d).max(1) as u32)
        .collect();
    out.dedup();
    out
}

/// Sweep diffusion parameters and keep the best run.
pub fn model_diffusion_tuned(cfg: &ModelConfig) -> (ModelOutcome, DiffusionParams) {
    // Intervals span the practical co-tuning range (6,000 steps → F ∈ {5,
    // 10, 20, 50}); balancing every other step is outside what an MPI
    // implementation would realistically sweep. The border width must
    // cover the drift accumulated between invocations, so it is tied to
    // the interval × stride.
    let tau = (cfg.n / cfg.cores as u64 / 20).max(1);
    let stride = 2 * cfg.k as usize + 1;
    let candidates = intervals(cfg.steps, &[1200, 600, 300, 120])
        .into_iter()
        .flat_map(|interval| {
            [1usize, 2, 4, 8, 12].map(|w_per_step| DiffusionParams {
                interval,
                tau,
                border_w: w_per_step * interval as usize * stride,
            })
        });
    fastest(candidates, |params| model_diffusion(cfg, params))
}

/// Sweep `d` and `F` jointly and keep the best run.
pub fn model_ampi_tuned(cfg: &ModelConfig) -> (ModelOutcome, AmpiParams) {
    // The paper's best-performing F ≈ 160–1,000 for 6,000-step runs.
    let intervals = intervals(cfg.steps, &[40, 10, 6]);
    let candidates = [4usize, 16].into_iter().flat_map(|d| {
        intervals.iter().map(move |&interval| AmpiParams {
            d,
            interval,
            balancer: VpStrategy::paper_default(),
        })
    });
    fastest(candidates, |params| model_ampi(cfg, &params))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(cores: usize) -> ModelConfig {
        ModelConfig {
            ncells: 256,
            n: 64_000,
            steps: 400,
            dist: Distribution::Geometric { r: 0.99 },
            k: 0,
            dir: 1,
            cores,
            machine: MachineModel::edison(cores),
            cost: CostModel::edison_like(),
            noise: NoiseModel::None,
        }
    }

    // Large enough that compute dominates the (paper-scale-calibrated)
    // fixed VP-balancer invocation cost, as in the real experiments.
    fn ampi_cfg(cores: usize) -> ModelConfig {
        ModelConfig {
            n: 2_560_000,
            dist: Distribution::Geometric { r: 0.98 },
            ..small_cfg(cores)
        }
    }

    fn ampi(d: usize, interval: u32, balancer: VpStrategy) -> AmpiParams {
        AmpiParams {
            d,
            interval,
            balancer,
        }
    }

    #[test]
    fn baseline_single_core_has_no_imbalance() {
        let out = model_baseline(&small_cfg(1));
        assert!((out.stats.imbalance - 1.0).abs() < 1e-9);
        assert_eq!(out.stats.steps, 400);
    }

    #[test]
    fn baseline_shows_skew_imbalance() {
        let out = model_baseline(&small_cfg(16));
        assert!(
            out.stats.imbalance > 1.5,
            "geometric skew must show up as imbalance: {}",
            out.stats.imbalance
        );
        assert!(out.max_particles_end > 1.5 * out.ideal_particles);
    }

    #[test]
    fn diffusion_beats_baseline_on_skew() {
        let cfg = small_cfg(16);
        let base = model_baseline(&cfg);
        let (diff, _) = model_diffusion_tuned(&cfg);
        assert!(
            diff.seconds < base.seconds,
            "diffusion {:.3}s must beat baseline {:.3}s",
            diff.seconds,
            base.seconds
        );
        assert!(diff.max_particles_end < base.max_particles_end);
    }

    #[test]
    fn uniform_distribution_gains_nothing_from_lb() {
        let mut cfg = small_cfg(16);
        cfg.dist = Distribution::Uniform;
        let base = model_baseline(&cfg);
        let diff = model_diffusion(
            &cfg,
            DiffusionParams {
                interval: 20,
                tau: 1000,
                border_w: 20,
            },
        );
        // LB pays its overhead but moves nothing: slightly slower or equal.
        assert!(diff.seconds >= base.seconds * 0.999);
        assert!((base.stats.imbalance - 1.0).abs() < 0.1);
    }

    #[test]
    fn diffusion_without_rounds_prices_the_baseline() {
        // Every modeled run samples the same noise steps: with no round
        // inside the run, diffusion is the baseline bit for bit, per-step
        // jitter included.
        let mut cfg = small_cfg(16);
        cfg.noise = NoiseModel::Jitter {
            amplitude: 0.5,
            seed: 7,
        };
        let idle = DiffusionParams {
            interval: cfg.steps as u32 + 1,
            tau: 0,
            border_w: 4,
        };
        assert_eq!(model_diffusion(&cfg, idle), model_baseline(&cfg));
    }

    #[test]
    fn strong_scaling_reduces_time() {
        let t1 = model_baseline(&small_cfg(1)).seconds;
        let t4 = model_baseline(&small_cfg(4)).seconds;
        let t16 = model_baseline(&small_cfg(16)).seconds;
        assert!(t4 < t1, "4 cores {t4} < 1 core {t1}");
        assert!(t16 < t4, "16 cores {t16} < 4 cores {t4}");
    }

    #[test]
    fn paper_config_presets() {
        let s = ModelConfig::paper_strong(24);
        assert_eq!(s.ncells, 2998);
        assert_eq!(s.n, 600_000);
        let w = ModelConfig::paper_weak(3072);
        assert_eq!(w.n, 400_000 * 64);
        let t = ModelConfig::paper_tuning();
        assert_eq!(t.cores, 192);
    }

    #[test]
    fn paper_e5_max_count_shape() {
        // Paper §V-B at 24 cores: baseline max 62,645, diffusion 30,585,
        // ideal 25,000 (ratios 2.5× and 1.22×). Check the model lands in
        // the right neighborhood (shortened run keeps the same end-state
        // geometry because the drift is periodic).
        let cfg = ModelConfig::paper_strong(24).shortened(10);
        let base = model_baseline(&cfg);
        let ratio = base.max_particles_end / base.ideal_particles;
        assert!(
            (1.8..3.5).contains(&ratio),
            "baseline max/ideal {ratio} should be ≈2.5 (paper: 62,645/25,000)"
        );
        let (diff, _) = model_diffusion_tuned(&cfg);
        let ratio_lb = diff.max_particles_end / diff.ideal_particles;
        assert!(
            ratio_lb < ratio * 0.7,
            "diffusion should cut the max count substantially: {ratio_lb} vs {ratio}"
        );
    }

    #[test]
    fn ampi_beats_baseline_on_skew() {
        let cfg = ampi_cfg(16);
        let base = model_baseline(&cfg);
        let ampi = model_ampi(&cfg, &ampi(8, 40, VpStrategy::paper_default()));
        assert!(
            ampi.seconds < base.seconds,
            "ampi {:.3}s must beat baseline {:.3}s",
            ampi.seconds,
            base.seconds
        );
        assert!(ampi.max_particles_end < base.max_particles_end);
    }

    #[test]
    fn no_balancer_is_baseline_plus_overhead() {
        let cfg = ampi_cfg(8);
        let base = model_baseline(&cfg);
        let ampi = model_ampi(&cfg, &ampi(4, 100, VpStrategy::None));
        // Over-decomposition without balancing only adds overhead.
        assert!(ampi.seconds >= base.seconds * 0.95);
        assert!((ampi.stats.imbalance - base.stats.imbalance).abs() < 0.5);
    }

    #[test]
    fn too_frequent_lb_hurts() {
        // The Figure 5 effect: F too small → invocation overhead dominates.
        let cfg = ampi_cfg(16);
        let mk =
            |interval| model_ampi(&cfg, &ampi(4, interval, VpStrategy::paper_default())).seconds;
        let frequent = mk(2);
        let moderate = mk(80);
        assert!(
            frequent > moderate,
            "F=2 ({frequent:.3}s) must be slower than F=80 ({moderate:.3}s)"
        );
    }

    #[test]
    fn over_decomposition_improves_balance() {
        // The other Figure 5 effect: d = 1 gives the balancer nothing to
        // move; larger d improves balance.
        let cfg = ampi_cfg(16);
        let mk = |d| model_ampi(&cfg, &ampi(d, 50, VpStrategy::paper_default()));
        let d1 = mk(1);
        let d8 = mk(8);
        assert!(
            d8.stats.imbalance < d1.stats.imbalance,
            "d=8 imbalance {} must beat d=1 {}",
            d8.stats.imbalance,
            d1.stats.imbalance
        );
        assert!(d8.seconds < d1.seconds);
    }

    #[test]
    fn d_one_refine_swaps_cannot_balance() {
        let out = model_ampi(&ampi_cfg(8), &ampi(1, 50, VpStrategy::paper_default()));
        assert!(
            out.stats.imbalance > 1.3,
            "imbalance {}",
            out.stats.imbalance
        );
    }

    #[test]
    fn runtime_lb_compensates_for_slow_cores() {
        // Category-1 imbalance (paper §I): a straggler socket. The
        // particle distribution is uniform, so the count-based diffusion
        // scheme sees nothing to fix — but the runtime balancer measures
        // wall time and shifts VPs off the slow cores.
        let mut cfg = ampi_cfg(16);
        cfg.dist = Distribution::Uniform;
        cfg.noise = NoiseModel::slow_tail(16, 4, 2.0);
        let base = model_baseline(&cfg);
        let diff = model_diffusion(
            &cfg,
            DiffusionParams {
                interval: 10,
                tau: 0,
                border_w: 4,
            },
        );
        let ampi = model_ampi(&cfg, &ampi(8, 40, VpStrategy::paper_default()));
        // Baseline suffers the full 2× straggler penalty.
        assert!(
            base.stats.imbalance > 1.5,
            "baseline imbalance {}",
            base.stats.imbalance
        );
        // Count-based diffusion cannot help (counts are already equal).
        assert!(
            diff.seconds > 0.9 * base.seconds,
            "diffusion should not help: {} vs {}",
            diff.seconds,
            base.seconds
        );
        // The runtime balancer does.
        assert!(
            ampi.seconds < 0.8 * base.seconds,
            "runtime LB must compensate: {} vs {}",
            ampi.seconds,
            base.seconds
        );
    }

    #[test]
    fn locality_oblivious_migration_fragments_neighborhoods() {
        // The paper's §V-B locality argument, quantified: the compact
        // initial placement keeps most VP neighbor channels on-node; after
        // locality-oblivious balancing rounds many cross node boundaries —
        // under the paper's own refinement strategy as under a greedy
        // repack.
        let cfg = ampi_cfg(48); // 2 nodes on the Edison layout
        let before = model_ampi(&cfg, &ampi(8, 40, VpStrategy::None));
        assert!(
            before.remote_neighbor_frac < 0.2,
            "compact placement should be mostly local: {}",
            before.remote_neighbor_frac
        );
        for strategy in [VpStrategy::paper_default(), VpStrategy::Greedy] {
            let after = model_ampi(&cfg, &ampi(8, 40, strategy));
            assert!(
                after.remote_neighbor_frac > 2.0 * before.remote_neighbor_frac,
                "{strategy:?} migration must fragment: {} vs {}",
                after.remote_neighbor_frac,
                before.remote_neighbor_frac
            );
        }
    }

    #[test]
    fn greedy_and_refine_both_balance() {
        let cfg = ampi_cfg(8);
        let refine = model_ampi(&cfg, &ampi(8, 40, VpStrategy::paper_default()));
        let greedy = model_ampi(&cfg, &ampi(8, 40, VpStrategy::Greedy));
        assert!(refine.stats.imbalance < 1.6);
        assert!(greedy.stats.imbalance < 1.6);
        // Both strategies actually move data.
        assert!(greedy.stats.migrated_bytes > 0.0);
        assert!(refine.stats.migrated_bytes > 0.0);
    }
}
