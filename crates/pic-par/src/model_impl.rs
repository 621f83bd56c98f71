//! The baseline and diffusion strategies expressed against the analytic
//! load model, for full-scale modeled runs.
//!
//! The decision logic (decomposition, [`pic_cluster::balancer::diffuse_xcuts`])
//! is shared verbatim with the functional threaded implementations; only
//! the particle bookkeeping is replaced by O(1) count queries, and time is
//! charged through [`pic_cluster::CostModel`] + [`pic_cluster::BspSimulator`].
//! This is what lets Figures 6–7 run at 24–3,072 modeled cores on one host.

use crate::decomp::Decomp2d;
use crate::diffusion::DiffusionParams;
use pic_cluster::balancer::diffuse_xcuts;
use pic_cluster::bsp::{BspSimulator, RunStats};
use pic_cluster::cost::CostModel;
use pic_cluster::loadmodel::ColumnLoadModel;
use pic_cluster::machine::MachineModel;
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
    /// Max particles on any rank at the end (paper §V-B).
    pub max_particles_end: f64,
    /// Ideal particles per rank.
    pub ideal_particles: f64,
    /// Fraction of neighbor-exchange channels that cross a node boundary
    /// at the end of the run — the fragmentation indicator behind the
    /// paper's locality argument (§V-B: migrated interior VPs turn local
    /// traffic into network traffic).
    pub remote_neighbor_frac: f64,
}

/// Per-step per-core compute and communication costs for a Cartesian
/// decomposition with identity rank→core placement.
// Takes the full modeled-run context piecewise so callers can keep the
// output buffers borrowed separately from the config.
#[allow(clippy::too_many_arguments)]
fn charge_step(
    decomp: &Decomp2d,
    load: &ColumnLoadModel,
    machine: &MachineModel,
    cost: &CostModel,
    noise: &NoiseModel,
    step: u64,
    compute: &mut [f64],
    comm: &mut [f64],
) {
    let px = decomp.px;
    let py = decomp.py;
    let ncells = decomp.ncells;
    for cy in 0..py {
        let rows = decomp.row_range(cy);
        for cx in 0..px {
            let rank = decomp.rank_of(cx, cy);
            let cols = decomp.col_range(cx);
            compute[rank] =
                load.count_in_rect(cols, rows) * cost.particle_ns * noise.factor(rank, step);
        }
    }
    // Horizontal neighbor exchange: leavers cross each processor column's
    // downstream cut. (The model assumes the stride does not skip over a
    // whole processor column; the functional implementation handles the
    // general case.)
    let rightward = load.stride() >= 0;
    for cy in 0..py {
        let rows = decomp.row_range(cy);
        let frac = {
            // Fraction of a column's particles lying in this row block.
            let total = load.total();
            if total == 0 {
                0.0
            } else {
                load.count_in_rect((0, ncells), rows) / total as f64
            }
        };
        for cx in 0..px {
            let rank = decomp.rank_of(cx, cy);
            let (nb_out, cut_out) = if rightward {
                (
                    decomp.rank_of((cx + 1) % px, cy),
                    decomp.xcuts[cx + 1] % ncells,
                )
            } else {
                (decomp.rank_of((cx + px - 1) % px, cy), decomp.xcuts[cx])
            };
            let sent = load.crossing_cut(cut_out) as f64 * frac;
            let d_out = machine.distance(rank, nb_out);
            comm[rank] += cost.particle_msg_ns(d_out, sent);
            comm[nb_out] += cost.particle_msg_ns(d_out, sent);
        }
    }
}

/// Fraction of (rank → x-neighbor) channels that cross a node boundary.
fn remote_neighbor_fraction(decomp: &Decomp2d, machine: &MachineModel) -> f64 {
    use pic_cluster::machine::Distance;
    let total = decomp.ranks();
    if total == 0 {
        return 0.0;
    }
    let mut remote = 0usize;
    for r in 0..total {
        let (cx, cy) = decomp.coords_of(r);
        let nb = decomp.rank_of((cx + 1) % decomp.px, cy);
        if machine.distance(r, nb) == Distance::Remote {
            remote += 1;
        }
    }
    remote as f64 / total as f64
}

/// Max per-rank particle count under the current decomposition.
fn max_rank_count(decomp: &Decomp2d, load: &ColumnLoadModel) -> f64 {
    let mut max = 0.0f64;
    for r in 0..decomp.ranks() {
        let (cols, rows) = decomp.bounds(r);
        max = max.max(load.count_in_rect(cols, rows));
    }
    max
}

/// Modeled `mpi-2d` baseline run.
pub fn model_baseline(cfg: &ModelConfig) -> ModelOutcome {
    let decomp = Decomp2d::uniform(cfg.ncells, cfg.cores);
    let mut load = ColumnLoadModel::new(cfg.dist, cfg.ncells, cfg.n, cfg.k, cfg.dir);
    let mut bsp = BspSimulator::new(cfg.machine, cfg.cost, cfg.cores);
    let mut compute = vec![0.0; cfg.cores];
    let mut comm = vec![0.0; cfg.cores];
    for s in 0..cfg.steps {
        compute.iter_mut().for_each(|v| *v = 0.0);
        comm.iter_mut().for_each(|v| *v = 0.0);
        charge_step(
            &decomp,
            &load,
            &cfg.machine,
            &cfg.cost,
            &cfg.noise,
            s,
            &mut compute,
            &mut comm,
        );
        bsp.step(&compute, &comm);
        load.advance(1);
    }
    ModelOutcome {
        stats: bsp.stats(),
        seconds: bsp.stats().seconds,
        max_particles_end: max_rank_count(&decomp, &load),
        ideal_particles: cfg.n as f64 / cfg.cores as f64,
        remote_neighbor_frac: remote_neighbor_fraction(&decomp, &cfg.machine),
    }
}

/// Modeled `mpi-2d-LB` (diffusion) run.
pub fn model_diffusion(cfg: &ModelConfig, params: DiffusionParams) -> ModelOutcome {
    assert!(params.interval > 0 && params.border_w > 0);
    let mut decomp = Decomp2d::uniform(cfg.ncells, cfg.cores);
    let mut load = ColumnLoadModel::new(cfg.dist, cfg.ncells, cfg.n, cfg.k, cfg.dir);
    let mut bsp = BspSimulator::new(cfg.machine, cfg.cost, cfg.cores);
    let mut compute = vec![0.0; cfg.cores];
    let mut comm = vec![0.0; cfg.cores];
    // Reused across LB invocations: per-processor-column counts and the
    // proposed cuts never reallocate in steady state.
    let mut col_counts: Vec<u64> = Vec::with_capacity(decomp.px);
    let px = decomp.px;
    let py = decomp.py;
    for s in 1..=cfg.steps {
        compute.iter_mut().for_each(|v| *v = 0.0);
        comm.iter_mut().for_each(|v| *v = 0.0);
        charge_step(
            &decomp,
            &load,
            &cfg.machine,
            &cfg.cost,
            &cfg.noise,
            s,
            &mut compute,
            &mut comm,
        );
        bsp.step(&compute, &comm);
        load.advance(1);
        if s % params.interval as u64 == 0 && s < cfg.steps {
            // Aggregate per-processor-column counts (the two reductions of
            // the paper's two-phase scheme collapse to one here).
            col_counts.clear();
            col_counts.extend((0..px).map(|cx| {
                let (a, b) = decomp.col_range(cx);
                load.count_in_columns(a, b)
            }));
            let new_cuts = diffuse_xcuts(
                &decomp.xcuts,
                &col_counts,
                params.tau,
                params.border_w,
                cfg.ncells,
            );
            // Charge the LB phase: reduction + decision + migration.
            let mut max_migration_ns = 0.0f64;
            let mut total_bytes = 0.0f64;
            let moved_cuts = decomp
                .xcuts
                .iter()
                .zip(&new_cuts)
                .enumerate()
                .take(px)
                .skip(1);
            for (i, (&old, &new)) in moved_cuts {
                if old == new {
                    continue;
                }
                let (a, b) = (old.min(new), old.max(new));
                let moved_particles = load.count_in_columns(a, b) as f64;
                let moved_cols = (b - a) as f64;
                for cy in 0..py {
                    let rows = decomp.row_range(cy);
                    let rank_l = decomp.rank_of(i - 1, cy);
                    let rank_r = decomp.rank_of(i, cy);
                    let d = cfg.machine.distance(rank_l, rank_r);
                    let cells = moved_cols * (rows.1 - rows.0) as f64;
                    let parts = moved_particles * (rows.1 - rows.0) as f64 / cfg.ncells as f64;
                    let ns = cfg.cost.migration_ns(d, cells, parts);
                    max_migration_ns = max_migration_ns.max(ns);
                    total_bytes += cells * cfg.cost.cell_bytes + parts * cfg.cost.particle_bytes;
                }
            }
            let lb_ns = cfg.cost.sync_ns(cfg.cores) + cfg.cost.lb_decision_ns + max_migration_ns;
            bsp.lb_phase(lb_ns, total_bytes);
            decomp.set_xcuts(new_cuts);
        }
    }
    ModelOutcome {
        stats: bsp.stats(),
        seconds: bsp.stats().seconds,
        max_particles_end: max_rank_count(&decomp, &load),
        ideal_particles: cfg.n as f64 / cfg.cores as f64,
        remote_neighbor_frac: remote_neighbor_fraction(&decomp, &cfg.machine),
    }
}

/// Sweep diffusion parameters and keep the best run — the paper "tuned the
/// relevant parameters and picked the best performing execution at each
/// level of concurrency".
pub fn model_diffusion_tuned(cfg: &ModelConfig) -> (ModelOutcome, DiffusionParams) {
    let mut best: Option<(ModelOutcome, DiffusionParams)> = None;
    // Candidate intervals scale with the run length (the paper's tuned
    // values are for 6,000-step runs); the border width must cover the
    // drift accumulated between invocations, so it is tied to the
    // interval × stride.
    // Interval candidates span the practical co-tuning range (the paper's
    // 6,000-step runs → F ∈ {5, 10, 20, 50}); balancing every other step
    // is outside what an MPI implementation would realistically sweep.
    let steps = cfg.steps;
    let mut intervals: Vec<u32> = [steps / 1200, steps / 600, steps / 300, steps / 120]
        .iter()
        .map(|&i| (i.max(1)) as u32)
        .collect();
    intervals.dedup();
    for &interval in &intervals {
        for &w_per_step in &[1usize, 2, 4, 8, 12] {
            let params = DiffusionParams {
                interval,
                tau: (cfg.n / cfg.cores as u64 / 20).max(1),
                border_w: w_per_step * interval as usize * (2 * cfg.k as usize + 1),
            };
            let out = model_diffusion(cfg, params);
            if best.as_ref().is_none_or(|(b, _)| out.seconds < b.seconds) {
                best = Some((out, params));
            }
        }
    }
    best.unwrap()
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
}
