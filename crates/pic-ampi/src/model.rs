//! Modeled AMPI execution for the full-scale experiments.
//!
//! Per step, every VP's load is an O(1) query against the analytic load
//! model; per-core compute adds the VP scheduling overhead; per-VP neighbor
//! exchange is charged at the distance between the owning cores — so after
//! the balancer scatters VPs, formerly-interior traffic is charged at
//! remote rates, reproducing the fragmentation effect the paper describes.
//! Each LB invocation is charged the runtime's fixed cost (instrumentation
//! gather + centralized strategy) plus the migration volume.

use crate::vp::VpGrid;
use crate::Balancer;
use pic_cluster::bsp::BspSimulator;
use pic_cluster::loadmodel::ColumnLoadModel;
use pic_par::model_impl::{ModelConfig, ModelOutcome};

/// AMPI runtime parameters: the two knobs of the paper's Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmpiParams {
    /// Over-decomposition degree `d` (VPs per core).
    pub d: usize,
    /// Steps between load-balancer invocations (`F`).
    pub interval: u32,
    /// Strategy.
    pub balancer: Balancer,
}

impl AmpiParams {
    /// Figure 5's fixed points: `d = 4` for the F sweep, `F = 1000` for
    /// the d sweep.
    pub fn paper_default() -> AmpiParams {
        AmpiParams {
            d: 4,
            interval: 160,
            balancer: Balancer::paper_default(),
        }
    }
}

/// Modeled AMPI run.
pub fn model_ampi(cfg: &ModelConfig, params: &AmpiParams) -> ModelOutcome {
    assert!(params.interval > 0);
    let grid = VpGrid::new(cfg.ncells, cfg.cores, params.d);
    let nvps = grid.vp_count();
    let mut assignment = grid.initial_assignment();
    let mut load = ColumnLoadModel::new(cfg.dist, cfg.ncells, cfg.n, cfg.k, cfg.dir);
    let mut bsp = BspSimulator::new(cfg.machine, cfg.cost, cfg.cores);

    // Cached per-VP geometry.
    let vp_bounds: Vec<((usize, usize), (usize, usize))> =
        (0..nvps).map(|vp| grid.decomp().bounds(vp)).collect();
    let vp_cells: Vec<f64> = (0..nvps).map(|vp| grid.vp_cells(vp) as f64).collect();
    // Downstream x-neighbor of each VP (same VP row).
    let vpx = grid.decomp().px;
    let rightward = cfg.dir >= 0;
    let x_neighbor: Vec<usize> = (0..nvps)
        .map(|vp| {
            let (vx, vy) = grid.decomp().coords_of(vp);
            let nx = if rightward {
                (vx + 1) % vpx
            } else {
                (vx + vpx - 1) % vpx
            };
            grid.decomp().rank_of(nx, vy)
        })
        .collect();

    let mut vp_loads = vec![0.0f64; nvps];
    let mut compute = vec![0.0f64; cfg.cores];
    let mut comm = vec![0.0f64; cfg.cores];

    for s in 1..=cfg.steps {
        compute.iter_mut().for_each(|v| *v = 0.0);
        comm.iter_mut().for_each(|v| *v = 0.0);
        for vp in 0..nvps {
            let (cols, rows) = vp_bounds[vp];
            let count = load.count_in_rect(cols, rows);
            let core = assignment[vp];
            // Measured VP load includes the core's speed perturbation —
            // runtime balancers instrument wall time, so (unlike the
            // count-based diffusion scheme) they see and compensate for
            // system non-uniformity.
            vp_loads[vp] = count * cfg.cost.particle_ns * cfg.noise.factor(core, s);
            compute[core] += vp_loads[vp] + cfg.cost.vp_sched_ns;
            // Neighbor exchange: leavers cross the VP's downstream cut.
            let cut = if rightward {
                grid.decomp().xcuts[grid.decomp().coords_of(vp).0 + 1] % cfg.ncells
            } else {
                grid.decomp().xcuts[grid.decomp().coords_of(vp).0]
            };
            let frac = if load.total() == 0 {
                0.0
            } else {
                load.count_in_rect((0, cfg.ncells), rows) / load.total() as f64
            };
            let sent = load.crossing_cut(cut) as f64 * frac;
            let dest_core = assignment[x_neighbor[vp]];
            let dist = cfg.machine.distance(core, dest_core);
            // Transport plus the virtualized runtime's per-message
            // scheduling overhead (every VP message is routed through the
            // scheduler even between co-located VPs).
            let ns = cfg.cost.particle_msg_ns(dist, sent) + cfg.cost.ampi_msg_overhead_ns;
            comm[core] += ns;
            comm[dest_core] += ns;
        }
        bsp.step(&compute, &comm);
        load.advance(1);

        if s % params.interval as u64 == 0 && s < cfg.steps {
            let new_assignment = params.balancer.rebalance(&vp_loads, &assignment, cfg.cores);
            // Migration: per-core send+receive volume; the phase ends when
            // the busiest core finishes.
            let mut per_core_ns = vec![0.0f64; cfg.cores];
            let mut bytes = 0.0f64;
            for vp in 0..nvps {
                let (from, to) = (assignment[vp], new_assignment[vp]);
                if from == to {
                    continue;
                }
                let (cols, rows) = vp_bounds[vp];
                let parts = load.count_in_rect(cols, rows);
                let dist = cfg.machine.distance(from, to);
                let ns = cfg.cost.migration_ns(dist, vp_cells[vp], parts);
                per_core_ns[from] += ns;
                per_core_ns[to] += ns;
                bytes += vp_cells[vp] * cfg.cost.cell_bytes + parts * cfg.cost.particle_bytes;
            }
            let max_migration = per_core_ns.iter().cloned().fold(0.0f64, f64::max);
            let lb_ns = cfg.cost.ampi_lb_invocation_ns(cfg.cores, nvps) + max_migration;
            bsp.lb_phase(lb_ns, bytes);
            assignment = new_assignment;
        }
    }

    // End-state max particles per core.
    let mut per_core_particles = vec![0.0f64; cfg.cores];
    for vp in 0..nvps {
        let (cols, rows) = vp_bounds[vp];
        per_core_particles[assignment[vp]] += load.count_in_rect(cols, rows);
    }
    let max_particles_end = per_core_particles.iter().cloned().fold(0.0f64, f64::max);

    // Fragmentation: how many VP neighbor channels now cross nodes.
    let mut remote_pairs = 0usize;
    for vp in 0..nvps {
        let a = assignment[vp];
        let b = assignment[x_neighbor[vp]];
        if cfg.machine.distance(a, b) == pic_cluster::machine::Distance::Remote {
            remote_pairs += 1;
        }
    }

    let stats = bsp.stats();
    ModelOutcome {
        stats,
        seconds: stats.seconds,
        max_particles_end,
        ideal_particles: cfg.n as f64 / cfg.cores as f64,
        remote_neighbor_frac: remote_pairs as f64 / nvps as f64,
    }
}

/// Sweep `d` and `F` jointly and keep the best, mirroring the paper's
/// per-point tuning.
pub fn model_ampi_tuned(cfg: &ModelConfig) -> (ModelOutcome, AmpiParams) {
    let mut best: Option<(ModelOutcome, AmpiParams)> = None;
    // Interval candidates scale with the run length (the paper's
    // best-performing F ≈ 160–1,000 for 6,000-step runs).
    let steps = cfg.steps;
    let mut intervals: Vec<u32> = [steps / 40, steps / 10, steps / 6]
        .iter()
        .map(|&i| (i.max(1)) as u32)
        .collect();
    intervals.dedup();
    for &d in &[4usize, 16] {
        for &interval in &intervals {
            let params = AmpiParams {
                d,
                interval,
                balancer: Balancer::paper_default(),
            };
            let out = model_ampi(cfg, &params);
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
    use pic_cluster::cost::CostModel;
    use pic_cluster::machine::MachineModel;
    use pic_core::dist::Distribution;
    use pic_par::model_impl::model_baseline;

    // Large enough that compute dominates the (paper-scale-calibrated)
    // fixed LB invocation cost, as in the real experiments.
    fn small_cfg(cores: usize) -> ModelConfig {
        ModelConfig {
            ncells: 256,
            n: 2_560_000,
            steps: 400,
            dist: Distribution::Geometric { r: 0.98 },
            k: 0,
            dir: 1,
            cores,
            machine: MachineModel::edison(cores),
            cost: CostModel::edison_like(),
            noise: pic_cluster::noise::NoiseModel::None,
        }
    }

    #[test]
    fn ampi_beats_baseline_on_skew() {
        let cfg = small_cfg(16);
        let base = model_baseline(&cfg);
        let params = AmpiParams {
            d: 8,
            interval: 40,
            balancer: Balancer::paper_default(),
        };
        let ampi = model_ampi(&cfg, &params);
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
        let cfg = small_cfg(8);
        let base = model_baseline(&cfg);
        let params = AmpiParams {
            d: 4,
            interval: 100,
            balancer: Balancer::None,
        };
        let ampi = model_ampi(&cfg, &params);
        // Over-decomposition without balancing only adds overhead.
        assert!(ampi.seconds >= base.seconds * 0.95);
        assert!((ampi.stats.imbalance - base.stats.imbalance).abs() < 0.5);
    }

    #[test]
    fn too_frequent_lb_hurts() {
        // The Figure 5 effect: F too small → invocation overhead dominates.
        let cfg = small_cfg(16);
        let mk = |interval| {
            model_ampi(
                &cfg,
                &AmpiParams {
                    d: 4,
                    interval,
                    balancer: Balancer::paper_default(),
                },
            )
            .seconds
        };
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
        let cfg = small_cfg(16);
        let mk = |d| {
            model_ampi(
                &cfg,
                &AmpiParams {
                    d,
                    interval: 50,
                    balancer: Balancer::paper_default(),
                },
            )
        };
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
        let cfg = small_cfg(8);
        let params = AmpiParams {
            d: 1,
            interval: 50,
            balancer: Balancer::paper_default(),
        };
        let out = model_ampi(&cfg, &params);
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
        use pic_cluster::noise::NoiseModel;
        use pic_par::diffusion::DiffusionParams;
        use pic_par::model_impl::{model_baseline, model_diffusion};
        let mut cfg = small_cfg(16);
        cfg.dist = pic_core::dist::Distribution::Uniform;
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
        let ampi = model_ampi(
            &cfg,
            &AmpiParams {
                d: 8,
                interval: 40,
                balancer: Balancer::paper_default(),
            },
        );
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
        // locality-oblivious balancing rounds many cross node boundaries.
        let cfg = small_cfg(48); // 2 nodes on the Edison layout
        let before = model_ampi(
            &cfg,
            &AmpiParams {
                d: 8,
                interval: 40,
                balancer: Balancer::None,
            },
        );
        let after = model_ampi(
            &cfg,
            &AmpiParams {
                d: 8,
                interval: 40,
                balancer: Balancer::Greedy,
            },
        );
        assert!(
            before.remote_neighbor_frac < 0.2,
            "compact placement should be mostly local: {}",
            before.remote_neighbor_frac
        );
        assert!(
            after.remote_neighbor_frac > 2.0 * before.remote_neighbor_frac,
            "greedy scattering must fragment: {} vs {}",
            after.remote_neighbor_frac,
            before.remote_neighbor_frac
        );
    }

    #[test]
    fn greedy_and_refine_both_balance() {
        let cfg = small_cfg(8);
        let refine = model_ampi(
            &cfg,
            &AmpiParams {
                d: 8,
                interval: 40,
                balancer: Balancer::paper_default(),
            },
        );
        let greedy = model_ampi(
            &cfg,
            &AmpiParams {
                d: 8,
                interval: 40,
                balancer: Balancer::Greedy,
            },
        );
        assert!(refine.stats.imbalance < 1.6);
        assert!(greedy.stats.imbalance < 1.6);
        // Both strategies actually move data.
        assert!(greedy.stats.migrated_bytes > 0.0);
        assert!(refine.stats.migrated_bytes > 0.0);
    }
}
