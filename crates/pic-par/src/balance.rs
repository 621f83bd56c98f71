//! The trait-driven rank loop: one runner for every cut-family
//! [`LoadBalancer`].
//!
//! The baseline (`StaticLb`, paper §IV-A `mpi-2d`), diffusion
//! (`DiffusionLb`, §IV-B `mpi-2d-LB`), and adaptive (`AdaptiveLb`)
//! implementations are selected by [`BalancerSpec`] through
//! [`run_config`] and all execute through one private rank loop: the
//! runner owns the collectives (gathering exactly the load arrays the
//! strategy's [`pic_cluster::BalanceNeeds`] requests, in a fixed order)
//! and the application of the returned [`pic_cluster::BalanceDecision`];
//! the strategy itself is a pure replicated function. Decisions are
//! derived only from allreduced data, so every rank computes the same
//! cuts — and, for the adaptive balancer, the same strategy switches —
//! without any decision broadcast.

use crate::decomp::Decomp2d;
use crate::diffusion::{DiffusionMode, DiffusionParams};
use crate::runner::{snapshot_loads, trace_interval, ParConfig, ParOutcome, RankState};
use pic_cluster::balancer::{
    AdaptiveLb, Axes, BalanceInput, DiffusionLb, Layout, LoadBalancer, StaticLb,
};
use pic_comm::comm::Communicator;
use pic_trace::{Counter, Phase, Tracer};

/// Which balancer a [`ParConfig`] run uses; resolved by [`run_config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BalancerSpec {
    /// Static decomposition, never rebalance (the `mpi-2d` baseline).
    #[default]
    Static,
    /// Cut diffusion with fixed parameters (the `mpi-2d-LB` scheme).
    Diffusion {
        params: DiffusionParams,
        mode: DiffusionMode,
    },
    /// Online adaptive switching over the static → diffusion ladder.
    Adaptive {
        params: DiffusionParams,
        mode: DiffusionMode,
    },
}

impl BalancerSpec {
    /// The strategy name as recorded in trace run headers.
    pub fn name(&self) -> &'static str {
        match self {
            BalancerSpec::Static => "static",
            BalancerSpec::Diffusion { .. } => "diffusion",
            BalancerSpec::Adaptive { .. } => "adaptive",
        }
    }
}

fn axes_of(mode: DiffusionMode) -> Axes {
    match mode {
        DiffusionMode::XOnly => Axes::X,
        DiffusionMode::YOnly => Axes::Y,
        DiffusionMode::TwoPhase => Axes::XY,
    }
}

/// Run this rank's loop under `cfg.balancer`. All ranks must call with an
/// identical `cfg`.
pub fn run_config(comm: &Communicator, cfg: &ParConfig) -> ParOutcome {
    run_config_traced(comm, cfg, &mut Tracer::disabled())
}

/// [`run_config`] with telemetry: builds the [`LoadBalancer`] that
/// [`ParConfig::balancer`] names and runs it through the trait-driven
/// rank loop, keeping the historical `impl` names
/// (`baseline` / `diffusion` / `adaptive`) in the trace header. Every rank
/// passes its own tracer (typically enabled on rank 0 only); the
/// collective telemetry steps are agreed via [`trace_interval`], so all
/// ranks stay in lockstep regardless of which one records. Panics (in the
/// balancer constructors) on a zero `interval` or `border_w`.
pub fn run_config_traced(comm: &Communicator, cfg: &ParConfig, tracer: &mut Tracer) -> ParOutcome {
    match cfg.balancer {
        // `StaticLb::wants` is always false, so no balance phase ever
        // opens: the static 2D block decomposition of the paper's baseline.
        BalancerSpec::Static => run_balanced_traced(comm, cfg, "baseline", &mut StaticLb, tracer),
        BalancerSpec::Diffusion { params, mode } => {
            let mut lb = DiffusionLb::new(
                params.interval as u64,
                params.tau,
                params.border_w,
                axes_of(mode),
            );
            run_balanced_traced(comm, cfg, "diffusion", &mut lb, tracer)
        }
        // The cut-family ladder (static → diffusion → wide diffusion);
        // every strategy switch is emitted as a `"switch"` trace record.
        BalancerSpec::Adaptive { params, mode } => {
            let mut lb = AdaptiveLb::cut_arms(
                params.interval as u64,
                params.tau,
                params.border_w,
                axes_of(mode),
            );
            run_balanced_traced(comm, cfg, "adaptive", &mut lb, tracer)
        }
    }
}

/// The generic trait-driven rank loop: advance + exchange every step,
/// and whenever `balancer.wants(step)` (except the final step, matching
/// the historical cadence) gather the requested load arrays, call
/// `balancer.decide`, and apply the returned decision.
fn run_balanced_traced(
    comm: &Communicator,
    cfg: &ParConfig,
    impl_name: &str,
    balancer: &mut dyn LoadBalancer,
    tracer: &mut Tracer,
) -> ParOutcome {
    let decomp = Decomp2d::uniform(cfg.setup.grid.ncells(), comm.size());
    let mut st = RankState::with_kernel(&cfg.setup, decomp, comm.rank(), cfg.kernel);
    let every = trace_interval(comm, tracer);
    tracer.emit_run_header(
        impl_name,
        comm.size(),
        cfg.setup.particles.len() as u64,
        cfg.steps as u64,
        &st.kernel_desc(),
        balancer.name(),
    );
    let mut sent_window = 0u64;
    let mut global_count = cfg.setup.particles.len() as u64;
    for s in 1..=cfg.steps {
        tracer.begin_step(s as u64);
        sent_window += st.step_traced(comm, tracer) as u64;
        if balancer.wants(s as u64) && s < cfg.steps {
            tracer.phase_start(Phase::Balance);
            sent_window += lb_round(comm, &mut st, s as u64, balancer, tracer) as u64;
            tracer.phase_end(Phase::Balance);
        }
        if every > 0 && (s as u64).is_multiple_of(every) {
            let msgs = st.take_message_counts();
            global_count = snapshot_loads(comm, tracer, st.local_count() as u64, sent_window, msgs);
            sent_window = 0;
        }
        tracer.end_step(global_count);
    }
    let out = st.finish_traced(comm, tracer);
    tracer.set_final_particles(out.total_count);
    out
}

/// One balance round: gather what the strategy needs (fixed order —
/// column histogram, then row counts — so collective traffic is
/// identical on every rank), decide, apply cut moves, and rehome border
/// residents. Returns the number of particles this rank sent.
fn lb_round(
    comm: &Communicator,
    st: &mut RankState,
    step: u64,
    balancer: &mut dyn LoadBalancer,
    tracer: &mut Tracer,
) -> usize {
    let needs = balancer.needs();
    let mut hist_scratch = Vec::new();
    let hist: Vec<u64> = if needs.col_hist {
        // One vector allreduce; each rank's contribution comes straight
        // from its own store (O(columns) when the binned store is fresh).
        let h = st.aggregate_column_histogram(comm, &mut hist_scratch);
        tracer.add(Counter::CollectiveBytes, h.len() as u64 * 8);
        h
    } else {
        Vec::new()
    };
    let mut row_counts = Vec::new();
    if needs.row_counts {
        st.aggregate_axis_counts_into(comm, false, &mut row_counts);
        tracer.add(Counter::CollectiveBytes, row_counts.len() as u64 * 8);
    }

    let decision = {
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
            row_counts: &row_counts,
            vp_counts: &[],
        };
        balancer.decide(&input, &layout)
    };

    if let Some(sw) = &decision.switched {
        tracer.record_switch(sw.from, sw.to, sw.imbalance);
    }
    for mv in &decision.cuts {
        let old = match mv.axis {
            'x' => st.decomp.xcuts.clone(),
            _ => st.decomp.ycuts.clone(),
        };
        tracer.record_cuts(mv.axis, &old, &mv.counts, &mv.new_cuts);
        if mv.new_cuts != old {
            tracer.add(
                Counter::BorderCells,
                handed_over_cells(&old, &mv.new_cuts, st.decomp.ncells),
            );
            match mv.axis {
                'x' => st.decomp.set_xcuts(mv.new_cuts.clone()),
                _ => st.decomp.set_ycuts(mv.new_cuts.clone()),
            }
        }
    }
    debug_assert!(st.decomp.is_partition());
    // Rehome particles under the new ownership map (border-cell residents
    // migrate to the adjacent ranks), through the rank's reused buffers.
    let (sent, _received) = st.rehome(comm);
    // Every surviving particle is now inside the new bounds, so a binned
    // store can re-anchor its column range to the moved cuts.
    st.rebind_store();
    sent
}

/// Mesh cells handed over by a cut movement: Σ |new − old| per interior
/// cut, times the `ncells` extent of the perpendicular axis. Exact and
/// replicated on every rank, because the decision itself is.
pub(crate) fn handed_over_cells(old: &[usize], new: &[usize], ncells: usize) -> u64 {
    old.iter()
        .zip(new)
        .map(|(&o, &n)| o.abs_diff(n) as u64)
        .sum::<u64>()
        * ncells as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_comm::world::run_threads;
    use pic_core::dist::Distribution;
    use pic_core::events::{Event, Region};
    use pic_core::geometry::Grid;
    use pic_core::init::InitConfig;
    use pic_core::verify::triangular_id_sum;

    fn cfg(n: u64, dist: Distribution, steps: u32) -> ParConfig {
        cfg_km(n, dist, steps, 0, 1)
    }

    fn cfg_km(n: u64, dist: Distribution, steps: u32, k: u32, m: i32) -> ParConfig {
        ParConfig::new(
            InitConfig::new(Grid::new(32).unwrap(), n, dist)
                .with_k(k)
                .with_m(m)
                .build()
                .unwrap(),
            steps,
        )
    }

    #[test]
    fn adaptive_run_verifies_and_switches_on_skew() {
        // Geometric r=0.9 concentrates ~59% of the particles in the first
        // processor column (imbalance ≈ 2.36 ≫ hi = 1.4), so once the
        // 3-round window fills the adaptive balancer must escalate off
        // the static arm.
        let params = DiffusionParams {
            interval: 5,
            tau: 0,
            border_w: 2,
        };
        let c = cfg(2000, Distribution::Geometric { r: 0.9 }, 60).with_balancer(
            BalancerSpec::Adaptive {
                params,
                mode: DiffusionMode::XOnly,
            },
        );
        let outcomes = run_threads(4, |comm| {
            let mut tracer = if comm.rank() == 0 {
                Tracer::in_memory(2)
            } else {
                Tracer::disabled()
            };
            let o = run_config_traced(&comm, &c, &mut tracer);
            (o, tracer.finish())
        });
        for (o, _) in &outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
            assert_eq!(o.total_count, 2000);
        }
        let report = outcomes[0].1.as_ref().expect("rank 0 traced");
        assert!(
            !report.switches.is_empty(),
            "sustained skew must trigger at least one strategy switch"
        );
        assert_eq!(report.switches[0].from, "static");
        assert_eq!(report.switches[0].to, "diffusion");
        assert_eq!(report.summary.balancer, "adaptive");
        assert_eq!(report.summary.switches, report.switches.len() as u64);
        assert!(report.ndjson.contains("\"type\":\"switch\""));
    }

    #[test]
    fn run_config_dispatches_all_specs() {
        let c = cfg(600, Distribution::Geometric { r: 0.85 }, 30);
        let params = DiffusionParams {
            interval: 5,
            tau: 0,
            border_w: 2,
        };
        for spec in [
            BalancerSpec::Static,
            BalancerSpec::Diffusion {
                params,
                mode: DiffusionMode::XOnly,
            },
            BalancerSpec::Adaptive {
                params,
                mode: DiffusionMode::XOnly,
            },
        ] {
            let cc = c.clone().with_balancer(spec);
            let outcomes = run_threads(2, |comm| run_config(&comm, &cc));
            for o in &outcomes {
                assert!(o.verify.passed(), "{spec:?}: {:?}", o.verify);
                assert_eq!(o.total_count, 600);
            }
        }
    }

    // The static spec is the paper's `mpi-2d` baseline (§IV-A): "easy to
    // implement and ... efficient when the particle distribution remains
    // uniform ... if the particle distribution is skewed then load
    // imbalance arises and parallel performance suffers."

    #[test]
    fn static_verifies_on_various_world_sizes() {
        for p in [1usize, 2, 4, 6] {
            let c = cfg(400, Distribution::PAPER_SKEW, 64);
            let outcomes = run_threads(p, |comm| run_config(&comm, &c));
            for o in &outcomes {
                assert!(o.verify.passed(), "p={p}: {:?}", o.verify);
                assert_eq!(o.total_count, 400);
                assert_eq!(o.verify.id_sum, triangular_id_sum(400));
            }
            let local_total: usize = outcomes.iter().map(|o| o.local_count).sum();
            assert_eq!(local_total, 400);
        }
    }

    #[test]
    fn fast_particles_cross_many_ranks() {
        // Stride 9 on a 32-cell grid with 4 ranks: particles hop over a
        // whole rank column every step — exercises non-neighbor routing.
        let c = cfg_km(150, Distribution::Uniform, 40, 4, -2);
        let outcomes = run_threads(4, |comm| run_config(&comm, &c));
        for o in outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
        }
    }

    #[test]
    fn injection_and_removal_during_parallel_run() {
        let region = Region {
            x0: 8,
            x1: 24,
            y0: 8,
            y1: 24,
        };
        let mut c = cfg(200, Distribution::Uniform, 50);
        c.setup = c
            .setup
            .with_event(Event::inject(10, region, 60, 0, 1, 1))
            .with_event(Event::remove(30, Region::whole(32), 40));
        let outcomes = run_threads(4, |comm| run_config(&comm, &c));
        for o in &outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
            assert_eq!(o.total_count, 220);
        }
    }

    #[test]
    fn skewed_distribution_shows_imbalance() {
        // With a strong geometric skew and no balancing, the max-loaded
        // rank holds far more than the ideal share.
        let c = cfg_km(1000, Distribution::Geometric { r: 0.8 }, 8, 0, 0);
        let outcomes = run_threads(4, |comm| run_config(&comm, &c));
        let ideal = 1000 / 4;
        assert!(
            outcomes[0].max_count as usize > 3 * ideal / 2,
            "max {} should far exceed ideal {}",
            outcomes[0].max_count,
            ideal
        );
    }

    #[test]
    fn single_rank_matches_serial_engine() {
        use pic_core::engine::Simulation;
        let c = cfg_km(250, Distribution::Sinusoidal, 30, 1, 2);
        let serial = {
            let mut sim = Simulation::new(c.setup.clone());
            sim.run(30);
            let mut v: Vec<_> = sim.particles().to_vec();
            v.sort_by_key(|p| p.id);
            v
        };
        let outcomes = run_threads(1, |comm| run_config(&comm, &c));
        assert!(outcomes[0].verify.passed());
        assert_eq!(outcomes[0].total_count, 250);
        // Position agreement is implied by both verifying against the same
        // analytic trajectories; spot-check the serial run too.
        assert_eq!(serial.len(), 250);
    }
}
