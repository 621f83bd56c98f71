//! Functional threaded AMPI execution.
//!
//! Each `pic-comm` rank plays one physical core driving its assigned VPs.
//! The VP→core assignment table is replicated: load-balancing decisions are
//! computed from an allgathered VP-load vector by the *same* deterministic
//! strategy on every core, so no broadcast of the decision is needed —
//! exactly like deterministic replicated decision-making in runtime
//! systems. VP migration is a particle hand-off: the receiving core
//! re-derives VP membership from particle positions.
//!
//! The run is fully verified (analytic trajectories + id checksum), which
//! is the point of the PRK: a lost particle in any migration or exchange
//! fails the run.

use crate::model::AmpiParams;
use crate::vp::VpGrid;
use pic_cluster::balancer::{AdaptiveLb, BalanceInput, Layout, LoadBalancer, VpLb};
use pic_comm::collective::{allgatherv, allreduce_u64, decode_u64s_into, encode_u64s};
use pic_comm::comm::{Communicator, ReduceOp};
use pic_core::bin::BinnedStore;
use pic_core::particle::Particle;
use pic_par::exchange::{route_binned_with, ExchangeBuffers};
use pic_par::runner::{
    snapshot_loads, trace_interval, verify_store, EventLedger, ExchangeMode, ParConfig, ParOutcome,
};
use pic_trace::{Counter, Phase, Tracer};

/// Run the AMPI-style implementation on this core. All ranks must call it
/// with identical `cfg` and `params`.
pub fn run_ampi(comm: &Communicator, cfg: &ParConfig, params: &AmpiParams) -> ParOutcome {
    run_ampi_traced(comm, cfg, params, &mut Tracer::disabled())
}

/// [`run_ampi`] with telemetry: per-step phase timing, migration counts,
/// per-rank load snapshots at the agreed sampling interval, and a `"cuts"`
/// record (axis `'v'`) for every VP-reassignment decision — old
/// assignment, the per-VP counts the balancer saw, new assignment.
pub fn run_ampi_traced(
    comm: &Communicator,
    cfg: &ParConfig,
    params: &AmpiParams,
    tracer: &mut Tracer,
) -> ParOutcome {
    assert!(params.interval > 0, "LB interval must be positive");
    let mut lb = VpLb::new(params.interval as u64, params.balancer);
    run_ampi_lb(comm, cfg, params.d, &mut lb, tracer)
}

/// Run the AMPI runtime under the online adaptive balancer: the VP-family
/// escalation ladder (keep → refine → greedy) switched on measured
/// imbalance, every switch recorded as a `"switch"` trace event (pass
/// [`Tracer::disabled`] to run untraced).
pub fn run_ampi_adaptive_traced(
    comm: &Communicator,
    cfg: &ParConfig,
    d: usize,
    interval: u32,
    tracer: &mut Tracer,
) -> ParOutcome {
    assert!(interval > 0, "LB interval must be positive");
    let mut lb = AdaptiveLb::vp_arms(interval as u64);
    run_ampi_lb(comm, cfg, d, &mut lb, tracer)
}

/// The shared AMPI rank loop, generic over the [`LoadBalancer`] driving
/// VP reassignment. The assignment table is replicated, and the balancer
/// decides from the allgathered per-VP load vector — identically on every
/// core — so no decision broadcast is needed.
fn run_ampi_lb(
    comm: &Communicator,
    cfg: &ParConfig,
    d: usize,
    lb: &mut dyn LoadBalancer,
    tracer: &mut Tracer,
) -> ParOutcome {
    let grid = cfg.setup.grid;
    let consts = cfg.setup.consts;
    let cores = comm.size();
    let me = comm.rank();
    let vps = VpGrid::new(grid.ncells(), cores, d);
    let mut assignment = vps.initial_assignment();

    // Local population: particles whose VP is initially assigned to me.
    // VP ownership is not column-contiguous, so the store bins the
    // whole grid (forces come from the mesh-charge formula — the whole
    // mesh is replicated knowledge, eq. 3).
    let locals: Vec<Particle> = cfg
        .setup
        .particles
        .iter()
        .filter(|p| {
            let (c, r) = grid.cell_of_point(p.x, p.y);
            assignment[vps.vp_of_cell(c, r)] == me
        })
        .copied()
        .collect();
    let mut store = cfg.kernel.build_store(locals, &grid, (0, grid.ncells()));
    let mut bufs = ExchangeBuffers::new();
    if cfg.kernel.exchange == ExchangeMode::OverlappedSparse {
        // VP routing can target any core, so the declared neighborhood is
        // all-pairs: the escape path never fires, but empty payloads are
        // still elided (sparse wins whenever traffic is, in fact, sparse).
        bufs.enable_sparse(cores, me, 0..cores);
    }

    let mut ledger = EventLedger::new(&cfg.setup);

    let every = trace_interval(comm, tracer);
    tracer.emit_run_header(
        "ampi",
        cores,
        cfg.setup.particles.len() as u64,
        cfg.steps as u64,
        &store.kernel_desc(),
        lb.name(),
    );
    let mut sent_window = 0u64;
    let mut global_count = cfg.setup.particles.len() as u64;

    for s in 1..=cfg.steps {
        tracer.begin_step(s as u64);
        // Events due at the start of this step (0-based index `s - 1`).
        ledger.apply_due(comm, s - 1, &mut store, |c, r| {
            assignment[vps.vp_of_cell(c, r)] == me
        });

        // Advance each VP's particles (one pass — VP membership only
        // matters for routing and accounting).
        let rebins_before = store.rebin_count();
        tracer.phase_start(Phase::Advance);
        store.sweep_local(&grid, &consts);
        tracer.phase_end(Phase::Advance);
        tracer.phase_start(Phase::Exchange);
        // No timer rebin: the route drains every column every step, so no
        // order survives to be read; the sweep re-sorts a dirty store.
        let (sent, _received) =
            route_store(comm, me, &grid, &vps, &assignment, &mut store, &mut bufs);
        tracer.add(Counter::Rebins, store.rebin_count() - rebins_before);
        tracer.phase_end(Phase::Exchange);
        sent_window += sent as u64;

        // Runtime load balancing (never on the final step, matching the
        // historical cadence).
        if lb.wants(s as u64) && s < cfg.steps {
            tracer.phase_start(Phase::Balance);
            sent_window += rebalance(
                comm,
                &vps,
                &mut assignment,
                s as u64,
                lb,
                &mut store,
                &mut bufs,
                me,
                &grid,
                tracer,
            ) as u64;
            tracer.phase_end(Phase::Balance);
        }

        if every > 0 && (s as u64).is_multiple_of(every) {
            let msgs = bufs.take_message_counts();
            global_count = snapshot_loads(comm, tracer, store.len() as u64, sent_window, msgs);
            sent_window = 0;
        }
        tracer.end_step(global_count);
    }

    tracer.phase_start(Phase::Verify);
    let verify = verify_store(comm, &grid, &store, cfg.steps, ledger.expected_id_sum());
    tracer.phase_end(Phase::Verify);
    let local_count = store.len() as u64;
    let max_count = allreduce_u64(comm, local_count, ReduceOp::Max);
    let total_count = allreduce_u64(comm, local_count, ReduceOp::Sum);
    tracer.set_final_particles(total_count);
    ParOutcome {
        verify,
        local_count: store.len(),
        max_count,
        total_count,
        steps: cfg.steps,
        kernel: store.kernel_desc(),
        local_particles: store.batch().to_particles(),
    }
}

/// Route mis-assigned particles to the core owning their VP (the store
/// drains leavers in place).
fn route_store(
    comm: &Communicator,
    me: usize,
    grid: &pic_core::geometry::Grid,
    vps: &VpGrid,
    assignment: &[usize],
    store: &mut BinnedStore,
    bufs: &mut ExchangeBuffers,
) -> (usize, usize) {
    let owner = |c, r| assignment[vps.vp_of_cell(c, r)];
    route_binned_with(comm, me, owner, store, grid, bufs)
}

/// One LB round: allgather per-VP loads, let the balancer decide
/// deterministically on every core, migrate the particles of reassigned
/// VPs. Returns the number of particles this core sent during the
/// migration.
#[allow(clippy::too_many_arguments)]
fn rebalance(
    comm: &Communicator,
    vps: &VpGrid,
    assignment: &mut Vec<usize>,
    step: u64,
    lb: &mut dyn LoadBalancer,
    store: &mut BinnedStore,
    bufs: &mut ExchangeBuffers,
    me: usize,
    grid: &pic_core::geometry::Grid,
    tracer: &mut Tracer,
) -> usize {
    let nvps = vps.vp_count();
    // Local per-VP counts (VPs are 2D tiles, so this is a position scan,
    // not a column-histogram read).
    let mut counts = vec![0u64; nvps];
    let batch = store.batch();
    for i in 0..batch.len() {
        let (c, r) = grid.cell_of_point(batch.x[i], batch.y[i]);
        counts[vps.vp_of_cell(c, r)] += 1;
    }
    // Sum across cores (each VP lives on exactly one core, but the vector
    // sum is the simplest way to assemble the global view).
    let gathered = allgatherv(comm, encode_u64s(&counts));
    tracer.add(Counter::CollectiveBytes, counts.len() as u64 * 8);
    let mut global = vec![0u64; nvps];
    let mut scratch = Vec::with_capacity(nvps);
    for buf in &gathered {
        decode_u64s_into(buf, &mut scratch);
        for (slot, v) in global.iter_mut().zip(&scratch) {
            *slot += v;
        }
    }
    let decision = {
        let layout = Layout {
            ncells: grid.ncells(),
            ranks: comm.size(),
            xcuts: &[],
            ycuts: &[],
            vp_assignment: assignment,
        };
        let input = BalanceInput {
            step,
            col_hist: &[],
            row_counts: &[],
            vp_counts: &global,
        };
        lb.decide(&input, &layout)
    };
    if let Some(sw) = &decision.switched {
        tracer.record_switch(sw.from, sw.to, sw.imbalance);
    }
    if let Some(vp) = decision.vps {
        // The VP-assignment analogue of a cut decision: old table, the
        // per-VP counts the balancer saw, new table.
        tracer.record_cuts('v', assignment, &vp.counts, &vp.assignment);
        *assignment = vp.assignment;
    }
    // Migrate: particles whose VP moved away get routed to the new owner.
    let (sent, _received) = route_store(comm, me, grid, vps, assignment, store, bufs);
    sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Balancer;
    use pic_comm::world::run_threads;
    use pic_core::dist::Distribution;
    use pic_core::events::{Event, Region};
    use pic_core::geometry::Grid;
    use pic_core::init::InitConfig;
    use pic_core::verify::triangular_id_sum;

    fn cfg(n: u64, dist: Distribution, steps: u32) -> ParConfig {
        ParConfig::new(
            InitConfig::new(Grid::new(32).unwrap(), n, dist)
                .with_m(1)
                .build()
                .unwrap(),
            steps,
        )
    }

    fn params(d: usize, interval: u32) -> AmpiParams {
        AmpiParams {
            d,
            interval,
            balancer: Balancer::paper_default(),
        }
    }

    #[test]
    fn verified_run_with_migration() {
        let c = cfg(500, Distribution::Geometric { r: 0.85 }, 60);
        let p = params(4, 5);
        let outcomes = run_threads(4, |comm| run_ampi(&comm, &c, &p));
        for o in &outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
            assert_eq!(o.total_count, 500);
            assert_eq!(o.verify.id_sum, triangular_id_sum(500));
        }
    }

    #[test]
    fn migration_reduces_max_count() {
        let c = cfg(2000, Distribution::Geometric { r: 0.8 }, 30);
        let none = run_threads(4, |comm| {
            run_ampi(
                &comm,
                &c,
                &AmpiParams {
                    d: 4,
                    interval: 5,
                    balancer: Balancer::None,
                },
            )
        });
        let refine = run_threads(4, |comm| run_ampi(&comm, &c, &params(4, 5)));
        assert!(none[0].verify.passed());
        assert!(refine[0].verify.passed());
        assert!(
            refine[0].max_count < none[0].max_count,
            "refine {} must beat none {}",
            refine[0].max_count,
            none[0].max_count
        );
    }

    #[test]
    fn greedy_strategy_also_verifies() {
        let c = cfg(600, Distribution::Sinusoidal, 24);
        let p = AmpiParams {
            d: 8,
            interval: 4,
            balancer: Balancer::Greedy,
        };
        let outcomes = run_threads(2, |comm| run_ampi(&comm, &c, &p));
        for o in outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
        }
    }

    #[test]
    fn events_work_under_virtualization() {
        let region = Region {
            x0: 8,
            x1: 24,
            y0: 8,
            y1: 24,
        };
        let mut c = cfg(300, Distribution::Uniform, 40);
        c.setup = c
            .setup
            .with_event(Event::inject(8, region, 80, 0, 1, 1))
            .with_event(Event::remove(25, Region::whole(32), 50));
        let p = params(4, 6);
        let outcomes = run_threads(4, |comm| run_ampi(&comm, &c, &p));
        for o in &outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
            assert_eq!(o.total_count, 330);
        }
    }

    #[test]
    fn single_core_single_vp_trivial() {
        let c = cfg(100, Distribution::Uniform, 10);
        let p = params(1, 3);
        let outcomes = run_threads(1, |comm| run_ampi(&comm, &c, &p));
        assert!(outcomes[0].verify.passed());
        assert_eq!(outcomes[0].local_count, 100);
    }

    #[test]
    fn fast_particles_under_virtualization() {
        let c = ParConfig::new(
            InitConfig::new(Grid::new(32).unwrap(), 200, Distribution::Uniform)
                .with_k(3)
                .with_m(-2)
                .build()
                .unwrap(),
            30,
        );
        let p = params(4, 4);
        let outcomes = run_threads(4, |comm| run_ampi(&comm, &c, &p));
        for o in outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
        }
    }

    #[test]
    fn traced_run_emits_vp_reassignment_cuts() {
        let c = cfg(900, Distribution::Geometric { r: 0.8 }, 20);
        let p = params(4, 5);
        let results = run_threads(4, |comm| {
            let mut tracer = if comm.rank() == 0 {
                Tracer::in_memory(5)
            } else {
                Tracer::disabled()
            };
            let out = run_ampi_traced(&comm, &c, &p, &mut tracer);
            (out, tracer.finish())
        });
        for (out, _) in &results {
            assert!(out.verify.passed(), "{:?}", out.verify);
            assert_eq!(out.total_count, 900);
        }
        let report = results[0].1.as_ref().expect("rank 0 tracer enabled");
        // LB fires at steps 5, 10, 15 (never on the final step).
        assert_eq!(report.cuts.len(), 3);
        for cut in &report.cuts {
            assert_eq!(cut.axis, 'v');
            assert_eq!(cut.old.len(), 16, "one slot per VP (d * cores)");
            assert_eq!(cut.new.len(), 16);
            assert_eq!(cut.counts.iter().sum::<u64>(), 900);
            assert!(cut.new.iter().all(|&core| core < 4));
        }
        assert_eq!(report.summary.final_particles, 900);
        assert!(report.summary.max_imbalance.is_finite());
        // Skewed start under greedy VP placement must register migrations.
        let rehomed: u64 = report.steps.iter().map(|s| s.counters[0]).sum();
        assert!(rehomed > 0, "migration counter never moved");
    }

    #[test]
    fn adaptive_vp_run_verifies_and_switches() {
        // Geometric skew under the keep-everything arm sustains a high
        // per-core imbalance, so the adaptive ladder must escalate from
        // vp-none to vp-refine once its window fills.
        let c = cfg(1200, Distribution::Geometric { r: 0.85 }, 40);
        let results = run_threads(4, |comm| {
            let mut tracer = if comm.rank() == 0 {
                Tracer::in_memory(2)
            } else {
                Tracer::disabled()
            };
            let out = run_ampi_adaptive_traced(&comm, &c, 4, 4, &mut tracer);
            (out, tracer.finish())
        });
        for (out, _) in &results {
            assert!(out.verify.passed(), "{:?}", out.verify);
            assert_eq!(out.total_count, 1200);
        }
        let report = results[0].1.as_ref().expect("rank 0 traced");
        assert_eq!(report.summary.balancer, "adaptive");
        assert!(
            !report.switches.is_empty(),
            "sustained skew must escalate off the vp-none arm"
        );
        assert_eq!(report.switches[0].from, "vp-none");
        assert_eq!(report.switches[0].to, "vp-refine");
    }

    #[test]
    fn traced_run_matches_untraced() {
        let c = cfg(400, Distribution::PAPER_SKEW, 24);
        let p = params(2, 6);
        let plain = run_threads(4, |comm| run_ampi(&comm, &c, &p));
        let traced = run_threads(4, |comm| {
            let mut tracer = Tracer::in_memory(2);
            run_ampi_traced(&comm, &c, &p, &mut tracer)
        });
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.verify.id_sum, b.verify.id_sum);
            assert_eq!(a.total_count, b.total_count);
            assert_eq!(a.local_count, b.local_count);
            assert!(b.verify.passed(), "{:?}", b.verify);
        }
    }
}
