//! Trait-conformance suite for the AMPI runtime: the VP balancing
//! strategies behind the [`LoadBalancer`] trait must reproduce the
//! pre-refactor run loop **bit-identically**.
//!
//! The `oracle` module is a frozen copy of `run_ampi_traced` exactly as it
//! existed before the balancer unification: the VP-count scan, the
//! allgather, the in-place `Balancer::rebalance` call, and the migration
//! routing. Each case runs the same configuration through the oracle and
//! the trait-driven runtime on every rank and demands equality of the
//! final particle sets, the id checksum, every `'v'` reassignment record,
//! and the deterministic per-step trace fields.

use pic_ampi::model::AmpiParams;
use pic_ampi::runtime::run_ampi_traced;
use pic_ampi::Balancer;
use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_par::runner::{ParConfig, ParOutcome};
use pic_trace::{Counter, TraceReport, Tracer};

/// Pre-refactor AMPI run loop, copied verbatim from the last commit before
/// the `LoadBalancer` trait existed. The only mechanical adaptation is the
/// run header's added `balancer` argument (the header string is not part
/// of the comparison; the structured records are).
mod oracle {
    use pic_ampi::model::AmpiParams;
    use pic_ampi::vp::VpGrid;
    use pic_ampi::Balancer;
    use pic_comm::collective::{
        allgatherv, allreduce_f64, allreduce_u128, allreduce_u64, decode_u64s, decode_u64s_into,
        encode_u64s,
    };
    use pic_comm::comm::{Communicator, ReduceOp};
    use pic_core::bin::BinnedStore;
    use pic_core::events::{Event, EventKind};
    use pic_core::init::build_injection;
    use pic_core::particle::Particle;
    use pic_core::verify::{verify_all, VerifyReport, DEFAULT_TOLERANCE};
    use pic_par::exchange::{route_binned_with, ExchangeBuffers};
    use pic_par::runner::{
        merge_failing_ids, snapshot_loads, trace_interval, ExchangeMode, ParConfig, ParOutcome,
    };
    use pic_trace::{Phase, Tracer};

    pub fn run_ampi_traced(
        comm: &Communicator,
        cfg: &ParConfig,
        params: &AmpiParams,
        tracer: &mut Tracer,
    ) -> ParOutcome {
        assert!(params.interval > 0, "LB interval must be positive");
        let grid = cfg.setup.grid;
        let consts = cfg.setup.consts;
        let cores = comm.size();
        let me = comm.rank();
        let vps = VpGrid::new(grid.ncells(), cores, params.d);
        let nvps = vps.vp_count();
        let mut assignment = vps.initial_assignment();

        let owner_of = |p: &Particle, vps: &VpGrid, assignment: &[usize]| -> usize {
            let (c, r) = p_cell(&grid, p);
            assignment[vps.vp_of_cell(c, r)]
        };

        let locals: Vec<Particle> = cfg
            .setup
            .particles
            .iter()
            .filter(|p| owner_of(p, &vps, &assignment) == me)
            .copied()
            .collect();
        let mut store = cfg.kernel.build_store(locals, &grid, (0, grid.ncells()));
        let mut bufs = ExchangeBuffers::new();
        if cfg.kernel.exchange == ExchangeMode::OverlappedSparse {
            bufs.enable_sparse(cores, me, 0..cores);
        }

        let mut events = cfg.setup.events.clone();
        events.sort_by_key(|e| e.at_step);
        let mut next_event = 0usize;
        let mut expected_id_sum = cfg.setup.initial_id_sum();
        let mut next_id = cfg.setup.next_id;

        let every = trace_interval(comm, tracer);
        tracer.emit_run_header(
            "ampi",
            cores,
            cfg.setup.particles.len() as u64,
            cfg.steps as u64,
            &store.kernel_desc(),
            "oracle",
        );
        let mut sent_window = 0u64;
        let mut global_count = cfg.setup.particles.len() as u64;

        for s in 1..=cfg.steps {
            let step_idx = s - 1;
            tracer.begin_step(s as u64);
            while next_event < events.len() && events[next_event].at_step == step_idx {
                let e: Event = events[next_event];
                next_event += 1;
                match e.kind {
                    EventKind::Inject { count, k, m, dir } => {
                        let newcomers = build_injection(
                            grid,
                            consts,
                            e.region,
                            count,
                            k,
                            m,
                            dir,
                            step_idx,
                            &mut next_id,
                        );
                        for p in &newcomers {
                            expected_id_sum += p.id as u128;
                            if owner_of(p, &vps, &assignment) == me {
                                store.push_tail(*p);
                            }
                        }
                    }
                    EventKind::Remove { count } => {
                        let batch = store.batch();
                        let mut local_ids: Vec<u64> = (0..batch.len())
                            .filter(|&i| e.region.contains_point(batch.x[i], batch.y[i]))
                            .map(|i| batch.id[i])
                            .collect();
                        local_ids.sort_unstable();
                        let gathered = allgatherv(comm, encode_u64s(&local_ids));
                        let mut all: Vec<u64> =
                            gathered.iter().flat_map(|b| decode_u64s(b)).collect();
                        all.sort_unstable();
                        all.truncate(count as usize);
                        let doomed: std::collections::HashSet<u64> = all.iter().copied().collect();
                        for &id in &all {
                            expected_id_sum -= id as u128;
                        }
                        store.remove_ids(&doomed);
                    }
                }
            }

            tracer.phase_start(Phase::Advance);
            store.sweep_local(&grid, &consts, None);
            tracer.phase_end(Phase::Advance);
            tracer.phase_start(Phase::Exchange);
            let (sent, _received) =
                route_store(comm, me, &grid, &vps, &assignment, &mut store, &mut bufs);
            if store.rebin_due() {
                store.rebin(&grid);
            }
            tracer.phase_end(Phase::Exchange);
            sent_window += sent as u64;

            if s % params.interval == 0 && s < cfg.steps {
                tracer.phase_start(Phase::Balance);
                sent_window += rebalance(
                    comm,
                    &vps,
                    &mut assignment,
                    params.balancer,
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

        let particles = store.to_particles();
        tracer.phase_start(Phase::Verify);
        let local = verify_all(&grid, &particles, cfg.steps, 0, DEFAULT_TOLERANCE);
        let checked = allreduce_u64(comm, local.checked, ReduceOp::Sum);
        let failures = allreduce_u64(comm, local.position_failures, ReduceOp::Sum);
        let max_error = allreduce_f64(comm, local.max_error, ReduceOp::Max);
        let id_sum = allreduce_u128(comm, local.id_sum, ReduceOp::Sum);
        let failing_ids = merge_failing_ids(comm, &local.failing_ids);
        tracer.phase_end(Phase::Verify);
        let local_count = particles.len() as u64;
        let max_count = allreduce_u64(comm, local_count, ReduceOp::Max);
        let total_count = allreduce_u64(comm, local_count, ReduceOp::Sum);
        tracer.set_final_particles(total_count);
        let _ = nvps;
        ParOutcome {
            verify: VerifyReport {
                checked,
                position_failures: failures,
                max_error,
                failing_ids,
                id_sum,
                expected_id_sum,
                tolerance: DEFAULT_TOLERANCE,
            },
            local_count: particles.len(),
            max_count,
            total_count,
            steps: cfg.steps,
            kernel: store.kernel_desc(),
            local_particles: particles,
        }
    }

    fn route_store(
        comm: &Communicator,
        me: usize,
        grid: &pic_core::geometry::Grid,
        vps: &VpGrid,
        assignment: &[usize],
        store: &mut BinnedStore,
        bufs: &mut ExchangeBuffers,
    ) -> (usize, usize) {
        route_binned_with(
            comm,
            me,
            |c, r| assignment[vps.vp_of_cell(c, r)],
            store,
            grid,
            bufs,
        )
    }

    #[inline]
    fn p_cell(grid: &pic_core::geometry::Grid, p: &Particle) -> (usize, usize) {
        grid.cell_of_point(p.x, p.y)
    }

    #[allow(clippy::too_many_arguments)]
    fn rebalance(
        comm: &Communicator,
        vps: &VpGrid,
        assignment: &mut Vec<usize>,
        balancer: Balancer,
        store: &mut BinnedStore,
        bufs: &mut ExchangeBuffers,
        me: usize,
        grid: &pic_core::geometry::Grid,
        tracer: &mut Tracer,
    ) -> usize {
        let nvps = vps.vp_count();
        let mut counts = vec![0u64; nvps];
        let batch = store.batch();
        for i in 0..batch.len() {
            let (c, r) = grid.cell_of_point(batch.x[i], batch.y[i]);
            counts[vps.vp_of_cell(c, r)] += 1;
        }
        let gathered = allgatherv(comm, encode_u64s(&counts));
        tracer.add(pic_trace::Counter::CollectiveBytes, counts.len() as u64 * 8);
        let mut global = vec![0u64; nvps];
        let mut scratch = Vec::with_capacity(nvps);
        for buf in &gathered {
            decode_u64s_into(buf, &mut scratch);
            for (slot, v) in global.iter_mut().zip(&scratch) {
                *slot += v;
            }
        }
        let loads: Vec<f64> = global.iter().map(|&c| c as f64).collect();
        let new_assignment = balancer.rebalance(&loads, assignment, comm.size());
        tracer.record_cuts('v', assignment, &global, &new_assignment);
        *assignment = new_assignment;
        let (sent, _received) = route_store(comm, me, grid, vps, assignment, store, bufs);
        sent
    }
}

fn cfg(n: u64, dist: Distribution, steps: u32) -> ParConfig {
    ParConfig::new(
        InitConfig::new(Grid::new(32).unwrap(), n, dist)
            .with_m(1)
            .build()
            .unwrap(),
        steps,
    )
}

fn assert_identical(
    label: &str,
    new: &[(ParOutcome, Option<TraceReport>)],
    old: &[(ParOutcome, Option<TraceReport>)],
) {
    assert_eq!(new.len(), old.len());
    for (rank, ((no, nr), (oo, or))) in new.iter().zip(old).enumerate() {
        assert!(no.verify.passed(), "{label} rank {rank}: {:?}", no.verify);
        assert_eq!(no.local_count, oo.local_count, "{label} rank {rank}");
        assert_eq!(no.max_count, oo.max_count, "{label} rank {rank}");
        assert_eq!(no.total_count, oo.total_count, "{label} rank {rank}");
        assert_eq!(no.verify.id_sum, oo.verify.id_sum, "{label} rank {rank}");
        let mut pn = no.local_particles.clone();
        let mut po = oo.local_particles.clone();
        pn.sort_by_key(|p| p.id);
        po.sort_by_key(|p| p.id);
        assert_eq!(pn, po, "{label} rank {rank}: particle sets differ");
        let (nr, or) = (nr.as_ref().expect(label), or.as_ref().expect(label));
        assert_eq!(nr.cuts, or.cuts, "{label} rank {rank}: VP reassignments");
        assert_eq!(nr.steps.len(), or.steps.len(), "{label} rank {rank}");
        for (sn, so) in nr.steps.iter().zip(&or.steps) {
            assert_eq!(sn.step, so.step, "{label} rank {rank}");
            assert_eq!(sn.particles, so.particles, "{label} rank {rank}");
            assert_eq!(sn.loads, so.loads, "{label} rank {rank} step {}", sn.step);
            assert_eq!(sn.stats, so.stats, "{label} rank {rank} step {}", sn.step);
            let mut cn = sn.counters;
            let mut co = so.counters;
            cn[Counter::OverlapNs.idx()] = 0;
            co[Counter::OverlapNs.idx()] = 0;
            assert_eq!(cn, co, "{label} rank {rank} step {} counters", sn.step);
        }
    }
}

#[test]
fn ampi_strategies_match_pre_refactor_loop() {
    for balancer in [Balancer::paper_default(), Balancer::Greedy, Balancer::None] {
        for ranks in [1usize, 2, 4] {
            let params = AmpiParams {
                d: 4,
                interval: 4,
                balancer,
            };
            let c = cfg(1200, Distribution::Geometric { r: 0.85 }, 24);
            let new = run_threads(ranks, |comm| {
                let mut t = Tracer::in_memory(1);
                let o = run_ampi_traced(&comm, &c, &params, &mut t);
                (o, t.finish())
            });
            let old = run_threads(ranks, |comm| {
                let mut t = Tracer::in_memory(1);
                let o = oracle::run_ampi_traced(&comm, &c, &params, &mut t);
                (o, t.finish())
            });
            assert_identical(&format!("ampi {balancer:?} ranks={ranks}"), &new, &old);
        }
    }
}

#[test]
fn ampi_adaptive_switch_sequence_is_replicated_on_every_rank() {
    let c = cfg(1200, Distribution::Geometric { r: 0.85 }, 40);
    let outcomes = run_threads(4, |comm| {
        let mut t = Tracer::in_memory(1);
        let o = pic_ampi::runtime::run_ampi_adaptive_traced(&comm, &c, 4, 4, &mut t);
        (o, t.finish())
    });
    let reference = outcomes[0]
        .1
        .as_ref()
        .expect("rank 0 traced")
        .switches
        .clone();
    assert!(
        !reference.is_empty(),
        "sustained geometric skew must trigger at least one VP-strategy switch"
    );
    for (rank, (o, report)) in outcomes.iter().enumerate() {
        assert!(o.verify.passed(), "rank {rank}: {:?}", o.verify);
        let report = report.as_ref().expect("all ranks traced");
        assert_eq!(
            report.switches, reference,
            "rank {rank} disagrees on the switch sequence"
        );
        assert_eq!(report.summary.balancer, "adaptive");
    }
}
