//! Trait-conformance suite: every strategy behind the [`LoadBalancer`]
//! trait must reproduce the pre-refactor runner loops **bit-identically**.
//!
//! The `oracle` module below is a frozen copy of the baseline and
//! diffusion run loops exactly as they existed before the balancers were
//! unified behind the trait (decision functions included — the hardened
//! library versions are exercised by the real runners on the other side
//! of the comparison). Each conformance case runs the same configuration
//! through both, on every rank, and demands equality of:
//!
//! * the final particle sets (sorted by id), the id checksum, and the
//!   per-rank / global counts;
//! * every cut decision the tracer recorded (step, axis, old cuts, the
//!   counts the decision saw, new cuts);
//! * the per-step trace records and the deterministic summary counters
//!   (everything except the timing fields and the timing-derived
//!   `overlap_ns` counter).
//!
//! The matrix covers the paper's skewed and uniform distributions, rank
//! counts {1, 2, 4}, balancing intervals {1, 5}, and both the x-only and
//! two-phase diffusion modes. A final case pins the adaptive balancer's
//! replicated determinism: all ranks must compute the identical switch
//! sequence without any extra collectives.

use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_par::diffusion::{DiffusionMode, DiffusionParams};
use pic_par::runner::{ParConfig, ParOutcome};
use pic_par::{run_config_traced, BalancerSpec};
use pic_trace::{Counter, TraceReport, Tracer};

/// Pre-refactor runner loops, copied verbatim from the last commit before
/// the `LoadBalancer` trait existed. The only mechanical adaptation is the
/// run header's added `balancer` argument (the header string is not part
/// of the comparison; the structured records are).
mod oracle {
    use pic_comm::comm::Communicator;
    use pic_par::decomp::Decomp2d;
    use pic_par::diffusion::{DiffusionMode, DiffusionParams};
    use pic_par::runner::{snapshot_loads, trace_interval, ParConfig, ParOutcome, RankState};
    use pic_trace::{Counter, Phase, Tracer};

    fn diffuse_xcuts(
        xcuts: &[usize],
        counts: &[u64],
        tau: u64,
        border_w: usize,
        ncells: usize,
    ) -> Vec<usize> {
        let px = counts.len();
        assert_eq!(xcuts.len(), px + 1);
        let mut proposed: Vec<i64> = xcuts.iter().map(|&c| c as i64).collect();
        for i in 1..px {
            let left = counts[i - 1];
            let right = counts[i];
            if left > right && left - right > tau {
                proposed[i] -= border_w as i64;
            } else if right > left && right - left > tau {
                proposed[i] += border_w as i64;
            }
        }
        let mut out = vec![0usize; px + 1];
        out[px] = ncells;
        for i in 1..px {
            let lo = out[i - 1] as i64 + 1;
            let hi = ncells as i64 - (px - i) as i64;
            out[i] = proposed[i].clamp(lo, hi) as usize;
        }
        out
    }

    fn per_column_counts_into(hist: &[u64], xcuts: &[usize], out: &mut Vec<u64>) {
        let px = xcuts.len().checked_sub(1).expect("xcuts must be non-empty");
        assert_eq!(*xcuts.last().unwrap(), hist.len());
        out.clear();
        out.resize(px, 0);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = hist[xcuts[i]..xcuts[i + 1]].iter().sum();
        }
    }

    fn handed_over_cells(old: &[usize], new: &[usize], ncells: usize) -> u64 {
        old.iter()
            .zip(new)
            .map(|(&o, &n)| o.abs_diff(n) as u64)
            .sum::<u64>()
            * ncells as u64
    }

    pub fn static_loop_traced(
        comm: &Communicator,
        cfg: &ParConfig,
        tracer: &mut Tracer,
    ) -> ParOutcome {
        let decomp = Decomp2d::uniform(cfg.setup.grid.ncells(), comm.size());
        let mut st = RankState::with_kernel(&cfg.setup, decomp, comm.rank(), cfg.kernel);
        let every = trace_interval(comm, tracer);
        tracer.emit_run_header(
            "baseline",
            comm.size(),
            cfg.setup.particles.len() as u64,
            cfg.steps as u64,
            &st.kernel_desc(),
            "static",
        );
        let mut sent_window = 0u64;
        let mut global_count = cfg.setup.particles.len() as u64;
        for s in 1..=cfg.steps as u64 {
            tracer.begin_step(s);
            sent_window += st.step_traced(comm, tracer) as u64;
            if every > 0 && s.is_multiple_of(every) {
                let msgs = st.take_message_counts();
                global_count =
                    snapshot_loads(comm, tracer, st.local_count() as u64, sent_window, msgs);
                sent_window = 0;
            }
            tracer.end_step(global_count);
        }
        let out = st.finish_traced(comm, tracer);
        tracer.set_final_particles(out.total_count);
        out
    }

    pub fn diffusion_loop_traced(
        comm: &Communicator,
        cfg: &ParConfig,
        params: DiffusionParams,
        mode: DiffusionMode,
        tracer: &mut Tracer,
    ) -> ParOutcome {
        assert!(params.interval > 0, "interval must be positive");
        assert!(params.border_w > 0, "border width must be positive");
        let decomp = Decomp2d::uniform(cfg.setup.grid.ncells(), comm.size());
        let mut st = RankState::with_kernel(&cfg.setup, decomp, comm.rank(), cfg.kernel);
        let every = trace_interval(comm, tracer);
        tracer.emit_run_header(
            "diffusion",
            comm.size(),
            cfg.setup.particles.len() as u64,
            cfg.steps as u64,
            &st.kernel_desc(),
            "diffusion",
        );
        let mut sent_window = 0u64;
        let mut global_count = cfg.setup.particles.len() as u64;
        for s in 1..=cfg.steps {
            tracer.begin_step(s as u64);
            sent_window += st.step_traced(comm, tracer) as u64;
            if s % params.interval == 0 && s < cfg.steps {
                tracer.phase_start(Phase::Balance);
                sent_window += lb_step(comm, &mut st, params, mode, tracer) as u64;
                tracer.phase_end(Phase::Balance);
            }
            if every > 0 && (s as u64).is_multiple_of(every) {
                let msgs = st.take_message_counts();
                global_count =
                    snapshot_loads(comm, tracer, st.local_count() as u64, sent_window, msgs);
                sent_window = 0;
            }
            tracer.end_step(global_count);
        }
        let out = st.finish_traced(comm, tracer);
        tracer.set_final_particles(out.total_count);
        out
    }

    fn lb_step(
        comm: &Communicator,
        st: &mut RankState,
        params: DiffusionParams,
        mode: DiffusionMode,
        tracer: &mut Tracer,
    ) -> usize {
        let mut changed = false;
        if matches!(mode, DiffusionMode::XOnly | DiffusionMode::TwoPhase) {
            let mut hist_scratch = Vec::new();
            let hist = st.aggregate_column_histogram(comm, &mut hist_scratch);
            tracer.add(Counter::CollectiveBytes, hist.len() as u64 * 8);
            let mut col_counts = Vec::new();
            per_column_counts_into(&hist, &st.decomp.xcuts, &mut col_counts);
            let new_cuts = diffuse_xcuts(
                &st.decomp.xcuts,
                &col_counts,
                params.tau,
                params.border_w,
                st.decomp.ncells,
            );
            tracer.record_cuts('x', &st.decomp.xcuts, &col_counts, &new_cuts);
            if new_cuts != st.decomp.xcuts {
                tracer.add(
                    Counter::BorderCells,
                    handed_over_cells(&st.decomp.xcuts, &new_cuts, st.decomp.ncells),
                );
                st.decomp.set_xcuts(new_cuts);
                changed = true;
            }
        }
        if matches!(mode, DiffusionMode::YOnly | DiffusionMode::TwoPhase) {
            let mut row_counts = Vec::new();
            st.aggregate_axis_counts_into(comm, false, &mut row_counts);
            tracer.add(Counter::CollectiveBytes, row_counts.len() as u64 * 8);
            let new_cuts = diffuse_xcuts(
                &st.decomp.ycuts,
                &row_counts,
                params.tau,
                params.border_w,
                st.decomp.ncells,
            );
            tracer.record_cuts('y', &st.decomp.ycuts, &row_counts, &new_cuts);
            if new_cuts != st.decomp.ycuts {
                tracer.add(
                    Counter::BorderCells,
                    handed_over_cells(&st.decomp.ycuts, &new_cuts, st.decomp.ncells),
                );
                st.decomp.set_ycuts(new_cuts);
                changed = true;
            }
        }
        if changed {
            debug_assert!(st.decomp.is_partition());
            st.rebuild_charges();
        }
        let (sent, _received) = st.rehome(comm);
        st.rebind_store();
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

const DISTS: [Distribution; 3] = [
    Distribution::Geometric { r: 0.85 },
    Distribution::Sinusoidal,
    Distribution::Uniform,
];

/// Assert two per-rank (outcome, report) sets are bit-identical in every
/// deterministic dimension.
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
        assert_eq!(nr.cuts, or.cuts, "{label} rank {rank}: cut decisions");
        // Step records: everything except the wall-clock phase times and
        // the timing-derived overlap counter is deterministic.
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
        assert_eq!(nr.summary.steps, or.summary.steps, "{label} rank {rank}");
        assert_eq!(
            nr.summary.final_particles, or.summary.final_particles,
            "{label} rank {rank}"
        );
        assert_eq!(
            nr.summary.max_imbalance, or.summary.max_imbalance,
            "{label} rank {rank}"
        );
        assert_eq!(
            nr.summary.mean_imbalance, or.summary.mean_imbalance,
            "{label} rank {rank}"
        );
        // Counters are deterministic except the timing-derived overlap.
        let mut cn = nr.summary.counters;
        let mut co = or.summary.counters;
        cn[Counter::OverlapNs.idx()] = 0;
        co[Counter::OverlapNs.idx()] = 0;
        assert_eq!(cn, co, "{label} rank {rank}: summary counters");
    }
}

/// Every rank's outcome with its trace.
type Traced = Vec<(ParOutcome, Option<TraceReport>)>;

fn run_pair(
    c: &ParConfig,
    ranks: usize,
    run_new: impl Fn(&pic_comm::comm::Communicator, &ParConfig, &mut Tracer) -> ParOutcome + Send + Sync,
    run_old: impl Fn(&pic_comm::comm::Communicator, &ParConfig, &mut Tracer) -> ParOutcome + Send + Sync,
) -> (Traced, Traced) {
    // Every rank traces, so conformance is checked on all replicas, not
    // just rank 0's view.
    let new = run_threads(ranks, |comm| {
        let mut t = Tracer::in_memory(1);
        let o = run_new(&comm, c, &mut t);
        (o, t.finish())
    });
    let old = run_threads(ranks, |comm| {
        let mut t = Tracer::in_memory(1);
        let o = run_old(&comm, c, &mut t);
        (o, t.finish())
    });
    (new, old)
}

#[test]
fn baseline_matches_pre_refactor_loop() {
    for dist in DISTS {
        for ranks in [1usize, 2, 4] {
            let c = cfg(1200, dist, 24);
            let (new, old) = run_pair(&c, ranks, run_config_traced, |comm, c, t| {
                oracle::static_loop_traced(comm, c, t)
            });
            assert_identical(&format!("baseline {dist:?} ranks={ranks}"), &new, &old);
        }
    }
}

#[test]
fn diffusion_xonly_matches_pre_refactor_loop() {
    for dist in DISTS {
        for ranks in [1usize, 2, 4] {
            for interval in [1u32, 5] {
                let params = DiffusionParams {
                    interval,
                    tau: 0,
                    border_w: 2,
                };
                let c = cfg(1200, dist, 24).with_balancer(BalancerSpec::Diffusion {
                    params,
                    mode: DiffusionMode::XOnly,
                });
                let (new, old) = run_pair(&c, ranks, run_config_traced, |comm, c, t| {
                    oracle::diffusion_loop_traced(comm, c, params, DiffusionMode::XOnly, t)
                });
                assert_identical(
                    &format!("diffusion-x {dist:?} ranks={ranks} F={interval}"),
                    &new,
                    &old,
                );
            }
        }
    }
}

#[test]
fn diffusion_twophase_matches_pre_refactor_loop() {
    // The two-phase mode is the interesting collective-ordering case: the
    // old loop gathered row counts *after* applying the x-cuts, the
    // unified runner gathers both before one decide() — bit-identical
    // because the row aggregation never depends on the x-cuts.
    for dist in DISTS {
        for ranks in [2usize, 4] {
            let params = DiffusionParams {
                interval: 5,
                tau: 0,
                border_w: 1,
            };
            let c = cfg(1500, dist, 30).with_balancer(BalancerSpec::Diffusion {
                params,
                mode: DiffusionMode::TwoPhase,
            });
            let (new, old) = run_pair(&c, ranks, run_config_traced, |comm, c, t| {
                oracle::diffusion_loop_traced(comm, c, params, DiffusionMode::TwoPhase, t)
            });
            assert_identical(&format!("diffusion-2p {dist:?} ranks={ranks}"), &new, &old);
        }
    }
}

#[test]
fn adaptive_switch_sequence_is_replicated_on_every_rank() {
    // Determinism contract: the adaptive balancer derives its decisions
    // only from already-replicated collectives, so every rank must compute
    // the identical switch sequence with no extra communication.
    let params = DiffusionParams {
        interval: 5,
        tau: 0,
        border_w: 2,
    };
    let c =
        cfg(2000, Distribution::Geometric { r: 0.9 }, 60).with_balancer(BalancerSpec::Adaptive {
            params,
            mode: DiffusionMode::XOnly,
        });
    let outcomes = run_threads(4, |comm| {
        let mut t = Tracer::in_memory(1);
        let o = run_config_traced(&comm, &c, &mut t);
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
        "sustained geometric skew must trigger at least one switch"
    );
    for (rank, (o, report)) in outcomes.iter().enumerate() {
        assert!(o.verify.passed(), "rank {rank}: {:?}", o.verify);
        let report = report.as_ref().expect("all ranks traced");
        assert_eq!(
            report.switches, reference,
            "rank {rank} disagrees on the switch sequence"
        );
        assert_eq!(report.summary.balancer, "adaptive");
        assert_eq!(report.summary.switches, reference.len() as u64);
    }
}
