//! Cross-rank integration tests for the pic-trace telemetry layer and the
//! distributed-verify `failing_ids` gather.

use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_core::verify::MAX_FAILING_IDS;
use pic_par::decomp::Decomp2d;
use pic_par::diffusion::{DiffusionMode, DiffusionParams};
use pic_par::runner::{ParConfig, RankState};
use pic_par::{run_config_traced, BalancerSpec};
use pic_trace::{validate_ndjson, Tracer};

fn cfg(n: u64, dist: Distribution, steps: u32) -> ParConfig {
    ParConfig::new(
        InitConfig::new(Grid::new(32).unwrap(), n, dist)
            .with_m(1)
            .build()
            .unwrap(),
        steps,
    )
}

/// A corrupted particle on one rank must show up in *every* rank's
/// `failing_ids` — the report is gathered, not rank-local (the bug this
/// guards against: each rank reporting only its own local failures).
#[test]
fn corrupted_particle_reported_on_all_ranks() {
    let c = cfg(400, Distribution::Uniform, 6);
    let results = run_threads(4, |comm| {
        let decomp = Decomp2d::uniform(c.setup.grid.ncells(), comm.size());
        let mut st = RankState::new(&c.setup, decomp, comm.rank());
        for _ in 0..c.steps {
            st.step(&comm);
        }
        let corrupted = if comm.rank() == 2 {
            assert!(
                !st.store.is_empty(),
                "rank 2 must own particles for this test to bite"
            );
            let mut p = st.store.particle_at(0);
            p.x += 1.5;
            st.store.set(0, p);
            Some(p.id)
        } else {
            None
        };
        (st.verify(&comm), corrupted)
    });
    let bad_id = results
        .iter()
        .find_map(|(_, c)| *c)
        .expect("rank 2 corrupted a particle");
    let reference = &results[0].0.failing_ids;
    assert!(!reference.is_empty());
    for (rank, (report, _)) in results.iter().enumerate() {
        assert_eq!(report.position_failures, 1, "rank {rank}: {report:?}");
        assert_eq!(
            &report.failing_ids, reference,
            "rank {rank} sees different failing_ids"
        );
        assert!(
            report.failing_ids.contains(&bad_id),
            "rank {rank} missing corrupted id {bad_id} in {:?}",
            report.failing_ids
        );
    }
}

/// Corrupting more particles than the cap still yields a bounded, sorted,
/// deduplicated, rank-identical sample of `MAX_FAILING_IDS` ids.
#[test]
fn failing_ids_capped_and_identical_across_ranks() {
    let c = cfg(600, Distribution::Uniform, 4);
    let results = run_threads(4, |comm| {
        let decomp = Decomp2d::uniform(c.setup.grid.ncells(), comm.size());
        let mut st = RankState::new(&c.setup, decomp, comm.rank());
        for _ in 0..c.steps {
            st.step(&comm);
        }
        // Two ranks corrupt 12 particles each: 24 global failures, above
        // the cap of 16.
        if comm.rank() == 1 || comm.rank() == 3 {
            for idx in 0..12 {
                let mut p = st.store.particle_at(idx);
                p.y += 2.5;
                st.store.set(idx, p);
            }
        }
        st.verify(&comm)
    });
    let reference = &results[0].failing_ids;
    assert_eq!(reference.len(), MAX_FAILING_IDS);
    assert!(
        reference.windows(2).all(|w| w[0] < w[1]),
        "sorted + deduped"
    );
    for (rank, report) in results.iter().enumerate() {
        assert_eq!(report.position_failures, 24, "rank {rank}");
        assert_eq!(&report.failing_ids, reference, "rank {rank}");
    }
}

/// Acceptance criterion: a traced diffusion run's summary imbalance must
/// match the value recomputed independently from the per-step load
/// snapshots it emitted, and the ndjson stream must parse.
#[test]
fn traced_diffusion_imbalance_matches_recomputed() {
    let params = DiffusionParams {
        interval: 4,
        tau: 0,
        border_w: 1,
    };
    let c = cfg(800, Distribution::PAPER_SKEW, 24).with_balancer(BalancerSpec::Diffusion {
        params,
        mode: DiffusionMode::TwoPhase,
    });
    let results = run_threads(4, |comm| {
        let mut tracer = if comm.rank() == 0 {
            Tracer::in_memory(2)
        } else {
            Tracer::disabled()
        };
        let out = run_config_traced(&comm, &c, &mut tracer);
        (out, tracer.finish())
    });
    for (out, _) in &results {
        assert!(out.verify.passed(), "{:?}", out.verify);
    }
    let report = results[0].1.as_ref().expect("rank 0 tracer enabled");

    // The stream is well-formed ndjson with the expected record mix.
    let check = validate_ndjson(&report.ndjson).expect("valid ndjson");
    assert_eq!(check.runs, 1);
    assert_eq!(check.steps, report.steps.len());
    assert!(check.summary.is_some());
    assert!(check.cuts > 0, "interval 4 over 24 steps must emit cuts");

    // Recompute max/mean imbalance straight from the emitted load vectors.
    let mut max_imb = f64::NEG_INFINITY;
    let mut sum_imb = 0.0;
    let mut n = 0usize;
    for rec in &report.steps {
        if rec.loads.is_empty() {
            continue;
        }
        assert_eq!(rec.loads.len(), 4, "one load slot per rank");
        let total: f64 = rec.loads.iter().sum();
        assert_eq!(total as u64, rec.particles, "loads account for everyone");
        let max = rec.loads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let imb = max / (total / rec.loads.len() as f64);
        let stats = rec.stats.as_ref().expect("loads imply stats");
        assert!((stats.imbalance - imb).abs() < 1e-12);
        max_imb = max_imb.max(imb);
        sum_imb += imb;
        n += 1;
    }
    assert!(n > 0, "sampling every 2 steps must emit load snapshots");
    assert!((report.summary.max_imbalance - max_imb).abs() < 1e-12);
    assert!((report.summary.mean_imbalance - sum_imb / n as f64).abs() < 1e-12);
    assert!(report.summary.max_imbalance.is_finite());
    assert!(report.summary.max_imbalance >= 1.0);
}

/// Every rank tracing (not just rank 0) must agree on the collective
/// schedule and produce identical load snapshots.
#[test]
fn all_ranks_tracing_agree_on_snapshots() {
    let params = DiffusionParams {
        interval: 3,
        ..DiffusionParams::default()
    };
    let c =
        cfg(300, Distribution::Geometric { r: 0.85 }, 12).with_balancer(BalancerSpec::Diffusion {
            params,
            mode: DiffusionMode::XOnly,
        });
    let results = run_threads(3, |comm| {
        let mut tracer = Tracer::in_memory(3);
        let out = run_config_traced(&comm, &c, &mut tracer);
        (
            out,
            tracer.finish().expect("enabled tracer yields a report"),
        )
    });
    let reference = &results[0].1;
    for (rank, (out, report)) in results.iter().enumerate() {
        assert!(out.verify.passed(), "rank {rank}");
        assert_eq!(report.steps.len(), reference.steps.len(), "rank {rank}");
        for (a, b) in report.steps.iter().zip(&reference.steps) {
            assert_eq!(a.step, b.step);
            assert_eq!(a.loads, b.loads, "rank {rank} step {}", a.step);
            assert_eq!(a.particles, b.particles);
        }
        assert_eq!(
            report.summary.max_imbalance, reference.summary.max_imbalance,
            "rank {rank}"
        );
    }
}

/// `run_config_traced` is the one door for every cut-family balancer: each
/// [`BalancerSpec`] must stamp the run header with the historical `impl`
/// name and the strategy's own `balancer` name.
#[test]
fn run_header_names_impl_and_balancer_per_spec() {
    use pic_trace::Json;
    let params = DiffusionParams {
        interval: 3,
        ..DiffusionParams::default()
    };
    let mode = DiffusionMode::XOnly;
    for (spec, want_impl, want_balancer) in [
        (BalancerSpec::Static, "baseline", "static"),
        (
            BalancerSpec::Diffusion { params, mode },
            "diffusion",
            "diffusion",
        ),
        (
            BalancerSpec::Adaptive { params, mode },
            "adaptive",
            "adaptive",
        ),
    ] {
        let c = cfg(200, Distribution::Geometric { r: 0.85 }, 6).with_balancer(spec);
        let reports = run_threads(2, |comm| {
            let mut tracer = Tracer::in_memory(1);
            let out = run_config_traced(&comm, &c, &mut tracer);
            assert!(out.verify.passed(), "{spec:?}: {:?}", out.verify);
            tracer.finish().expect("enabled tracer yields a report")
        });
        for report in &reports {
            let run = Json::parse(report.ndjson.lines().next().unwrap()).unwrap();
            assert_eq!(run.get("type").unwrap().as_str(), Some("run"));
            assert_eq!(run.get("impl").unwrap().as_str(), Some(want_impl));
            assert_eq!(run.get("balancer").unwrap().as_str(), Some(want_balancer));
            assert_eq!(report.summary.balancer, want_balancer);
        }
    }
}
