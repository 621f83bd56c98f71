//! All implementations — serial engine, `mpi-2d`, `mpi-2d-LB`, `ampi` —
//! must produce the *same* physics: identical surviving id sets and
//! bit-identical final positions for identical setups. Parallelism only
//! reorders the sweep *between* particles, and particles never interact,
//! so even floating-point state must agree exactly.

use pic_ampi::model::AmpiParams;
use pic_ampi::runtime::run_ampi;
use pic_ampi::Balancer;
use pic_comm::world::run_threads;
use pic_par::diffusion::{DiffusionMode, DiffusionParams};
use pic_par::runner::{ParConfig, ParOutcome};
use pic_par::{run_config, BalancerSpec};
use pic_prk::prelude::*;

fn make_cfg(steps: u32) -> ParConfig {
    let setup = InitConfig::new(
        Grid::new(32).unwrap(),
        600,
        Distribution::Geometric { r: 0.9 },
    )
    .with_k(1)
    .with_m(-1)
    .build()
    .unwrap()
    .with_event(Event::inject(
        5,
        Region {
            x0: 0,
            x1: 8,
            y0: 0,
            y1: 8,
        },
        40,
        0,
        1,
        1,
    ))
    .with_event(Event::remove(12, Region::whole(32), 30));
    ParConfig::new(setup, steps)
}

/// (id, x-bits, y-bits, vx-bits, vy-bits) of a serial reference run.
fn serial_final(cfg: &ParConfig) -> Vec<(u64, u64, u64, u64, u64)> {
    let mut sim = Simulation::new(cfg.setup.clone());
    sim.run(cfg.steps);
    assert!(sim.verify().passed());
    let mut v: Vec<_> = sim
        .particles()
        .iter()
        .map(|p| {
            (
                p.id,
                p.x.to_bits(),
                p.y.to_bits(),
                p.vx.to_bits(),
                p.vy.to_bits(),
            )
        })
        .collect();
    v.sort_by_key(|t| t.0);
    v
}

fn gather_finals(outcomes: Vec<ParOutcome>) -> Vec<(u64, u64, u64, u64, u64)> {
    let mut v: Vec<_> = outcomes
        .iter()
        .flat_map(|o| o.local_particles.iter())
        .map(|p| {
            (
                p.id,
                p.x.to_bits(),
                p.y.to_bits(),
                p.vx.to_bits(),
                p.vy.to_bits(),
            )
        })
        .collect();
    v.sort_by_key(|t| t.0);
    v
}

#[test]
fn baseline_bitwise_matches_serial() {
    let cfg = make_cfg(40);
    let serial = serial_final(&cfg);
    for p in [1usize, 2, 4, 6] {
        let outcomes = run_threads(p, |comm| {
            let o = run_config(&comm, &cfg);
            assert!(o.verify.passed(), "p={p}: {:?}", o.verify);
            o
        });
        let got = gather_finals(outcomes);
        assert_eq!(serial, got, "baseline p={p} differs from serial");
    }
}

#[test]
fn diffusion_bitwise_matches_serial() {
    let serial = serial_final(&make_cfg(48));
    // (interval, border width, mode): the suite's own point, then the
    // parameter points of the `decision_digests` matrix — balancing every
    // step, every fifth, and two-phase on an x-skewed input.
    for (interval, border_w, mode) in [
        (3, 3, DiffusionMode::XOnly),
        (1, 2, DiffusionMode::XOnly),
        (5, 2, DiffusionMode::XOnly),
        (5, 1, DiffusionMode::TwoPhase),
    ] {
        let cfg = make_cfg(48).with_balancer(BalancerSpec::Diffusion {
            params: DiffusionParams {
                interval,
                tau: 0,
                border_w,
            },
            mode,
        });
        let outcomes = run_threads(4, |comm| {
            let o = run_config(&comm, &cfg);
            assert!(o.verify.passed(), "F={interval} {mode:?}: {:?}", o.verify);
            o
        });
        assert_eq!(serial, gather_finals(outcomes), "F={interval} {mode:?}");
    }
}

#[test]
fn ampi_bitwise_matches_serial() {
    let cfg = make_cfg(48);
    let serial = serial_final(&cfg);
    // 4 cores at F = 6, then the `decision_digests` matrix's smaller
    // worlds at its F = 4.
    for (cores, interval) in [(4usize, 6u32), (2, 4), (1, 4)] {
        for balancer in [Balancer::paper_default(), Balancer::Greedy, Balancer::None] {
            let params = AmpiParams {
                d: 4,
                interval,
                balancer,
            };
            let outcomes = run_threads(cores, |comm| {
                let o = run_ampi(&comm, &cfg, &params);
                assert!(o.verify.passed(), "{balancer:?}: {:?}", o.verify);
                o
            });
            assert_eq!(
                serial,
                gather_finals(outcomes),
                "{balancer:?} on {cores} cores"
            );
        }
    }
}

#[test]
fn two_phase_diffusion_bitwise_matches_serial() {
    use pic_prk::core::init::SkewAxis;
    // A rotated workload with vertical drift — the case the two-phase
    // scheme exists for. The physics must still match the serial engine
    // bit for bit whatever the balancer does to the decomposition.
    let setup = InitConfig::new(
        Grid::new(32).unwrap(),
        500,
        Distribution::Geometric { r: 0.85 },
    )
    .with_skew_axis(SkewAxis::Y)
    .with_m(2)
    .build()
    .unwrap()
    .with_event(Event::inject(
        8,
        Region {
            x0: 4,
            x1: 20,
            y0: 4,
            y1: 20,
        },
        50,
        0,
        1,
        1,
    ));
    let cfg = ParConfig::new(setup, 36);
    let serial = serial_final(&cfg);
    for mode in [DiffusionMode::YOnly, DiffusionMode::TwoPhase] {
        let cfg = cfg.clone().with_balancer(BalancerSpec::Diffusion {
            params: DiffusionParams {
                interval: 2,
                tau: 0,
                border_w: 3,
            },
            mode,
        });
        let outcomes = run_threads(4, |comm| {
            let o = run_config(&comm, &cfg);
            assert!(o.verify.passed(), "{mode:?}: {:?}", o.verify);
            o
        });
        assert_eq!(serial, gather_finals(outcomes), "{mode:?}");
    }
}

#[test]
fn leftward_and_fast_configs_agree() {
    let setup = InitConfig::new(Grid::new(32).unwrap(), 300, Distribution::Sinusoidal)
        .with_k(2)
        .with_m(3)
        .with_dir(-1)
        .build()
        .unwrap();
    let cfg = ParConfig::new(setup, 25);
    let serial = serial_final(&cfg);
    let base = run_threads(4, |comm| run_config(&comm, &cfg));
    assert!(base[0].verify.passed());
    assert_eq!(serial, gather_finals(base));
    let ampi = run_threads(4, |comm| {
        run_ampi(
            &comm,
            &cfg,
            &AmpiParams {
                d: 2,
                interval: 5,
                balancer: Balancer::Greedy,
            },
        )
    });
    assert!(ampi[0].verify.passed());
    assert_eq!(serial, gather_finals(ampi));
}

#[test]
fn checksum_matches_ledger_after_events() {
    let cfg = make_cfg(30);
    let serial = serial_final(&cfg);
    let expected: u128 = serial.iter().map(|t| t.0 as u128).sum();
    let out = run_threads(3, |comm| run_config(&comm, &cfg));
    assert_eq!(out[0].verify.id_sum, expected);
    assert_eq!(out[0].verify.expected_id_sum, expected);
    // Both families apply events through the one `EventLedger`, so the VP
    // runtime ends with the same population and ledger as the static run.
    let params = AmpiParams {
        d: 4,
        interval: 6,
        balancer: Balancer::paper_default(),
    };
    let vp = run_threads(2, |comm| run_ampi(&comm, &cfg, &params));
    assert_eq!(vp[0].total_count, out[0].total_count);
    assert_eq!(vp[0].verify.id_sum, expected);
    assert_eq!(vp[0].verify.expected_id_sum, expected);
}
