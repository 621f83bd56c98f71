//! All implementations — serial engine, `mpi-2d`, `mpi-2d-LB`, `ampi`, and
//! every `BalancerSpec` arm — must produce the *same* physics as the AoS
//! oracle (`pic_core::reference`): identical surviving id sets and
//! bit-identical final positions for identical setups. Parallelism only
//! reorders the sweep *between* particles, and particles never interact,
//! so even floating-point state must agree exactly.

use pic_ampi::runtime::run_ampi;
use pic_ampi::AmpiParams;
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

type Finals = Vec<(u64, u64, u64, u64, u64)>;

/// (id, x-bits, y-bits, vx-bits, vy-bits) of a population, in id order.
fn bit_finals(particles: impl IntoIterator<Item = Particle>) -> Finals {
    let mut v: Finals = (particles.into_iter())
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

/// The oracle's final population. (The binned serial engine is held to it
/// by the `pic-core` property tests.)
fn serial_final(cfg: &ParConfig) -> Finals {
    bit_finals(pic_prk::core::reference::run(cfg.setup.clone(), cfg.steps))
}

fn gather_finals(outcomes: Vec<ParOutcome>) -> Finals {
    bit_finals(outcomes.iter().flat_map(|o| o.particles.to_particles()))
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

/// A second input for the spec matrix: a removal first (an
/// order-preserving compaction of every store), then an injection whose
/// particles move against the population's (k = 1, m = −2, dir = −1).
fn removal_then_injection_cfg() -> ParConfig {
    let region = Region {
        x0: 4,
        x1: 20,
        y0: 6,
        y1: 28,
    };
    let setup = InitConfig::new(
        Grid::new(32).unwrap(),
        700,
        Distribution::Geometric { r: 0.9 },
    )
    .with_k(1)
    .with_m(-2)
    .build()
    .unwrap()
    .with_event(Event::remove(12, Region::whole(32), 60))
    .with_event(Event::inject(30, region, 90, 1, -2, -1));
    ParConfig::new(setup, 50)
}

#[test]
fn every_balancer_spec_matches_serial() {
    // All six `--balancer` values, the adaptive cut ladder included,
    // through the one `run_config` door on skews that make them move.
    let params = DiffusionParams {
        interval: 3,
        tau: 0,
        border_w: 2,
    };
    let mode = DiffusionMode::XOnly;
    let vp = |strategy| BalancerSpec::Vp {
        d: 4,
        interval: 4,
        strategy,
    };
    for input in [make_cfg(48), removal_then_injection_cfg()] {
        let serial = serial_final(&input);
        for spec in [
            BalancerSpec::Static,
            BalancerSpec::Diffusion { params, mode },
            BalancerSpec::Adaptive { params, mode },
            vp(Balancer::None),
            vp(Balancer::paper_default()),
            vp(Balancer::Greedy),
        ] {
            let cfg = input.clone().with_balancer(spec);
            let outcomes = run_threads(4, |comm| {
                let o = run_config(&comm, &cfg);
                assert!(o.verify.passed(), "{spec:?}: {:?}", o.verify);
                o
            });
            assert_eq!(serial, gather_finals(outcomes), "{spec:?}");
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
