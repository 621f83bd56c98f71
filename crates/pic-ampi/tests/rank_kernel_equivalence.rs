//! Rank-loop equivalence for the AMPI-style runtime (DESIGN.md §13):
//! the full-grid binned store the VP scheduler advances must end in the
//! serial AoS engine's final state, per id, bit for bit, whatever the
//! balancer does to VP placement. Also passes under `PIC_NO_SIMD=1`.

use pic_ampi::model::AmpiParams;
use pic_ampi::runtime::run_ampi;
use pic_ampi::Balancer;
use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::engine::Simulation;
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::{InitConfig, SimulationSetup};
use pic_core::particle::Particle;
use pic_par::runner::{ExchangeMode, ParConfig, RankKernel};

const STEPS: u32 = 30;

fn setup() -> SimulationSetup {
    InitConfig::new(
        Grid::new(32).unwrap(),
        600,
        Distribution::Geometric { r: 0.9 },
    )
    .with_k(1)
    .with_m(1)
    .build()
    .unwrap()
    .with_event(Event::inject(
        7,
        Region {
            x0: 2,
            x1: 12,
            y0: 2,
            y1: 12,
        },
        40,
        0,
        1,
        1,
    ))
    .with_event(Event::remove(15, Region::whole(32), 25))
}

/// The oracle: the single-process AoS engine's final population.
fn serial() -> Vec<Particle> {
    let mut sim = Simulation::new(setup());
    sim.run(STEPS);
    sim.particles()
}

/// Every core's final particles.
fn run(kernel: RankKernel, ranks: usize, balancer: Balancer) -> Vec<Particle> {
    let cfg = ParConfig::new(setup(), STEPS).with_kernel(kernel);
    let outcomes = run_threads(ranks, |comm| {
        let o = run_ampi(
            &comm,
            &cfg,
            &AmpiParams {
                d: 4,
                interval: 6,
                balancer,
            },
        );
        assert!(o.verify.passed(), "{balancer:?}: {:?}", o.verify);
        o
    });
    outcomes
        .into_iter()
        .flat_map(|o| o.local_particles)
        .collect()
}

fn bit_finals(particles: &[Particle]) -> Vec<(u64, u64, u64, u64, u64)> {
    let mut v: Vec<_> = particles
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

#[test]
fn ampi_binned_exact_bitwise_matches_aos() {
    // The VP runtime must match the serial engine bit for bit under both
    // the dense synchronous exchange and the sparse VP routing (all-pairs
    // plan — empty payloads elided).
    let aos = bit_finals(&serial());
    for ranks in [1usize, 2, 4] {
        for rebin in [1u32, 3, 16] {
            for exchange in [ExchangeMode::DenseSync, ExchangeMode::OverlappedSparse] {
                let kernel = RankKernel::default()
                    .with_rebin_interval(rebin)
                    .with_exchange(exchange);
                let got = bit_finals(&run(kernel, ranks, Balancer::paper_default()));
                assert_eq!(aos, got, "{ranks} ranks, rebin {rebin}, {exchange:?}");
            }
        }
    }
}

#[test]
fn ampi_binned_exact_bitwise_matches_aos_across_balancers() {
    let aos = bit_finals(&serial());
    for balancer in [Balancer::Greedy, Balancer::None] {
        let got = bit_finals(&run(RankKernel::default(), 4, balancer));
        assert_eq!(aos, got, "{balancer:?}");
    }
}
