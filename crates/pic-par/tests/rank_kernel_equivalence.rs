//! Rank-loop equivalence (DESIGN.md §13): the binned SIMD rank loop ends
//! in the serial AoS engine's final state, per id, bit for bit — same
//! surviving ids, same position/velocity bit patterns — across
//! distributions, rank counts, rebin intervals, SIMD backends, and both
//! distributed implementations in this crate (static baseline and
//! diffusion LB). Particles never interact, so decomposition, exchange and
//! binning may reorder the sweep but must not change one bit of any
//! particle's trajectory; the oracle shares no rank machinery with them.
//!
//! The whole file also passes with `PIC_NO_SIMD=1` (CI runs it both
//! ways): forcing scalar must change nothing.

use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::engine::Simulation;
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::{InitConfig, SimulationSetup};
use pic_core::particle::Particle;
use pic_core::simd::SimdBackend;
use pic_par::diffusion::{DiffusionMode, DiffusionParams};
use pic_par::runner::{ExchangeMode, ParConfig, RankKernel};
use pic_par::{run_config, BalancerSpec};
use proptest::prelude::*;

const STEPS: u32 = 30;
const N: u64 = 600;

/// A setup that exercises every rank-loop phase: drift (k=1, m=1 ⇒ max
/// stride 3), cross-cut exchange, and the event path (injection and
/// removal mid-run).
fn setup(dist: Distribution) -> SimulationSetup {
    InitConfig::new(Grid::new(32).unwrap(), N, dist)
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

fn distributions() -> Vec<Distribution> {
    vec![
        Distribution::Uniform,
        Distribution::Geometric { r: 0.9 },
        Distribution::Sinusoidal,
        Distribution::Linear {
            alpha: 2.0,
            beta: 3.0,
        },
    ]
}

/// Sorted (id, x-bits, y-bits, vx-bits, vy-bits) of a whole population.
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

/// The oracle: the single-process AoS engine's final population.
fn serial(setup: SimulationSetup) -> Vec<Particle> {
    let mut sim = Simulation::new(setup);
    sim.run(STEPS);
    sim.particles()
}

/// Run `cfg` on `ranks` verified thread-ranks; every rank's final particles.
fn run_ranks(cfg: &ParConfig, ranks: usize) -> Vec<Particle> {
    let outcomes = run_threads(ranks, |comm| {
        let o = run_config(&comm, cfg);
        assert!(o.verify.passed(), "{:?}", o.verify);
        o
    });
    outcomes
        .into_iter()
        .flat_map(|o| o.local_particles)
        .collect()
}

fn run_impl(
    dist: Distribution,
    ranks: usize,
    diffusion: bool,
    kernel: RankKernel,
) -> Vec<Particle> {
    let balancer = if diffusion {
        BalancerSpec::Diffusion {
            params: DiffusionParams {
                interval: 3,
                tau: 0,
                border_w: 3,
            },
            mode: DiffusionMode::XOnly,
        }
    } else {
        BalancerSpec::Static
    };
    let cfg = ParConfig::new(setup(dist), STEPS)
        .with_kernel(kernel)
        .with_balancer(balancer);
    run_ranks(&cfg, ranks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole contract: rank loop ≡ serial AoS engine, bit for bit,
    /// across the sampled cross product of distribution × rank count ×
    /// rebin interval × implementation × exchange mode — under both the
    /// dense synchronous exchange and the overlapped sparse default.
    #[test]
    fn binned_exact_bitwise_matches_aos_rank_loop(
        dist_i in 0usize..4,
        ranks in prop::sample::select(vec![1usize, 2, 4]),
        rebin in prop::sample::select(vec![1u32, 3, 16]),
        diffusion in any::<bool>(),
    ) {
        let dist = distributions()[dist_i];
        let aos = bit_finals(&serial(setup(dist)));
        for exchange in [ExchangeMode::DenseSync, ExchangeMode::OverlappedSparse] {
            let kernel = RankKernel::default()
                .with_rebin_interval(rebin)
                .with_exchange(exchange);
            let binned = bit_finals(&run_impl(dist, ranks, diffusion, kernel));
            prop_assert_eq!(
                &aos, &binned,
                "dist {:?}, {} ranks, rebin {}, diffusion={}, exchange={:?}",
                dist, ranks, rebin, diffusion, exchange
            );
        }
    }
}

/// Every SIMD backend the host offers produces the same bits as the AoS
/// engine — the lane width is an implementation detail — under both
/// exchange modes.
#[test]
fn binned_exact_bitwise_identical_across_backends() {
    let dist = Distribution::Geometric { r: 0.9 };
    let aos = bit_finals(&serial(setup(dist)));
    for backend in SimdBackend::available() {
        for exchange in [ExchangeMode::DenseSync, ExchangeMode::OverlappedSparse] {
            let kernel = RankKernel::default()
                .with_backend(backend)
                .with_exchange(exchange);
            let got = bit_finals(&run_impl(dist, 4, true, kernel));
            assert_eq!(
                aos,
                got,
                "backend {} exchange {:?}",
                backend.name(),
                exchange
            );
        }
    }
}

/// The split-phase overlapped path specifically (not the sparse-synchronous
/// fallback): horizontal-only motion keeps every rank row uncrossable, so
/// the border/interior column split is active on every binned rank even
/// under a 2D decomposition. Fast stride (k=2 ⇒ 5 cells/step) plus a
/// mid-run injection keeps the exchange and the escape machinery busy; the
/// result must still match the dense synchronous oracle bit for bit.
#[test]
fn overlapped_split_phase_matches_dense_oracle_bitwise() {
    let setup = InitConfig::new(
        Grid::new(32).unwrap(),
        N,
        Distribution::Geometric { r: 0.85 },
    )
    .with_k(2)
    .build()
    .unwrap()
    .with_event(Event::inject(
        9,
        Region {
            x0: 4,
            x1: 20,
            y0: 4,
            y1: 20,
        },
        50,
        1,
        0,
        -1,
    ));
    for ranks in [1usize, 2, 4] {
        for rebin in [1u32, 3, 16] {
            let mut finals = Vec::new();
            for exchange in [ExchangeMode::DenseSync, ExchangeMode::OverlappedSparse] {
                let kernel = RankKernel::default()
                    .with_rebin_interval(rebin)
                    .with_exchange(exchange);
                let cfg = ParConfig::new(setup.clone(), STEPS).with_kernel(kernel);
                finals.push(bit_finals(&run_ranks(&cfg, ranks)));
            }
            assert_eq!(
                finals[0], finals[1],
                "overlapped sparse diverged from dense oracle ({ranks} ranks, rebin {rebin})"
            );
        }
    }
}
