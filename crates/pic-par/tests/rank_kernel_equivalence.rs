//! Rank-loop equivalence (DESIGN.md §13): the binned SIMD rank loop ends
//! in the AoS oracle's final state (`pic_core::reference`), per id, bit for bit — same
//! surviving ids, same position/velocity bit patterns — across
//! distributions, rank counts, rebin intervals, SIMD backends, and all
//! three distributed implementations (static baseline, diffusion LB, and
//! the VP runtime whatever its balancer does to VP placement). Particles
//! never interact, so decomposition, exchange and binning may reorder the
//! sweep but must not change one bit of any particle's trajectory; the
//! oracle shares no rank machinery with them.
//!
//! The whole file also passes with `PIC_NO_SIMD=1` (CI runs it both
//! ways): forcing scalar must change nothing.

use pic_cluster::balancer::VpStrategy;
use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::{InitConfig, SimulationSetup};
use pic_core::particle::Particle;
use pic_core::simd::SimdBackend;
use pic_par::diffusion::{DiffusionMode, DiffusionParams};
use pic_par::runner::{ParConfig, RankKernel};
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

/// The oracle's final population.
fn serial(setup: SimulationSetup) -> Vec<Particle> {
    pic_core::reference::run(setup, STEPS)
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
        .flat_map(|o| o.particles.to_particles())
        .collect()
}

/// The three implementations the matrix samples: static baseline,
/// x-only diffusion, and the VP runtime under the paper's refinement.
fn specs() -> [BalancerSpec; 3] {
    [
        BalancerSpec::Static,
        BalancerSpec::Diffusion {
            params: DiffusionParams {
                interval: 3,
                tau: 0,
                border_w: 3,
            },
            mode: DiffusionMode::XOnly,
        },
        vp(VpStrategy::paper_default()),
    ]
}

/// The VP runtime at over-decomposition 4, rebalanced every 6 steps.
fn vp(strategy: VpStrategy) -> BalancerSpec {
    BalancerSpec::Vp {
        d: 4,
        interval: 6,
        strategy,
    }
}

fn run_impl(
    dist: Distribution,
    ranks: usize,
    balancer: BalancerSpec,
    kernel: RankKernel,
) -> Vec<Particle> {
    let cfg = ParConfig::new(setup(dist), STEPS)
        .with_kernel(kernel)
        .with_balancer(balancer);
    run_ranks(&cfg, ranks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole contract: rank loop ≡ AoS oracle, bit for bit,
    /// across the sampled cross product of distribution × rank count ×
    /// rebin interval × implementation.
    #[test]
    fn binned_exact_bitwise_matches_aos_rank_loop(
        dist_i in 0usize..4,
        ranks in prop::sample::select(vec![1usize, 2, 4]),
        rebin in prop::sample::select(vec![1u32, 3, 16]),
        spec_i in 0usize..3,
    ) {
        let dist = distributions()[dist_i];
        let spec = specs()[spec_i];
        let aos = bit_finals(&serial(setup(dist)));
        let kernel = RankKernel::default().with_rebin_interval(rebin);
        let binned = bit_finals(&run_impl(dist, ranks, spec, kernel));
        prop_assert_eq!(
            &aos, &binned,
            "dist {:?}, {} ranks, rebin {}, {:?}",
            dist, ranks, rebin, spec
        );
    }
}

/// Every SIMD backend the host offers produces the same bits as the AoS
/// oracle — the lane width is an implementation detail.
#[test]
fn binned_exact_bitwise_identical_across_backends() {
    let dist = Distribution::Geometric { r: 0.9 };
    let aos = bit_finals(&serial(setup(dist)));
    for backend in SimdBackend::available() {
        let kernel = RankKernel::default().with_backend(backend);
        let got = bit_finals(&run_impl(dist, 4, specs()[1], kernel));
        assert_eq!(aos, got, "backend {}", backend.name());
    }
}

/// The VP runtime's full deterministic matrix: the paper's refinement at
/// every rank count × rebin interval (the VP step runs no timer sort, so
/// the interval must change nothing either).
#[test]
fn ampi_binned_exact_bitwise_matches_aos() {
    let dist = Distribution::Geometric { r: 0.9 };
    let aos = bit_finals(&serial(setup(dist)));
    for ranks in [1usize, 2, 4] {
        for rebin in [1u32, 3, 16] {
            let kernel = RankKernel::default().with_rebin_interval(rebin);
            let spec = vp(VpStrategy::paper_default());
            let got = bit_finals(&run_impl(dist, ranks, spec, kernel));
            assert_eq!(aos, got, "{ranks} ranks, rebin {rebin}");
        }
    }
}

/// The other two VP strategies: a full greedy repack scatters VPs, and
/// `None` never moves one.
#[test]
fn ampi_binned_exact_bitwise_matches_aos_across_balancers() {
    let dist = Distribution::Geometric { r: 0.9 };
    let aos = bit_finals(&serial(setup(dist)));
    for strategy in [VpStrategy::Greedy, VpStrategy::None] {
        let got = bit_finals(&run_impl(dist, 4, vp(strategy), RankKernel::default()));
        assert_eq!(aos, got, "{strategy:?}");
    }
}

/// The step with an interior specifically (not the empty one of vertical
/// motion): horizontal-only motion keeps every rank row uncrossable, so
/// the border/interior column split is active on every binned rank even
/// under a 2D decomposition. Fast stride (k=2 ⇒ 5 cells/step) plus a
/// mid-run injection keeps the exchange busy; the result must still match
/// the oracle bit for bit.
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
    let aos = bit_finals(&serial(setup.clone()));
    for ranks in [1usize, 2, 4] {
        for rebin in [1u32, 3, 16] {
            let kernel = RankKernel::default().with_rebin_interval(rebin);
            let cfg = ParConfig::new(setup.clone(), STEPS).with_kernel(kernel);
            assert_eq!(
                aos,
                bit_finals(&run_ranks(&cfg, ranks)),
                "overlapped step diverged from the oracle ({ranks} ranks, rebin {rebin})"
            );
        }
    }
}
