//! Rank-path equivalence for the AMPI-style runtime (DESIGN.md §13):
//! the full-grid binned store the VP scheduler advances must be
//! physics-identical to the AoS reference loop, whatever the balancer
//! does to VP placement: bit-identical. Also passes under `PIC_NO_SIMD=1`.

use pic_ampi::model::AmpiParams;
use pic_ampi::runtime::run_ampi;
use pic_ampi::Balancer;
use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_par::runner::{ExchangeMode, ParConfig, ParOutcome, RankKernel};

const STEPS: u32 = 30;

fn cfg(kernel: RankKernel) -> ParConfig {
    let setup = InitConfig::new(
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
    .with_event(Event::remove(15, Region::whole(32), 25));
    ParConfig::new(setup, STEPS).with_kernel(kernel)
}

fn run(kernel: RankKernel, ranks: usize, balancer: Balancer) -> Vec<ParOutcome> {
    let cfg = cfg(kernel);
    run_threads(ranks, |comm| {
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
    })
}

fn bit_finals(outcomes: &[ParOutcome]) -> Vec<(u64, u64, u64, u64, u64)> {
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
fn ampi_binned_exact_bitwise_matches_aos() {
    // The AoS reference runs the dense synchronous exchange (the oracle);
    // the binned kernel must match it bit for bit under both that oracle
    // and the sparse VP routing (all-pairs plan — empty payloads elided).
    for ranks in [1usize, 2, 4] {
        let aos_kernel = RankKernel::aos().with_exchange(ExchangeMode::DenseSync);
        let aos = bit_finals(&run(aos_kernel, ranks, Balancer::paper_default()));
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
    for balancer in [Balancer::Greedy, Balancer::None] {
        let aos = bit_finals(&run(RankKernel::aos(), 4, balancer));
        let got = bit_finals(&run(RankKernel::default(), 4, balancer));
        assert_eq!(aos, got, "{balancer:?}");
    }
}
