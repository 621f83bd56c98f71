//! No rank store sorts, under either ownership map (DESIGN.md §9): a
//! store keeps its two phase halves through removals, injections,
//! exchanges and balance rounds. The traced `rebins` counter (trace schema
//! v2) reads 0 on every step on the cuts (static and diffusion) and on a
//! VP map, and every run ends in the AoS oracle's final state, per id, bit
//! for bit. Also passes under `PIC_NO_SIMD=1`.

use pic_ampi::Balancer;
use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::{InitConfig, SimulationSetup};
use pic_core::particle::Particle;
use pic_par::runner::ParConfig;
use pic_par::{run_config_traced, BalancerSpec, DiffusionMode, DiffusionParams};
use pic_trace::{Counter, Tracer};

/// Room on both sides of every edit.
const STEPS: u32 = 50;
/// The removal (an order-preserving compaction) fires first, the
/// injection (records placed by phase) later.
const REMOVE_AT: u32 = 12;
const INJECT_AT: u32 = 30;

fn setup() -> SimulationSetup {
    let region = Region {
        x0: 4,
        x1: 20,
        y0: 6,
        y1: 28,
    };
    InitConfig::new(
        Grid::new(32).unwrap(),
        700,
        Distribution::Geometric { r: 0.9 },
    )
    .with_k(1)
    .with_m(-2)
    .build()
    .unwrap()
    .with_event(Event::remove(REMOVE_AT, Region::whole(32), 60))
    .with_event(Event::inject(INJECT_AT, region, 90, 1, -2, -1))
}

/// The maps under audit: the static cuts, diffusing cuts, and the VP
/// runtime.
fn specs() -> [BalancerSpec; 3] {
    let params = DiffusionParams {
        interval: 5,
        tau: 0,
        border_w: 2,
    };
    [
        BalancerSpec::Static,
        BalancerSpec::Diffusion {
            params,
            mode: DiffusionMode::XOnly,
        },
        BalancerSpec::Vp {
            d: 4,
            interval: 5,
            strategy: Balancer::paper_default(),
        },
    ]
}

/// Run on 4 ranks; returns every rank's final particles and rank 0's
/// per-step `rebins` counter (one record per step).
fn run(spec: BalancerSpec) -> (Vec<Particle>, Vec<u64>) {
    let cfg = ParConfig::new(setup(), STEPS).with_balancer(spec);
    let mut results = run_threads(4, |comm| {
        let mut tracer = if comm.rank() == 0 {
            Tracer::in_memory(1)
        } else {
            Tracer::disabled()
        };
        let o = run_config_traced(&comm, &cfg, &mut tracer);
        assert!(o.verify.passed(), "{:?}", o.verify);
        assert_eq!(o.total_count, 700 - 60 + 90);
        (o, tracer.finish())
    });
    let report = results[0].1.take().expect("rank 0 traced");
    assert_eq!(report.steps.len(), STEPS as usize);
    let rebins = report
        .steps
        .iter()
        .map(|s| s.counters[Counter::Rebins.idx()])
        .collect();
    let world = results
        .into_iter()
        .flat_map(|(o, _)| o.particles.to_particles());
    (world.collect(), rebins)
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
fn no_step_sorts_on_any_map() {
    // The reference is the AoS oracle, which has no store to sort.
    let want = bit_finals(&pic_core::reference::run(setup(), STEPS));
    assert_eq!(want.len(), 730);
    for spec in specs() {
        let (got, rebins) = run(spec);
        assert_eq!(want, bit_finals(&got), "{spec:?}");
        assert!(
            rebins.iter().all(|&r| r == 0),
            "{spec:?}: a step reported a sort: {rebins:?}"
        );
    }
}
