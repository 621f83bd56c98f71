//! The AMPI rank loop runs no timer rebin (DESIGN.md §9): its route drains
//! every column every step, so no ordered region survives for a counting
//! sort to serve. `kernel.rebin` therefore cannot change a result, and the
//! traced `rebins` counter audits that the sort only runs after a
//! structural edit. Also passes under `PIC_NO_SIMD=1`.

use pic_ampi::model::AmpiParams;
use pic_ampi::runtime::run_ampi_traced;
use pic_ampi::Balancer;
use pic_comm::world::run_threads;
use pic_core::bin::DEFAULT_REBIN;
use pic_core::dist::Distribution;
use pic_core::engine::Simulation;
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_core::particle::Particle;
use pic_par::runner::{ParConfig, RankKernel};
use pic_trace::{Counter, Tracer};

const STEPS: u32 = 3 * DEFAULT_REBIN + 2;
/// The removal (a structural edit: the store goes dirty) fires first, the
/// injection (tail appends: it does not) later.
const REMOVE_AT: u32 = 12;
const INJECT_AT: u32 = 30;

fn cfg(kernel: RankKernel) -> ParConfig {
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
    .with_event(Event::remove(REMOVE_AT, Region::whole(32), 60))
    .with_event(Event::inject(INJECT_AT, region, 90, 1, -2, -1));
    ParConfig::new(setup, STEPS).with_kernel(kernel)
}

/// Run on 4 cores; returns every core's final particles and core 0's
/// per-step `rebins` counter (one record per step).
fn run(kernel: RankKernel) -> (Vec<Particle>, Vec<u64>) {
    let cfg = cfg(kernel);
    let params = AmpiParams {
        d: 4,
        interval: 5,
        balancer: Balancer::paper_default(),
    };
    let mut results = run_threads(4, |comm| {
        let mut tracer = if comm.rank() == 0 {
            Tracer::in_memory(1)
        } else {
            Tracer::disabled()
        };
        let o = run_ampi_traced(&comm, &cfg, &params, &mut tracer);
        assert!(o.verify.passed(), "{:?}", o.verify);
        assert_eq!(o.total_count, 700 - 60 + 90);
        (o, tracer.finish())
    });
    let report = results[0].1.take().expect("core 0 traced");
    assert_eq!(report.steps.len(), STEPS as usize);
    let rebins = report
        .steps
        .iter()
        .map(|s| s.counters[Counter::Rebins.idx()])
        .collect();
    let world = results.into_iter().flat_map(|(o, _)| o.local_particles);
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
fn rebin_interval_cannot_change_an_ampi_run() {
    // The reference is the single-process AoS engine, which has no rebin.
    let mut sim = Simulation::new(cfg(RankKernel::default()).setup);
    sim.run(STEPS);
    let want = bit_finals(&sim.particles());
    assert_eq!(want.len(), 730);
    for rebin in [1u32, 3, 16] {
        let (got, rebins) = run(RankKernel::default().with_rebin_interval(rebin));
        assert_eq!(want, bit_finals(&got), "rebin {rebin}");
        // Step `s` applies the events due at `s − 1` first, then sweeps:
        // the removal at REMOVE_AT dirties the store for step REMOVE_AT + 1
        // (record index REMOVE_AT), and nothing sorts it before that.
        let (before, after) = rebins.split_at(REMOVE_AT as usize);
        assert!(
            before.iter().all(|&r| r == 0),
            "rebin {rebin}: a counting sort ran with no edit pending: {before:?}"
        );
        assert_eq!(after[0], 1, "rebin {rebin}: the removal must re-sort");
        // Whatever the interval, the only sort is the one the edit forces.
        assert_eq!(after.iter().sum::<u64>(), 1, "rebin {rebin}: {after:?}");
    }
}
