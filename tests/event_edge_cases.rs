//! Edge cases of the dynamic injection/removal events (§III-E5), checked
//! for graceful handling and ledger agreement across the serial engine and
//! the parallel implementations, against the AoS oracle: a removal asking
//! for more particles than the region holds, an injection into a
//! degenerate (zero-cell) region, events on the first and the last step,
//! and an event scheduled past the final step.

use pic_prk::ampi::Balancer;
use pic_prk::comm::world::run_threads;
use pic_prk::core::reference;
use pic_prk::core::verify::VerifyReport;
use pic_prk::par::diffusion::{DiffusionMode, DiffusionParams};
use pic_prk::par::runner::{ParConfig, ParOutcome};
use pic_prk::par::{run_config, BalancerSpec};
use pic_prk::prelude::*;

const N: u64 = 200;
const STEPS: u32 = 20;

fn setup(events: &[Event]) -> SimulationSetup {
    let mut s = InitConfig::new(Grid::new(32).unwrap(), N, Distribution::Uniform)
        .with_m(1)
        .build()
        .unwrap();
    for &e in events {
        s = s.with_event(e);
    }
    s
}

/// Run serial + baseline + diffusion + the VP runtime on the same setup;
/// assert every implementation verifies (its ledger agrees with its
/// population) and ends with the oracle's count and id checksum. Returns
/// the oracle's (final_count, id_sum).
fn run_all_impls(events: &[Event]) -> (u64, u128) {
    let oracle = reference::run(setup(events), STEPS);
    let want = (
        oracle.len() as u64,
        oracle.iter().map(|p| p.id as u128).sum::<u128>(),
    );
    let check_one = |name: &str, report: &VerifyReport, count: u64| {
        assert!(report.passed(), "{name}: {report:?}");
        assert_eq!((count, report.id_sum), want, "{name} vs the oracle");
    };
    let mut sim = Simulation::new(setup(events));
    sim.run(STEPS);
    check_one("serial", &sim.verify(), sim.particle_count() as u64);

    let cfg = ParConfig::new(setup(events), STEPS);
    let check = |outcomes: Vec<ParOutcome>, name: &str| {
        for o in &outcomes {
            check_one(name, &o.verify, o.total_count);
        }
    };
    check(run_threads(4, |comm| run_config(&comm, &cfg)), "baseline");
    let cfg = cfg.with_balancer(BalancerSpec::Diffusion {
        params: DiffusionParams {
            interval: 5,
            ..DiffusionParams::default()
        },
        mode: DiffusionMode::XOnly,
    });
    check(run_threads(4, |comm| run_config(&comm, &cfg)), "diffusion");
    let cfg = cfg.with_balancer(BalancerSpec::Vp {
        d: 4,
        interval: 5,
        strategy: Balancer::paper_default(),
    });
    check(run_threads(4, |comm| run_config(&comm, &cfg)), "ampi");
    want
}

#[test]
fn remove_count_exceeding_candidates_removes_only_residents() {
    // A small region holds far fewer than 10,000 particles; the removal
    // must drain exactly the residents and leave the ledger consistent.
    let small = Region {
        x0: 4,
        x1: 8,
        y0: 4,
        y1: 8,
    };
    let (count, _) = run_all_impls(&[Event::remove(5, small, 10_000)]);
    assert!(count < N, "something must have been removed");
    assert!(
        count > 0,
        "a 4x4 patch of a 32x32 uniform fill is not everyone"
    );
}

#[test]
fn remove_entire_population_leaves_empty_but_verified_run() {
    let (count, id_sum) = run_all_impls(&[Event::remove(5, Region::whole(32), N * 10)]);
    assert_eq!(count, 0);
    assert_eq!(id_sum, 0);
}

#[test]
fn inject_into_zero_cell_region_is_a_noop() {
    // Degenerate in x, and degenerate in y: `SimulationSetup::with_event`
    // skips config validation, so the engines must cope on their own.
    let flat_x = Region {
        x0: 10,
        x1: 10,
        y0: 0,
        y1: 32,
    };
    let flat_y = Region {
        x0: 0,
        x1: 32,
        y0: 7,
        y1: 7,
    };
    let events = [
        Event::inject(3, flat_x, 500, 0, 1, 1),
        Event::inject(4, flat_y, 500, 0, 1, 1),
    ];
    let (count, id_sum) = run_all_impls(&events);
    assert_eq!(count, N, "zero-cell injections must add nothing");
    assert_eq!(id_sum, (N as u128) * (N as u128 + 1) / 2);
}

#[test]
fn events_on_the_first_and_last_step_fire() {
    // Step 0 fires before the first sweep, step STEPS − 1 before the last
    // one: each pair must reach every implementation.
    let corner = Region {
        x0: 0,
        x1: 8,
        y0: 0,
        y1: 8,
    };
    let events = [
        Event::inject(0, corner, 30, 0, 1, 1),
        Event::remove(0, Region::whole(32), 20),
        Event::inject(STEPS - 1, corner, 25, 0, 1, -1),
        Event::remove(STEPS - 1, Region::whole(32), 10),
    ];
    let (count, _) = run_all_impls(&events);
    assert_eq!(count, N + 30 - 20 + 25 - 10);
}

#[test]
fn event_scheduled_past_final_step_never_fires() {
    let events = [
        Event::inject(STEPS + 50, Region::whole(32), 1_000, 0, 1, 1),
        Event::remove(STEPS + 1, Region::whole(32), N),
    ];
    let (count, id_sum) = run_all_impls(&events);
    assert_eq!(count, N);
    assert_eq!(id_sum, (N as u128) * (N as u128 + 1) / 2);
}

#[test]
fn removal_then_reinjection_at_same_step_stays_consistent() {
    // Same-step ordering: events apply in insertion order after the sort
    // by step — remove then inject at step 10 must keep ids disjoint and
    // the ledger exact.
    let mid = Region {
        x0: 8,
        x1: 24,
        y0: 8,
        y1: 24,
    };
    let events = [
        Event::remove(10, Region::whole(32), 50),
        Event::inject(10, mid, 50, 0, 1, 1),
    ];
    let (count, _) = run_all_impls(&events);
    assert_eq!(count, N, "remove 50 then inject 50");
}
