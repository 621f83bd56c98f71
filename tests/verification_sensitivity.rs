//! End-to-end failure injection: the PRK's verification must catch the
//! kinds of bugs parallel implementations actually have — a misrouted
//! particle, a dropped exchange payload, a duplicated migration — and must
//! stay quiet on correct runs (no false positives over long horizons).

use pic_comm::collective::{allgatherv, alltoallv_take_into};
use pic_comm::comm::Communicator;
use pic_comm::world::run_threads;
use pic_core::motion::advance_all;
use pic_core::particle::Particle;
use pic_core::verify::{verify_all, DEFAULT_TOLERANCE};
use pic_par::decomp::Decomp2d;
use pic_prk::prelude::*;

fn setup(n: u64) -> SimulationSetup {
    InitConfig::new(Grid::new(32).unwrap(), n, Distribution::Uniform)
        .with_m(1)
        .build()
        .unwrap()
}

/// The particles of a full population owned by `rank`.
fn local_slice(decomp: &Decomp2d, grid: &Grid, rank: usize, all: &[Particle]) -> Vec<Particle> {
    all.iter()
        .filter(|p| {
            let (col, row) = grid.cell_of_point(p.x, p.y);
            decomp.owner_of_cell(col, row) == rank
        })
        .copied()
        .collect()
}

/// A deliberately buggy exchange that silently drops one particle from one
/// payload on one rank at one step — the classic "lost particle in
/// transit". The id checksum must catch it.
fn buggy_exchange(
    comm: &Communicator,
    decomp: &Decomp2d,
    grid: &Grid,
    me: usize,
    particles: &mut Vec<Particle>,
    drop_one: bool,
) {
    let mut outgoing: Vec<Vec<Particle>> = vec![Vec::new(); comm.size()];
    let mut kept = Vec::new();
    for p in particles.drain(..) {
        let (c, r) = grid.cell_of_point(p.x, p.y);
        let owner = decomp.owner_of_cell(c, r);
        if owner == me {
            kept.push(p);
        } else {
            outgoing[owner].push(p);
        }
    }
    *particles = kept;
    if drop_one {
        for v in outgoing.iter_mut() {
            if !v.is_empty() {
                v.pop(); // the bug
                break;
            }
        }
    }
    let mut incoming = Vec::new();
    alltoallv_take_into(comm, &mut outgoing, &mut incoming);
    for (src, arrivals) in incoming.into_iter().enumerate() {
        if src != me {
            particles.extend(arrivals);
        }
    }
}

fn run_with_bug(drop_at_step: Option<u32>) -> (bool, u128, u128) {
    let s = setup(400);
    let expected = s.initial_id_sum();
    let grid = s.grid;
    let outcomes = run_threads(4, |comm| {
        let decomp = Decomp2d::uniform(32, 4);
        let me = comm.rank();
        let mut particles = local_slice(&decomp, &grid, me, &s.particles);
        for step in 0..20u32 {
            advance_all(&grid, &mut particles);
            let bug = drop_at_step == Some(step) && me == 0;
            buggy_exchange(&comm, &decomp, &grid, me, &mut particles, bug);
        }
        let local = verify_all(&grid, &particles, 20, 0);
        let halves = vec![local.id_sum as u64, (local.id_sum >> 64) as u64];
        let id_sum: u128 = allgatherv(&comm, halves)
            .iter()
            .map(|w| (w[1] as u128) << 64 | w[0] as u128)
            .sum();
        (local.position_failures, id_sum)
    });
    let failures: u64 = outcomes.iter().map(|o| o.0).sum();
    (failures == 0, outcomes[0].1, expected)
}

#[test]
fn clean_run_has_no_failures_and_exact_checksum() {
    let (positions_ok, id_sum, expected) = run_with_bug(None);
    assert!(positions_ok);
    assert_eq!(id_sum, expected);
}

#[test]
fn dropped_particle_in_transit_caught_by_checksum() {
    let (positions_ok, id_sum, expected) = run_with_bug(Some(7));
    // Positions of surviving particles are still fine...
    assert!(positions_ok);
    // ...but the checksum exposes the loss.
    assert_ne!(id_sum, expected, "checksum must catch a dropped particle");
}

#[test]
fn single_force_error_caught_by_trajectory_check() {
    // Corrupt one force evaluation in one step on a 500-particle run.
    let grid = Grid::new(32).unwrap();
    let s = setup(500);
    let mut particles = s.particles.clone();
    for step in 0..30u32 {
        for (i, p) in particles.iter_mut().enumerate() {
            let (mut ax, ay) = pic_core::charge::total_force(&grid, p.x, p.y, p.q);
            if step == 13 && i == 250 {
                ax *= 1.0 + 1e-3; // one slightly wrong force, once
            }
            pic_core::motion::advance_with_acceleration(&grid, p, ax, ay);
        }
    }
    let report = verify_all(&grid, &particles, 30, s.initial_id_sum());
    assert_eq!(
        report.position_failures, 1,
        "exactly the corrupted particle fails"
    );
    assert_eq!(report.failing_ids.len(), 1);
    assert!(!report.passed());
}

#[test]
fn long_horizon_no_false_positives() {
    // 5,000 steps with a fast, wrapping configuration: verification must
    // not drift into false failures.
    let s = InitConfig::new(Grid::new(64).unwrap(), 300, Distribution::Sinusoidal)
        .with_k(2)
        .with_m(-3)
        .build()
        .unwrap();
    let mut sim = Simulation::new(s);
    sim.run(5_000);
    let report = sim.verify();
    assert!(report.passed(), "{report:?}");
    assert!(
        report.max_error < 1e-6,
        "error must stay far from tolerance: {}",
        report.max_error
    );
}

#[test]
fn duplicated_migration_caught() {
    // Simulate a VP migration bug that duplicates a particle.
    let grid = Grid::new(32).unwrap();
    let s = setup(100);
    let mut particles = s.particles.clone();
    let dup = particles[42];
    particles.push(dup);
    let report = verify_all(&grid, &particles, 0, s.initial_id_sum());
    assert!(!report.passed());
    assert_eq!(report.id_sum, s.initial_id_sum() + dup.id as u128);
}

#[test]
fn tolerance_boundary_behaviour() {
    let grid = Grid::new(32).unwrap();
    let s = setup(1);
    let mut p = s.particles[0];
    // Nudge just under and just over the tolerance.
    p.x += DEFAULT_TOLERANCE * 0.5;
    let r = verify_all(&grid, &[p], 0, p.id as u128);
    assert!(r.passed(), "under-tolerance nudge must pass");
    p.x += DEFAULT_TOLERANCE;
    let r = verify_all(&grid, &[p], 0, p.id as u128);
    assert!(!r.passed(), "over-tolerance nudge must fail");
}
