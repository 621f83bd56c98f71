//! The oracle: the kernel specification run as plainly as it can be — one
//! `Vec<Particle>`, one particle at a time, events by their own rules.
//!
//! Every implementation (the binned serial engine, every rank loop under
//! every balancer) must end in exactly the population this run ends in:
//! same ids, same position and velocity bits. Particles never interact, so
//! a layout, a traversal order or a decomposition may change the order of
//! the sweep but not one bit of a trajectory. The oracle shares nothing
//! with what it judges beyond the specification itself — force and motion
//! ([`crate::motion`]), placement and the event rules ([`crate::init`]) —
//! and none of [`crate::bin`], [`crate::simd`] or [`crate::soa`]; its
//! removal selects with an id set, where the stores apply
//! [`crate::events::EventLedger`]'s cutoff. It is a test oracle: no driver
//! or runtime calls it.

use crate::events::EventKind;
use crate::init::{apply_removal, build_injection, SimulationSetup};
use crate::motion::advance_all;
use crate::particle::Particle;

/// Run `setup` for `steps` steps — at the start of each step the events due
/// at it, in schedule order, then one sweep — and return the population in
/// ascending-id order.
pub fn run(setup: SimulationSetup, steps: u32) -> Vec<Particle> {
    let SimulationSetup {
        grid,
        consts,
        mut particles,
        mut events,
        mut next_id,
    } = setup;
    events.sort_by_key(|e| e.at_step);
    let mut due = events.iter().peekable();
    for step in 0..steps {
        while let Some(e) = due.next_if(|e| e.at_step == step) {
            match e.kind {
                EventKind::Inject { count, k, m, dir } => particles.extend(build_injection(
                    grid,
                    consts,
                    e.region,
                    count,
                    k,
                    m,
                    dir,
                    step,
                    &mut next_id,
                )),
                EventKind::Remove { count } => {
                    apply_removal(&mut particles, e.region, count);
                }
            }
        }
        advance_all(&grid, &consts, &mut particles);
    }
    particles.sort_unstable_by_key(|p| p.id);
    particles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::events::{Event, Region};
    use crate::geometry::Grid;
    use crate::init::InitConfig;
    use crate::verify::{triangular_id_sum, verify_all, DEFAULT_TOLERANCE};

    #[test]
    fn events_fire_at_their_step_and_the_run_verifies() {
        let grid = Grid::new(32).unwrap();
        let corner = Region {
            x0: 0,
            x1: 8,
            y0: 0,
            y1: 8,
        };
        let setup = InitConfig::new(grid, 300, Distribution::Geometric { r: 0.9 })
            .with_k(1)
            .with_m(-1)
            .build()
            .unwrap()
            // Added out of order, and one past the last step.
            .with_event(Event::remove(12, Region::whole(32), 50))
            .with_event(Event::inject(0, corner, 40, 0, 1, -1))
            .with_event(Event::inject(30, corner, 99, 0, 1, 1));
        let finals = run(setup, 30);
        assert_eq!(finals.len(), 300 + 40 - 50);
        assert!(finals.windows(2).all(|w| w[0].id < w[1].id));
        // The removal took the 50 lowest ids, all initial particles.
        assert_eq!(finals[0].id, 51);
        let sum = triangular_id_sum(340) - triangular_id_sum(50);
        let report = verify_all(&grid, &finals, 30, sum, DEFAULT_TOLERANCE);
        assert!(report.passed(), "{report:?}");
    }
}
