//! Closed-form trajectories.
//!
//! The verification equations (paper eqs. 5–6) give the *final* position;
//! the same symmetry argument (paper Figure 2 and §III-D) determines the
//! full state at **every** step: the particle hops `±(2k+1)` cells in x
//! and `m` cells in y per step, with the x velocity alternating between 0
//! and `±2(2k+1)·h/dt`. [`state_at`] exposes that — the closed form
//! tests compare simulated state against, step by step.

use crate::charge::SimConstants;
use crate::geometry::Grid;
use crate::particle::Particle;
use crate::verify::{expected_position, expected_velocity};

/// Full analytic state of a particle at one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Steps since the particle entered the simulation.
    pub step: u64,
    pub x: f64,
    pub y: f64,
    pub vx: f64,
    pub vy: f64,
}

/// Analytic state after `steps` steps.
pub fn state_at(grid: &Grid, consts: &SimConstants, p: &Particle, steps: u64) -> TrajectoryPoint {
    let (x, y) = expected_position(grid, p, steps);
    let (vx, vy) = expected_velocity(grid, consts, p, steps);
    TrajectoryPoint {
        step: steps,
        x,
        y,
        vx,
        vy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge::{particle_charge, sign_for_direction};
    use crate::motion::advance_particle;

    fn make(grid: &Grid, col: usize, row: usize, k: u32, m: i32, dir: i8) -> Particle {
        let c = SimConstants::CANONICAL;
        let (x, y) = grid.cell_center(col, row);
        Particle {
            id: 1,
            x,
            y,
            vx: 0.0,
            vy: m as f64,
            q: particle_charge(&c, 0.5, k, sign_for_direction(col, dir)),
            x0: x,
            y0: y,
            k,
            m,
            born_at: 0,
        }
    }

    #[test]
    fn trajectory_matches_simulation_step_by_step() {
        let grid = Grid::new(16).unwrap();
        let consts = SimConstants::CANONICAL;
        let start = make(&grid, 3, 5, 1, -2, -1);
        let first = state_at(&grid, &consts, &start, 0);
        assert_eq!(first.x, start.x);
        assert_eq!(first.vx, 0.0);
        let mut sim_p = start;
        for s in 1..=40 {
            let pt = state_at(&grid, &consts, &start, s);
            advance_particle(&grid, &consts, &mut sim_p);
            assert!(
                grid.periodic_delta(sim_p.x, pt.x).abs() < 1e-9,
                "step {s}: x {} vs analytic {}",
                sim_p.x,
                pt.x
            );
            assert!(grid.periodic_delta(sim_p.y, pt.y).abs() < 1e-9);
            assert!((sim_p.vx - pt.vx).abs() < 1e-9, "step {s}: vx");
            assert!((sim_p.vy - pt.vy).abs() < 1e-9);
        }
    }
}
