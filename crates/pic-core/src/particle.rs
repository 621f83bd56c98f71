//! Particle records.
//!
//! Following the PRK reference implementations, every particle carries its
//! initial position and the analytic motion parameters (`k`, `m`) alongside
//! its dynamic state, so verification is O(1) per particle and can be
//! performed by *whichever rank holds the particle at the end* — no global
//! gather required.

use crate::charge::direction_from_charge;
use crate::geometry::Grid;

/// A charged particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Unique id in `1..=n` (ids of injected particles continue the range).
    /// The id checksum `Σ id = n(n+1)/2` catches lost or duplicated
    /// particles (paper §III-D).
    pub id: u64,
    /// Current position, in `[0, L)²`.
    pub x: f64,
    pub y: f64,
    /// Current velocity.
    pub vx: f64,
    pub vy: f64,
    /// Fixed particle charge `q_π` (paper eq. 3, possibly an odd multiple).
    pub q: f64,
    /// Initial position (for verification).
    pub x0: f64,
    pub y0: f64,
    /// Horizontal speed parameter: the particle moves `2k+1` cells in x per
    /// step.
    pub k: u32,
    /// Vertical speed parameter: the particle moves `m` cells in y per step
    /// (initial velocity `m·h/dt`, paper eq. 4).
    pub m: i32,
    /// Simulation step at which the particle entered the simulation
    /// (0 for initial particles, `t'` for injected ones).
    pub born_at: u32,
}

impl Particle {
    /// Signed horizontal displacement in cells per step: `±(2k+1)`. The
    /// sign is the drift direction (+1 right / −1 left), derived from the
    /// charge sign and the parity of the initial cell column (paper eq. 5's
    /// `sign(a_x,0)`).
    #[inline]
    pub(crate) fn cells_per_step_x(&self, grid: &Grid) -> i64 {
        stride_x(grid.cell_of(self.x0), self.q, self.k)
    }

    /// Vertical displacement in cells per step.
    #[inline]
    pub(crate) fn cells_per_step_y(&self) -> i64 {
        self.m as i64
    }
}

/// [`Particle::cells_per_step_x`] from its fields: the initial column
/// `col0`, the charge and `k`.
#[inline]
pub(crate) fn stride_x(col0: usize, q: f64, k: u32) -> i64 {
    direction_from_charge(col0, q) as i64 * (2 * k as i64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u64) -> Particle {
        Particle {
            id,
            x: 3.5,
            y: 7.5,
            vx: -2.0,
            vy: 1.0,
            q: -0.3535533905932738,
            x0: 1.5,
            y0: 7.5,
            k: 2,
            m: -1,
            born_at: 17,
        }
    }

    #[test]
    fn direction_from_initial_cell() {
        let g = Grid::new(8).unwrap();
        // Even initial column + positive charge → right.
        let mut p = sample(1);
        p.x0 = 0.5;
        p.q = 0.35;
        assert_eq!(p.cells_per_step_x(&g), 5); // k = 2
        p.q = -0.35;
        assert_eq!(p.cells_per_step_x(&g), -5);
        // Odd initial column flips the rule.
        p.x0 = 1.5;
        assert_eq!(p.cells_per_step_x(&g), 5);
    }
}
