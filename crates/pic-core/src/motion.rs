//! Equations of motion (paper eqs. 1–2).
//!
//! Within a time step the force on a particle — hence its acceleration — is
//! held constant (an intentional unphysicality of the kernel), so the update
//! is the exact constant-acceleration kinematics. In the kernel's reference
//! units (`dt = 1`, see [`crate::charge`]) eqs. 1–2 read
//!
//! ```text
//! x(t+1) = x(t) + (v(t) + ½·a(t))                 (eq. 1)
//! v(t+1) = v(t) + a(t)                            (eq. 2)
//! ```
//!
//! followed by a periodic wrap of the position.

use crate::charge::total_force;
use crate::geometry::Grid;
use crate::particle::Particle;

/// Advance a single particle by one time step: evaluate the total Coulomb
/// force from the containing cell's corners, integrate eqs. 1–2, and wrap
/// periodically. With `k_e/m = 1` the force *is* the acceleration.
#[inline]
pub fn advance_particle(grid: &Grid, p: &mut Particle) {
    let (ax, ay) = total_force(grid, p.x, p.y, p.q);
    advance_with_acceleration(grid, p, ax, ay);
}

/// Integrate eqs. 1–2 for a given acceleration. Split out so tests and
/// failure-injection harnesses can feed a corrupted force.
#[inline]
pub fn advance_with_acceleration(grid: &Grid, p: &mut Particle, ax: f64, ay: f64) {
    p.x = grid.wrap_coord(p.x + (p.vx + 0.5 * ax));
    p.y = grid.wrap_coord(p.y + (p.vy + 0.5 * ay));
    p.vx += ax;
    p.vy += ay;
}

/// Advance every particle in a slice by one step (serial).
pub fn advance_all(grid: &Grid, particles: &mut [Particle]) {
    for p in particles {
        advance_particle(grid, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge::{particle_charge, sign_for_direction};

    fn make(grid: &Grid, col: usize, row: usize, k: u32, m: i32, dir: i8) -> Particle {
        let (x, y) = grid.cell_center(col, row);
        Particle {
            id: 1,
            x,
            y,
            vx: 0.0,
            vy: m as f64,
            q: particle_charge(k, sign_for_direction(col, dir)),
            x0: x,
            y0: y,
            k,
            m,
            born_at: 0,
        }
    }

    #[test]
    fn one_step_moves_exactly_one_cell_right() {
        let g = Grid::new(16).unwrap();
        let mut p = make(&g, 2, 3, 0, 0, 1);
        advance_particle(&g, &mut p);
        assert!((p.x - 3.5).abs() < 1e-12, "x = {}", p.x);
        assert_eq!(p.y, 3.5);
        assert!((p.vx - 2.0).abs() < 1e-12, "vx = {}", p.vx);
        assert_eq!(p.vy, 0.0);
    }

    #[test]
    fn second_step_decelerates_back_to_rest() {
        let g = Grid::new(16).unwrap();
        let mut p = make(&g, 2, 3, 0, 0, 1);
        advance_particle(&g, &mut p);
        advance_particle(&g, &mut p);
        assert!((p.x - 4.5).abs() < 1e-12, "x = {}", p.x);
        assert!(p.vx.abs() < 1e-12, "vx must return to ~0, got {}", p.vx);
    }

    #[test]
    fn vertical_motion_is_uniform() {
        let g = Grid::new(16).unwrap();
        let mut p = make(&g, 4, 0, 0, 3, 1);
        for _ in 0..5 {
            advance_particle(&g, &mut p);
        }
        // 5 steps × 3 cells, starting at 0.5, wrapping at 16.
        assert!(
            (p.y - g.wrap_coord(0.5 + 15.0)).abs() < 1e-12,
            "y = {}",
            p.y
        );
        assert!((p.vy - 3.0).abs() < 1e-12);
    }

    #[test]
    fn leftward_drift_with_flipped_sign() {
        let g = Grid::new(16).unwrap();
        let mut p = make(&g, 2, 3, 0, 0, -1);
        advance_particle(&g, &mut p);
        assert!((p.x - 1.5).abs() < 1e-12, "x = {}", p.x);
        advance_particle(&g, &mut p);
        assert!((p.x - 0.5).abs() < 1e-12, "x = {}", p.x);
        advance_particle(&g, &mut p);
        assert!(
            (p.x - 15.5).abs() < 1e-12,
            "periodic wrap leftward, x = {}",
            p.x
        );
    }

    #[test]
    fn k_multiplies_stride_and_preserves_pattern() {
        let g = Grid::new(32).unwrap();
        let mut p = make(&g, 1, 0, 1, 0, 1); // stride 3, odd start column
        for step in 1..=6u32 {
            advance_particle(&g, &mut p);
            let want = g.wrap_coord(1.5 + 3.0 * step as f64);
            assert!(
                (p.x - want).abs() < 1e-10,
                "step {step}: x = {}, want {want}",
                p.x
            );
        }
    }

    #[test]
    fn particle_exactly_on_mesh_point_steps_finite() {
        // Regression for the r² = 0 corner guard in `coulomb`: a particle
        // sitting exactly on a mesh point shares a position with one corner
        // of its cell; a naive 0/0 there would turn the whole trajectory
        // into NaN on the first step. With the guard, the coincident corner
        // contributes zero force and the step stays finite.
        let g = Grid::new(16).unwrap();
        let mut p = make(&g, 3, 5, 0, 1, 1);
        let (x, y) = (3.0, 5.0); // bottom-left corner of cell (3, 5)
        p.x = x;
        p.y = y;
        p.x0 = x;
        p.y0 = y;
        for step in 1..=10 {
            advance_particle(&g, &mut p);
            assert!(
                p.x.is_finite() && p.y.is_finite() && p.vx.is_finite() && p.vy.is_finite(),
                "non-finite state at step {step}: {p:?}"
            );
            assert!((0.0..g.extent()).contains(&p.x), "x escaped: {}", p.x);
            assert!((0.0..g.extent()).contains(&p.y), "y escaped: {}", p.y);
        }
    }

    #[test]
    fn long_run_error_stays_bounded() {
        // The xπ = 1/2 placement makes the per-step FP error non-amplifying;
        // verify the positional error stays far below the 1e-5 verification
        // tolerance over many steps.
        let g = Grid::new(64).unwrap();
        let mut p = make(&g, 0, 0, 0, 1, 1);
        let steps = 20_000u32;
        for _ in 0..steps {
            advance_particle(&g, &mut p);
        }
        let want_x = g.wrap_coord(0.5 + steps as f64); // wraps many times
        let want_y = g.wrap_coord(0.5 + steps as f64);
        assert!(
            (p.x - want_x).abs() < 1e-7,
            "x error {} too large after {steps} steps",
            (p.x - want_x).abs()
        );
        assert!((p.y - want_y).abs() < 1e-7);
    }
}
