//! Self-verification (paper §III-D).
//!
//! Because every particle moves exactly `±(2k+1)` cells in x and `m` cells
//! in y per step, its final position after `s` steps is known in closed form
//! (paper eqs. 5–6):
//!
//! ```text
//! x_s = (x_0 + sign(a_x,0)·(2k+1)·s·h) mod L
//! y_s = (y_0 + m·h·s) mod L
//! ```
//!
//! The check is O(1) per particle, trivially parallel, and "even a single
//! force miscalculation will be reflected rigorously in the final result".
//! A second, independent check — the id checksum `Σ id = n(n+1)/2` — catches
//! particles lost or duplicated in transit between processors.

use crate::charge::SimConstants;
use crate::geometry::Grid;
use crate::particle::Particle;
use crate::soa::ParticleBatch;

/// Default absolute position tolerance, matching the PRK reference codes.
pub const DEFAULT_TOLERANCE: f64 = 1e-5;

/// Cap on `failing_ids` kept for diagnostics, locally and after merging.
pub const MAX_FAILING_IDS: usize = 16;

/// Expected final position of a particle after participating in
/// `steps` time steps, per paper eqs. 5–6. Exact integer-cell arithmetic:
/// the result is an exact cell center, immune to accumulation error.
pub fn expected_position(grid: &Grid, p: &Particle, steps: u64) -> (f64, f64) {
    let n = grid.ncells();
    let col = wrapped_cell(grid.cell_of(p.x0), p.cells_per_step_x(grid), steps, n);
    let row = wrapped_cell(grid.cell_of(p.y0), p.cells_per_step_y(), steps, n);
    // Preserve the sub-cell offset of the initial position (h/2 for
    // spec-conforming placements).
    let fx = p.x0 - p.x0.floor();
    let fy = p.y0 - p.y0.floor();
    (col as f64 + fx, row as f64 + fy)
}

/// The cell `(c0 + per_step·steps) mod n`, in `0..n`. Every run the
/// engines can express fits `i64` (one hardware division); the 128-bit
/// path is kept for the products that overflow it, which only a
/// hand-built `(k, steps)` reaches.
#[inline]
fn wrapped_cell(c0: usize, per_step: i64, steps: u64, n: usize) -> usize {
    let narrow = i64::try_from(steps)
        .ok()
        .and_then(|s| per_step.checked_mul(s))
        .and_then(|d| d.checked_add(c0 as i64));
    match narrow {
        Some(c) => c.rem_euclid(n as i64) as usize,
        None => (c0 as i128 + per_step as i128 * steps as i128).rem_euclid(n as i128) as usize,
    }
}

/// Expected velocity after `steps` steps (starting from the spec's rest
/// state in x): the vertical velocity is constant `m·h/dt`; the horizontal
/// velocity alternates between `0` (even step counts — the particle has
/// just decelerated back to rest) and `±2(2k+1)·h/dt` (odd step counts —
/// mid-flight between the accelerate/decelerate pair).
pub fn expected_velocity(
    grid: &Grid,
    consts: &SimConstants,
    p: &Particle,
    steps: u64,
) -> (f64, f64) {
    let vy = p.m as f64 * consts.h / consts.dt;
    let vx = if steps.is_multiple_of(2) {
        0.0
    } else {
        2.0 * p.cells_per_step_x(grid) as f64 * consts.h / consts.dt
    };
    (vx, vy)
}

/// Verify a particle's velocity against the analytic alternation. Separate
/// from the position check because the paper's specification verifies
/// positions only; this is a strictly stronger (optional) test that can
/// catch a corrupted velocity *before* it shows up as a position error in
/// the next step.
pub fn verify_velocity(
    grid: &Grid,
    consts: &SimConstants,
    p: &Particle,
    steps: u64,
    tol: f64,
) -> ParticleVerdict {
    let (evx, evy) = expected_velocity(grid, consts, p, steps);
    let error = (p.vx - evx).abs().max((p.vy - evy).abs());
    ParticleVerdict {
        id: p.id,
        ok: error <= tol,
        error,
    }
}

/// Outcome of verifying one particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParticleVerdict {
    pub id: u64,
    pub ok: bool,
    /// max(|Δx|, |Δy|) against the analytic position.
    pub error: f64,
}

/// Verify one particle that has participated in `steps` steps.
pub fn verify_particle(grid: &Grid, p: &Particle, steps: u64, tol: f64) -> ParticleVerdict {
    let (ex, ey) = expected_position(grid, p, steps);
    // Compare with minimum-image distance so an actual position of
    // L−ε and expected 0 (or vice versa) count as matching.
    let dx = grid.periodic_delta(p.x, ex).abs();
    let dy = grid.periodic_delta(p.y, ey).abs();
    let error = dx.max(dy);
    ParticleVerdict {
        id: p.id,
        ok: error <= tol,
        error,
    }
}

/// Aggregate verification report.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Number of particles checked.
    pub checked: u64,
    /// Number of particles whose position deviates beyond tolerance.
    pub position_failures: u64,
    /// Largest observed deviation.
    pub max_error: f64,
    /// Ids of the first few failing particles (diagnostics).
    pub failing_ids: Vec<u64>,
    /// Sum of ids of surviving particles.
    pub id_sum: u128,
    /// Expected id sum given the injections/removals that occurred.
    pub expected_id_sum: u128,
    /// Tolerance used.
    pub tolerance: f64,
}

impl VerifyReport {
    fn empty(expected_id_sum: u128, tol: f64) -> VerifyReport {
        VerifyReport {
            checked: 0,
            position_failures: 0,
            max_error: 0.0,
            failing_ids: Vec::new(),
            id_sum: 0,
            expected_id_sum,
            tolerance: tol,
        }
    }

    /// Fold one particle into every order-free field (`failing_ids` is the
    /// caller's); returns whether its position is within tolerance.
    #[inline]
    fn check(&mut self, grid: &Grid, p: &Particle, final_step: u32) -> bool {
        let steps = final_step.saturating_sub(p.born_at) as u64;
        let v = verify_particle(grid, p, steps, self.tolerance);
        self.checked += 1;
        self.id_sum += p.id as u128;
        self.max_error = self.max_error.max(v.error);
        self.position_failures += !v.ok as u64;
        v.ok
    }

    /// True if both the trajectory check and the checksum pass.
    pub fn passed(&self) -> bool {
        self.position_failures == 0 && self.id_sum == self.expected_id_sum
    }

    /// Merge reports from disjoint particle subsets (e.g. per-rank
    /// verification in the parallel implementations).
    pub fn merge(mut self, other: &VerifyReport) -> VerifyReport {
        self.checked += other.checked;
        self.position_failures += other.position_failures;
        self.max_error = self.max_error.max(other.max_error);
        self.id_sum += other.id_sum;
        for &id in &other.failing_ids {
            if self.failing_ids.len() < MAX_FAILING_IDS {
                self.failing_ids.push(id);
            }
        }
        self
    }
}

/// Verify a set of particles at final step `final_step`; each particle has
/// participated in `final_step − born_at` steps. `expected_id_sum` comes
/// from the engine's ledger (or `n(n+1)/2` when no events fired).
pub fn verify_all(
    grid: &Grid,
    particles: &[Particle],
    final_step: u32,
    expected_id_sum: u128,
    tol: f64,
) -> VerifyReport {
    let mut report = VerifyReport::empty(expected_id_sum, tol);
    for p in particles {
        if !report.check(grid, p, final_step) && report.failing_ids.len() < MAX_FAILING_IDS {
            report.failing_ids.push(p.id);
        }
    }
    report
}

/// [`verify_all`] folded over an SoA store in *storage* order, with no AoS
/// copy and no sort: every field but `failing_ids` is order-free, and
/// `failing_ids` is the [`MAX_FAILING_IDS`] smallest failing ids,
/// ascending — exactly what `verify_all` reports for the same population
/// in canonical (ascending-id) order.
pub fn verify_batch(
    grid: &Grid,
    batch: &ParticleBatch,
    final_step: u32,
    expected_id_sum: u128,
    tol: f64,
) -> VerifyReport {
    let mut report = VerifyReport::empty(expected_id_sum, tol);
    let mut failing = Vec::new();
    for i in 0..batch.len() {
        let p = batch.get(i);
        if !report.check(grid, &p, final_step) {
            failing.push(p.id);
            if failing.len() == 2 * MAX_FAILING_IDS {
                failing.sort_unstable();
                failing.truncate(MAX_FAILING_IDS);
            }
        }
    }
    failing.sort_unstable();
    failing.truncate(MAX_FAILING_IDS);
    report.failing_ids = failing;
    report
}

/// Convenience: the closed-form checksum `n(n+1)/2` for an event-free run.
pub fn triangular_id_sum(n: u64) -> u128 {
    n as u128 * (n as u128 + 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge::{particle_charge, sign_for_direction};

    fn particle_at(grid: &Grid, col: usize, row: usize, k: u32, m: i32, dir: i8) -> Particle {
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
    fn expected_position_wraps_right() {
        let g = Grid::new(8).unwrap();
        let p = particle_at(&g, 6, 0, 0, 0, 1);
        let (x, y) = expected_position(&g, &p, 3);
        assert_eq!((x, y), (1.5, 0.5)); // 6 + 3 mod 8 = 1
    }

    #[test]
    fn expected_position_wraps_left_and_down() {
        let g = Grid::new(8).unwrap();
        let p = particle_at(&g, 1, 2, 1, -3, -1);
        // dx = −3/step for 5 steps: 1 − 15 = −14 mod 8 = 2.
        // dy = −3·5 = −15: 2 − 15 = −13 mod 8 = 3.
        let (x, y) = expected_position(&g, &p, 5);
        assert_eq!((x, y), (2.5, 3.5));
    }

    #[test]
    fn expected_position_huge_step_count_no_overflow() {
        let g = Grid::new(5998).unwrap();
        let mut p = particle_at(&g, 0, 0, u32::MAX / 2, 1, 1);
        p.k = 1_000_000_000;
        let (x, _) = expected_position(&g, &p, u64::from(u32::MAX));
        assert!((0.0..g.extent()).contains(&x));
    }

    #[test]
    fn narrow_cell_arithmetic_matches_wide_and_falls_back_on_overflow() {
        let wide = |c0: usize, per_step: i64, steps: u64, n: usize| {
            (c0 as i128 + per_step as i128 * steps as i128).rem_euclid(n as i128) as usize
        };
        let mut rng = crate::rng::SplitMix64::seed_from_u64(65537);
        for case in 0..20_000 {
            let n = 2 * rng.gen_range(1..3000);
            let c0 = rng.gen_range(0..n);
            // Strides up to ±(2·u32::MAX + 1) and m over all of i32; step
            // counts from a handful up to all of u64, so both the i64
            // path and the overflow fallback are drawn.
            let per_step = (rng.next_u64() >> (30 + case % 34)) as i64 - (1 << (33 - case % 34));
            let steps = rng.next_u64() >> (case % 64);
            assert_eq!(
                wrapped_cell(c0, per_step, steps, n),
                wide(c0, per_step, steps, n),
                "c0={c0} per_step={per_step} steps={steps} n={n}"
            );
        }
        // The extremes, by hand: the product alone overflows i64, then
        // only the final add does.
        let stride = 2 * u32::MAX as i64 + 1;
        for (c0, per_step, steps) in [
            (7, stride, u64::MAX),
            (7, -stride, u64::MAX),
            (5997, 1, i64::MAX as u64),
            (0, i64::from(i32::MIN), u64::from(u32::MAX)),
        ] {
            assert_eq!(
                wrapped_cell(c0, per_step, steps, 5998),
                wide(c0, per_step, steps, 5998)
            );
        }
    }

    /// The streamed SoA fold reports what `verify_all` reports for the
    /// canonical (ascending-id) view, field for field — on a clean store
    /// and on one with more failures than `failing_ids` holds, scattered
    /// through a storage order that a rebin has shuffled.
    #[test]
    fn streamed_report_equals_canonical_verify_all() {
        use crate::bin::BinnedStore;
        use crate::dist::Distribution;
        use crate::init::InitConfig;
        let grid = Grid::new(32).unwrap();
        let consts = SimConstants::CANONICAL;
        let ps = InitConfig::new(grid, 900, Distribution::Geometric { r: 0.9 })
            .with_k(1)
            .with_m(-1)
            .build()
            .unwrap()
            .particles;
        let mut store = BinnedStore::new(&ps, &grid, 3);
        for _ in 0..20 {
            store.advance_all(&grid, &consts, 64);
        }
        // The population has wrapped around the grid: sorting it by its
        // current columns leaves the ids out of order.
        store.rebin(&grid);
        let ids = &store.batch().id;
        assert!(ids.windows(2).any(|w| w[0] > w[1]), "storage is canonical");
        let sum = triangular_id_sum(900);
        let clean = verify_batch(&grid, store.batch(), 20, sum, DEFAULT_TOLERANCE);
        assert!(clean.passed() && clean.checked == 900, "{clean:?}");
        assert_eq!(
            clean,
            verify_all(&grid, &store.to_particles(), 20, sum, DEFAULT_TOLERANCE)
        );
        // 40 failures (> 2·MAX_FAILING_IDS, so the bounded id buffer
        // compacts mid-scan).
        for j in 0..40 {
            let idx = (j * 37 + 11) % 900;
            let mut p = store.particle_at(idx);
            p.x = grid.wrap_coord(p.x + 1.0 + j as f64 * 0.125);
            store.set(idx, p);
        }
        let streamed = verify_batch(&grid, store.batch(), 20, sum, DEFAULT_TOLERANCE);
        assert_eq!(streamed.position_failures, 40);
        assert_eq!(streamed.failing_ids.len(), MAX_FAILING_IDS);
        assert_eq!(
            streamed,
            verify_all(&grid, &store.to_particles(), 20, sum, DEFAULT_TOLERANCE)
        );
    }

    #[test]
    fn verdict_catches_single_cell_error() {
        let g = Grid::new(8).unwrap();
        let mut p = particle_at(&g, 0, 0, 0, 0, 1);
        p.x = 2.5; // pretend it moved 2 cells in 1 step instead of 1
        let v = verify_particle(&g, &p, 1, DEFAULT_TOLERANCE);
        assert!(!v.ok);
        assert!((v.error - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdict_accepts_exact_position() {
        let g = Grid::new(8).unwrap();
        let mut p = particle_at(&g, 0, 0, 0, 2, 1);
        p.x = 3.5;
        p.y = g.wrap_coord(0.5 + 6.0);
        let v = verify_particle(&g, &p, 3, DEFAULT_TOLERANCE);
        assert!(v.ok, "error = {}", v.error);
        assert_eq!(v.error, 0.0);
    }

    #[test]
    fn periodic_seam_not_a_false_failure() {
        let g = Grid::new(8).unwrap();
        let mut p = particle_at(&g, 7, 0, 0, 0, 1);
        // After one step the particle should be at 0.5; simulate a tiny
        // rounding of the actual slightly below L instead.
        p.x = 8.0 - 1e-9;
        // expected = 0.5 → naive |p.x − 0.5| = 7.5 would fail, but the
        // expected cell for one step from col 7 is col 0 (x = 0.5), and
        // p.x = L−ε is distance 0.5+ε away — that *is* a failure.
        let v = verify_particle(&g, &p, 1, DEFAULT_TOLERANCE);
        assert!(!v.ok);
        // But p.x = 0.5 − tiny wraps cleanly:
        p.x = 0.5 - 1e-9;
        let v = verify_particle(&g, &p, 1, DEFAULT_TOLERANCE);
        assert!(v.ok);
    }

    #[test]
    fn report_checksum_mismatch_fails() {
        let g = Grid::new(8).unwrap();
        let ps = vec![particle_at(&g, 0, 0, 0, 0, 1)];
        let r = verify_all(&g, &ps, 0, 99, DEFAULT_TOLERANCE);
        assert_eq!(r.id_sum, 1);
        assert!(!r.passed(), "wrong checksum must fail");
        let r = verify_all(&g, &ps, 0, 1, DEFAULT_TOLERANCE);
        assert!(r.passed());
    }

    #[test]
    fn merge_accumulates() {
        let g = Grid::new(8).unwrap();
        let a = vec![particle_at(&g, 0, 0, 0, 0, 1)];
        let mut b0 = particle_at(&g, 2, 0, 0, 0, 1);
        b0.id = 2;
        b0.x = 7.5; // wrong
        let ra = verify_all(&g, &a, 0, 0, DEFAULT_TOLERANCE);
        let rb = verify_all(&g, &[b0], 0, 0, DEFAULT_TOLERANCE);
        let mut merged = ra.merge(&rb);
        merged.expected_id_sum = 3;
        assert_eq!(merged.checked, 2);
        assert_eq!(merged.position_failures, 1);
        assert_eq!(merged.id_sum, 3);
        assert_eq!(merged.failing_ids, vec![2]);
        assert!(!merged.passed());
    }

    #[test]
    fn triangular_sum() {
        assert_eq!(triangular_id_sum(0), 0);
        assert_eq!(triangular_id_sum(1), 1);
        assert_eq!(triangular_id_sum(6_400_000), 6_400_000u128 * 6_400_001 / 2);
    }

    #[test]
    fn velocity_alternates_between_rest_and_double_stride() {
        use crate::motion::advance_particle;
        let g = Grid::new(16).unwrap();
        let c = SimConstants::CANONICAL;
        let mut p = particle_at(&g, 0, 0, 1, 2, 1); // stride 3 rightward
        for s in 1..=9u64 {
            advance_particle(&g, &c, &mut p);
            let v = verify_velocity(&g, &c, &p, s, 1e-9);
            assert!(v.ok, "step {s}: vx = {}, error {}", p.vx, v.error);
            let (evx, _) = expected_velocity(&g, &c, &p, s);
            if s % 2 == 1 {
                assert!((evx - 6.0).abs() < 1e-12, "odd step evx {evx}");
            } else {
                assert_eq!(evx, 0.0);
            }
        }
    }

    #[test]
    fn velocity_corruption_detected() {
        let g = Grid::new(16).unwrap();
        let c = SimConstants::CANONICAL;
        let mut p = particle_at(&g, 0, 0, 0, 1, 1);
        p.vx = 0.5; // should be 0 at step 0
        let v = verify_velocity(&g, &c, &p, 0, DEFAULT_TOLERANCE);
        assert!(!v.ok);
        // Position check alone would NOT see this yet.
        let pos = verify_particle(&g, &p, 0, DEFAULT_TOLERANCE);
        assert!(pos.ok);
    }

    #[test]
    fn injected_particle_verified_over_partial_run() {
        let g = Grid::new(8).unwrap();
        let mut p = particle_at(&g, 0, 0, 0, 0, 1);
        p.born_at = 10;
        // Participates in 5 steps of a 15-step run → expected col 5.
        p.x = 5.5;
        let r = verify_all(&g, &[p], 15, 1, DEFAULT_TOLERANCE);
        assert!(r.passed(), "{r:?}");
    }
}
