//! Self-verification (paper §III-D).
//!
//! Because every particle moves exactly `±(2k+1)` cells in x and `m` cells
//! in y per step, its final position after `s` steps is known in closed form
//! (paper eqs. 5–6):
//!
//! ```text
//! x_s = (x_0 + sign(a_x,0)·(2k+1)·s) mod L
//! y_s = (y_0 + m·s) mod L
//! ```
//!
//! in the kernel's reference units (cells and steps, `h = dt = 1`; see
//! [`crate::charge`]). A particle passes when both coordinates lie within
//! [`DEFAULT_TOLERANCE`] of these, the one gate every run applies.
//!
//! The check is O(1) per particle, trivially parallel, and "even a single
//! force miscalculation will be reflected rigorously in the final result".
//! A second, independent check — the id checksum `Σ id = n(n+1)/2` — catches
//! particles lost or duplicated in transit between processors.

use crate::geometry::Grid;
use crate::particle::{stride_x, Particle};
use crate::soa::ParticleBatch;

/// Absolute position tolerance, in cells, matching the PRK reference codes:
/// the one verification gate.
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
    // Preserve the sub-cell offset of the initial position (1/2 for
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
/// state in x), in cells per step: the vertical velocity is constant `m`;
/// the horizontal velocity alternates between `0` (even step counts — the
/// particle has just decelerated back to rest) and `±2(2k+1)` (odd step
/// counts — mid-flight between the accelerate/decelerate pair).
pub fn expected_velocity(grid: &Grid, p: &Particle, steps: u64) -> (f64, f64) {
    let vy = p.m as f64;
    let vx = if steps.is_multiple_of(2) {
        0.0
    } else {
        2.0 * p.cells_per_step_x(grid) as f64
    };
    (vx, vy)
}

/// Outcome of verifying one particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ParticleVerdict {
    pub id: u64,
    pub ok: bool,
    /// max(|Δx|, |Δy|) against the analytic position.
    pub error: f64,
}

/// Verify one particle that has participated in `steps` steps.
pub(crate) fn verify_particle(grid: &Grid, p: &Particle, steps: u64) -> ParticleVerdict {
    let (ex, ey) = expected_position(grid, p, steps);
    // Compare with minimum-image distance so an actual position of
    // L−ε and expected 0 (or vice versa) count as matching.
    let dx = grid.periodic_delta(p.x, ex).abs();
    let dy = grid.periodic_delta(p.y, ey).abs();
    let error = dx.max(dy);
    ParticleVerdict {
        id: p.id,
        ok: error <= DEFAULT_TOLERANCE,
        error,
    }
}

/// Aggregate verification report.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Number of particles checked.
    pub checked: u64,
    /// Number of particles whose position deviates beyond [`DEFAULT_TOLERANCE`].
    pub position_failures: u64,
    /// Largest observed deviation.
    pub max_error: f64,
    /// Ids of the first few failing particles (diagnostics).
    pub failing_ids: Vec<u64>,
    /// Sum of ids of surviving particles.
    pub id_sum: u128,
    /// Expected id sum given the injections/removals that occurred.
    pub expected_id_sum: u128,
}

impl VerifyReport {
    fn empty(expected_id_sum: u128) -> VerifyReport {
        VerifyReport {
            checked: 0,
            position_failures: 0,
            max_error: 0.0,
            failing_ids: Vec::new(),
            id_sum: 0,
            expected_id_sum,
        }
    }

    /// Fold one particle, its id and its position error, into every
    /// order-free field (`failing_ids` is the caller's); returns whether
    /// the error is within tolerance.
    #[inline]
    fn fold(&mut self, id: u64, error: f64) -> bool {
        let ok = error <= DEFAULT_TOLERANCE;
        self.checked += 1;
        self.id_sum += id as u128;
        self.max_error = self.max_error.max(error);
        self.position_failures += !ok as u64;
        ok
    }

    /// True if both the trajectory check and the checksum pass.
    pub fn passed(&self) -> bool {
        self.position_failures == 0 && self.id_sum == self.expected_id_sum
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
) -> VerifyReport {
    let mut report = VerifyReport::empty(expected_id_sum);
    for p in particles {
        let steps = final_step.saturating_sub(p.born_at) as u64;
        let error = verify_particle(grid, p, steps).error;
        if !report.fold(p.id, error) && report.failing_ids.len() < MAX_FAILING_IDS {
            report.failing_ids.push(p.id);
        }
    }
    report
}

/// [`verify_all`] folded over an SoA store in *storage* order, with no AoS
/// copy and no sort: every field but `failing_ids` is order-free, and
/// `failing_ids` is the [`MAX_FAILING_IDS`] smallest failing ids,
/// ascending — exactly what `verify_all` reports for the same population
/// in canonical (ascending-id) order, bit for bit.
///
/// It reads the columns in place, and reduces each axis's displacement
/// `per_step · steps` modulo `L` once per run of particles that share it
/// (`Shift`), where [`expected_position`] reduces the start cell plus
/// the displacement once per particle: `(c0 + d) mod L` equals
/// `(c0 + (d mod L)) mod L`, and `c0 < L` makes the outer reduction one
/// conditional subtract.
pub fn verify_batch(
    grid: &Grid,
    batch: &ParticleBatch,
    final_step: u32,
    expected_id_sum: u128,
) -> VerifyReport {
    let mut report = VerifyReport::empty(expected_id_sum);
    let mut failing = Vec::new();
    let n = batch.len();
    let b = batch;
    let (id, x, y, q) = (&b.id[..n], &b.x[..n], &b.y[..n], &b.q[..n]);
    let (x0, y0, k, m, born_at) = (
        &b.x0[..n],
        &b.y0[..n],
        &b.k[..n],
        &b.m[..n],
        &b.born_at[..n],
    );
    let (mut shift_x, mut shift_y) = (Shift::default(), Shift::default());
    let side = grid.ncells();
    for i in 0..n {
        let steps = final_step.saturating_sub(born_at[i]) as u64;
        let (c0, r0) = grid.cell_of_point(x0[i], y0[i]);
        let dx = shift_x.of(stride_x(c0, q[i], k[i]), steps, side);
        let dy = shift_y.of(m[i] as i64, steps, side);
        let (ex, ey) = (moved(x0[i], c0, dx, side), moved(y0[i], r0, dy, side));
        let error = (grid.periodic_delta(x[i], ex).abs()).max(grid.periodic_delta(y[i], ey).abs());
        if !report.fold(id[i], error) {
            failing.push(id[i]);
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

/// `(per_step · steps) mod L` for the last `(per_step, steps)` pair asked,
/// so a run of particles that share the pair reduces it once. The empty
/// memo holds the pair `(0, 0)`, whose displacement is 0.
#[derive(Default)]
struct Shift {
    key: (i64, u64),
    cells: usize,
}

impl Shift {
    #[inline]
    fn of(&mut self, per_step: i64, steps: u64, n: usize) -> usize {
        if self.key != (per_step, steps) {
            self.key = (per_step, steps);
            self.cells = wrapped_cell(0, per_step, steps, n);
        }
        self.cells
    }
}

/// The coordinate of cell `(cell0 + shift) mod n` at the sub-cell offset
/// of `start`, whose cell `cell0` is, for `shift < n`: the value
/// [`expected_position`] gives on one axis. In the domain `[0, n)`, where
/// every particle starts, `start.floor()` is `cell0`, so the `floor` call
/// is left to any other start.
#[inline]
fn moved(start: f64, cell0: usize, shift: usize, n: usize) -> f64 {
    let c = cell0 + shift;
    let c = if c >= n { c - n } else { c };
    let whole = if (0.0..n as f64).contains(&start) {
        cell0 as f64
    } else {
        start.floor()
    };
    c as f64 + (start - whole)
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
    /// through the storage order of a store's two phase halves.
    #[test]
    fn streamed_report_equals_canonical_verify_all() {
        use crate::bin::BinnedStore;
        use crate::dist::Distribution;
        use crate::init::InitConfig;
        let grid = Grid::new(32).unwrap();
        let ps = InitConfig::new(grid, 900, Distribution::Geometric { r: 0.9 })
            .with_k(1)
            .with_m(-1)
            .build()
            .unwrap()
            .particles;
        let mut store = BinnedStore::new_owned(&ps, &grid, |_, _| true);
        for _ in 0..20 {
            store.advance_all(&grid, 64);
        }
        // The store keeps its two phase halves: the ids are out of order.
        let ids = &store.batch().id;
        assert!(ids.windows(2).any(|w| w[0] > w[1]), "storage is canonical");
        let sum = triangular_id_sum(900);
        let clean = verify_batch(&grid, store.batch(), 20, sum);
        assert!(clean.passed() && clean.checked == 900, "{clean:?}");
        assert_eq!(clean, verify_all(&grid, &store.to_particles(), 20, sum));
        // 40 failures (> 2·MAX_FAILING_IDS, so the bounded id buffer
        // compacts mid-scan).
        for j in 0..40 {
            let idx = (j * 37 + 11) % 900;
            let mut p = store.particle_at(idx);
            p.x = grid.wrap_coord(p.x + 1.0 + j as f64 * 0.125);
            store.set(idx, p);
        }
        let streamed = verify_batch(&grid, store.batch(), 20, sum);
        assert_eq!(streamed.position_failures, 40);
        assert_eq!(streamed.failing_ids.len(), MAX_FAILING_IDS);
        assert_eq!(streamed, verify_all(&grid, &store.to_particles(), 20, sum));
    }

    /// The streamed fold's per-run displacement memo misses whenever a
    /// particle's stride, vertical speed or age differs from the one
    /// before: populations of every `(k, m, direction)` mix, interleaved,
    /// some born late, some advanced to their expected position and some
    /// left where they started, still give `verify_all`'s report bit for
    /// bit — at final steps before, at and after every birth.
    #[test]
    fn streamed_report_equals_verify_all_over_mixed_strides_and_ages() {
        use crate::dist::Distribution;
        use crate::init::InitConfig;
        use crate::motion::advance_particle;
        let grid = Grid::new(16).unwrap();
        let mut groups = Vec::new();
        for (g, (k, m, dir)) in [(0, 0, 1), (1, -1, -1), (2, 3, 1), (0, 5, -1)]
            .into_iter()
            .enumerate()
        {
            let mut ps = InitConfig::new(grid, 40, Distribution::Uniform)
                .with_k(k)
                .with_m(m)
                .with_dir(dir)
                .build()
                .unwrap()
                .particles;
            for (j, p) in ps.iter_mut().enumerate() {
                p.id = (j * 4 + g) as u64 + 1;
                p.born_at = [0, 0, 3, 7][j % 4];
                for _ in 0..j % 3 * 2 {
                    advance_particle(&grid, p);
                }
            }
            groups.push(ps);
        }
        let mixed: Vec<Particle> = (0..40)
            .flat_map(|j| groups.iter().map(move |ps| ps[j]))
            .collect();
        let batch: ParticleBatch = mixed.iter().copied().collect();
        for final_step in [0, 2, 4, 7, 9, 40] {
            let want = verify_all(&grid, &mixed, final_step, 0);
            let got = verify_batch(&grid, &batch, final_step, 0);
            assert_eq!(
                got.max_error.to_bits(),
                want.max_error.to_bits(),
                "step {final_step}"
            );
            assert_eq!(got, want, "step {final_step}");
        }
    }

    #[test]
    fn verdict_catches_single_cell_error() {
        let g = Grid::new(8).unwrap();
        let mut p = particle_at(&g, 0, 0, 0, 0, 1);
        p.x = 2.5; // pretend it moved 2 cells in 1 step instead of 1
        let v = verify_particle(&g, &p, 1);
        assert!(!v.ok);
        assert!((v.error - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdict_accepts_exact_position() {
        let g = Grid::new(8).unwrap();
        let mut p = particle_at(&g, 0, 0, 0, 2, 1);
        p.x = 3.5;
        p.y = g.wrap_coord(0.5 + 6.0);
        let v = verify_particle(&g, &p, 3);
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
        let v = verify_particle(&g, &p, 1);
        assert!(!v.ok);
        // But p.x = 0.5 − tiny wraps cleanly:
        p.x = 0.5 - 1e-9;
        let v = verify_particle(&g, &p, 1);
        assert!(v.ok);
    }

    #[test]
    fn report_checksum_mismatch_fails() {
        let g = Grid::new(8).unwrap();
        let ps = vec![particle_at(&g, 0, 0, 0, 0, 1)];
        let r = verify_all(&g, &ps, 0, 99);
        assert_eq!(r.id_sum, 1);
        assert!(!r.passed(), "wrong checksum must fail");
        let r = verify_all(&g, &ps, 0, 1);
        assert!(r.passed());
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
        let mut p = particle_at(&g, 0, 0, 1, 2, 1); // stride 3 rightward
        for s in 1..=9u64 {
            advance_particle(&g, &mut p);
            let (evx, evy) = expected_velocity(&g, &p, s);
            let error = (p.vx - evx).abs().max((p.vy - evy).abs());
            assert!(error <= 1e-9, "step {s}: vx = {}, error {error}", p.vx);
            if s % 2 == 1 {
                assert!((evx - 6.0).abs() < 1e-12, "odd step evx {evx}");
            } else {
                assert_eq!(evx, 0.0);
            }
        }
    }

    #[test]
    fn injected_particle_verified_over_partial_run() {
        let g = Grid::new(8).unwrap();
        let mut p = particle_at(&g, 0, 0, 0, 0, 1);
        p.born_at = 10;
        // Participates in 5 steps of a 15-step run → expected col 5.
        p.x = 5.5;
        let r = verify_all(&g, &[p], 15, 1);
        assert!(r.passed(), "{r:?}");
    }
}
