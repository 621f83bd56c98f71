//! Mesh charges and the Coulomb force kernel.
//!
//! The kernel runs in the reference units of the PRK codes: cell edge
//! `h = 1`, time step `dt = 1` and mesh charge magnitude `q = 1`, with the
//! paper's normalization `k_e / m = 1`. Positions are in cells, so a
//! cell's far corner is `1.0` away and its centre `0.5`.
//!
//! Mesh points in columns with **even** x-index carry charge `+1`, odd
//! columns carry `−1` (paper §III-C, Figure 2). At every time step, each
//! particle interacts only with the four charges at the corners of the cell
//! containing it; the total Coulomb force determines its acceleration for
//! the whole step (`F = m·a` with `k_e / m = 1`).
//!
//! The arithmetic here is written so that the *same* sequence of operations
//! computes the geometric factor during particle-charge assignment
//! ([`charge_denominator`]) and during the per-step force evaluation
//! ([`total_force`]). That is the paper's "certain reordering constraints":
//! it keeps the realized per-step displacement within one ulp of the exact
//! `2k+1` cells, so errors do not accumulate over thousands of steps.

use crate::geometry::Grid;

/// Charge at a mesh point in column `col`: `+1` for even columns, `−1` for
/// odd columns. The row does not matter — all cells in a column are of the
/// same type (paper §III-D).
#[inline]
pub fn mesh_charge(col: usize) -> f64 {
    if col.is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

/// Coulomb force exerted *on* a charge `q2` located at displacement
/// `(dx, dy)` from a charge `q1` (displacement points from `q1` to the
/// particle). Returns the `(fx, fy)` force components with `k_e = 1`.
///
/// Same-sign charges give a force along `(dx, dy)` (repulsive); opposite
/// signs reverse it (attractive).
///
/// The evaluation costs one square root and one division per corner:
/// `f⃗ = q1·q2/(r²·r) · (dx, dy)`. Because this function is the *only*
/// force arithmetic in the kernel — charge assignment
/// ([`charge_denominator`]) and every sweep's per-step evaluation all
/// route through it — the paper's reordering constraint (assignment and
/// realized force computed by the same operation sequence) is preserved by
/// construction, and every sweep layout stays bit-identical to the AoS
/// oracle ([`crate::reference`]).
///
/// A particle sitting exactly on a mesh corner (`r² = 0`) receives zero
/// force from that corner instead of the `0/0 → NaN` a naive evaluation
/// would produce; the selection is written value-wise (not as an early
/// return) so the inner sweep loops stay branch-free and vectorizable.
#[inline]
pub(crate) fn coulomb(dx: f64, dy: f64, q1: f64, q2: f64) -> (f64, f64) {
    let r2 = dx * dx + dy * dy;
    let f_over_r = q1 * q2 / (r2 * r2.sqrt());
    let f_over_r = if r2 == 0.0 { 0.0 } else { f_over_r };
    (f_over_r * dx, f_over_r * dy)
}

/// The magnitude half of a lane-wise `coulomb`: `f/r = q1·q2/(r²·√r²)`,
/// zero at zero distance, by the identical operation sequence — two
/// squares, one add, one sqrt, two multiplies, one divide, the
/// zero-distance value select — applied to one particle per lane; the
/// caller multiplies by `dx` and `dy`. Because every lane operation is
/// IEEE-754 correctly rounded and no term is reassociated or fused, each
/// lane's result is bit-identical to the scalar evaluation on that lane's
/// operands (DESIGN.md §10). It depends on `dx` and `dy` only through
/// their squares and on the charges only through their product, which is
/// what lets the span kernel share it between the two corners of a column
/// (top from bottom) and between the two columns (right from left,
/// negated) when [`mid_cell_lanes`] holds on that axis.
#[inline(always)]
pub(crate) fn f_over_r_lanes<V: crate::simd::Lanes>(dx: V, dy: V, q1: V, q2: V) -> V {
    let r2 = dx.mul(dx).add(dy.mul(dy));
    q1.mul(q2).div(r2.mul(r2.sqrt())).zero_where_zero(r2)
}

/// The premise of the span kernel's corner fold (DESIGN.md §10), for
/// either axis: in every lane the far-corner displacement `rh = r − 1` the
/// kernel computed is *exactly* the negated near one, i.e. the particle
/// sits at cell mid-height (`r = ry`) or mid-width (`r = rx`). Then
/// `rh·rh ≡ r·r`, so the far corner's `r²` carries the near corner's bits,
/// and `r ≠ 0` (`r − 1 == −r` fails at `r = 0`), so neither `r²` is
/// zero. No tolerance: one lane one ulp off (or NaN) is `false`,
/// and the kernel evaluates the corners along that axis.
#[inline(always)]
pub(crate) fn mid_cell_lanes<V: crate::simd::Lanes>(r: V, rh: V) -> bool {
    rh.all_eq(V::splat(0.0).sub(r))
}

/// Total Coulomb force on a particle with charge `qp` at position `(x, y)`
/// from the four fixed charges at the corners of its containing cell.
///
/// Corner charges are derived from the column parity rule; no mesh array is
/// required (the mesh is formulaic) and none is kept — the modeled runs
/// charge for migrating one (`CostModel::migration_ns`), the functional
/// runs do not store it.
#[inline]
pub fn total_force(grid: &Grid, x: f64, y: f64, qp: f64) -> (f64, f64) {
    let (col, row) = grid.cell_of_point(x, y);
    // Displacements from the four corners to the particle. Note the right
    // corners sit at column col+1, which may be the periodic image of
    // column 0; because the grid has an even number of columns, the parity
    // of col+1 is the parity of the *physical* mesh column either way.
    let rx = x - col as f64;
    let ry = y - row as f64;
    let q_left = mesh_charge(col);
    let q_right = mesh_charge(col + 1);

    let (fx0, fy0) = coulomb(rx, ry, q_left, qp); // bottom-left
    let (fx1, fy1) = coulomb(rx, ry - 1.0, q_left, qp); // top-left
    let (fx2, fy2) = coulomb(rx - 1.0, ry, q_right, qp); // bottom-right
    let (fx3, fy3) = coulomb(rx - 1.0, ry - 1.0, q_right, qp); // top-right

    // Pair the symmetric contributions (bottom+top of each column) so the
    // y-components cancel bit-exactly when ry == 1/2.
    ((fx0 + fx1) + (fx2 + fx3), (fy0 + fy1) + (fy2 + fy3))
}

/// The denominator of paper eq. 3, `cos θ / d1² + cos φ / d2²`, for a
/// particle at the cell centre `x_π = 1/2` (where every particle is
/// placed), evaluated through the same `coulomb` kernel used at run time
/// so the assigned charge and the realized force agree to within rounding.
///
/// This equals half the magnitude of the horizontal acceleration the
/// particle would feel with unit charge (the other half coming from the
/// second corner of each column).
#[inline]
pub fn charge_denominator() -> f64 {
    // Unit-charge force from one bottom-left corner and one bottom-right
    // corner at vertical offset 1/2; cos θ / d1² is exactly the x-component
    // of the unit Coulomb force from the left corner. The operands are the
    // sweep's own at the centre: `rx = ry = 0.5`, `rx − 1`.
    let c = 0.5;
    let (fx_left, _) = coulomb(c, c, 1.0, 1.0);
    let (fx_right, _) = coulomb(c - 1.0, c, -1.0, 1.0);
    fx_left + fx_right
}

/// Particle charge per paper eq. 3 at the cell centre, for odd multiple
/// `2k+1`, with `sign = ±1` selecting the orientation of the charge
/// relative to the containing column's mesh charge.
///
/// A particle whose charge has the *same* sign as its column's mesh charge
/// is pushed towards increasing x; opposite sign pushes it towards
/// decreasing x.
#[inline]
pub fn particle_charge(k: u32, sign: f64) -> f64 {
    let base = 1.0 / charge_denominator();
    sign * (2.0 * k as f64 + 1.0) * base
}

/// Charge sign that makes a particle initially in cell column `col` drift in
/// direction `dir` (+1 → towards increasing x, −1 → decreasing x).
///
/// Paper §III-E1: particles with positive charge in even columns (and
/// negative in odd columns) shift right; flipping the sign flips the drift.
#[inline]
pub fn sign_for_direction(col: usize, dir: i8) -> f64 {
    debug_assert!(dir == 1 || dir == -1);
    mesh_charge(col) * dir as f64
}

/// Drift direction (+1/−1) implied by a particle's charge sign and its
/// initial cell column — the inverse of [`sign_for_direction`].
#[inline]
pub fn direction_from_charge(col: usize, qp: f64) -> i8 {
    if mesh_charge(col) * qp > 0.0 {
        1
    } else {
        -1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_charge_alternates_by_column() {
        assert_eq!(mesh_charge(0), 1.0);
        assert_eq!(mesh_charge(1), -1.0);
        assert_eq!(mesh_charge(2), 1.0);
        assert_eq!(mesh_charge(5997), -1.0);
    }

    #[test]
    fn coulomb_repulsive_same_sign() {
        let (fx, fy) = coulomb(1.0, 0.0, 1.0, 1.0);
        assert!(fx > 0.0, "same-sign charges must repel");
        assert_eq!(fy, 0.0);
        let (fx, _) = coulomb(1.0, 0.0, 1.0, -1.0);
        assert!(fx < 0.0, "opposite-sign charges must attract");
    }

    #[test]
    fn coulomb_coincident_corner_contributes_zero_force() {
        // r² = 0 must not produce 0/0 = NaN: a particle exactly on a mesh
        // corner gets no force contribution from that corner.
        let (fx, fy) = coulomb(0.0, 0.0, 1.0, 1.0);
        assert_eq!(fx, 0.0);
        assert_eq!(fy, 0.0);
        // The other three corners still contribute finite force.
        let g = Grid::new(8).unwrap();
        let (ax, ay) = total_force(&g, 3.0, 5.0, 0.7);
        assert!(ax.is_finite() && ay.is_finite(), "ax={ax} ay={ay}");
    }

    #[test]
    fn coulomb_magnitude_inverse_square() {
        let (f1, _) = coulomb(1.0, 0.0, 1.0, 1.0);
        let (f2, _) = coulomb(2.0, 0.0, 1.0, 1.0);
        assert!((f1 / f2 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn vertical_force_cancels_on_axis_of_symmetry() {
        let g = Grid::new(8).unwrap();
        // Any relative x, y exactly at cell mid-height.
        for x in [0.5, 1.25, 3.75, 6.5] {
            let (_, fy) = total_force(&g, x, 2.5, 0.7);
            assert_eq!(fy, 0.0, "fy must cancel bit-exactly at ry = 0.5 (x={x})");
        }
    }

    #[test]
    fn horizontal_force_direction_matches_column_parity() {
        let g = Grid::new(8).unwrap();
        // Positive particle in even column: pushed right.
        let (fx, _) = total_force(&g, 0.5, 0.5, 1.0);
        assert!(fx > 0.0);
        // Positive particle in odd column: pushed left.
        let (fx, _) = total_force(&g, 1.5, 0.5, 1.0);
        assert!(fx < 0.0);
        // Negative particle in odd column: pushed right.
        let (fx, _) = total_force(&g, 1.5, 0.5, -1.0);
        assert!(fx > 0.0);
    }

    #[test]
    fn assigned_charge_yields_exact_unit_acceleration() {
        // With charge from eq. 3 (k = 0), the acceleration magnitude must be
        // 2 to within an ulp, giving a displacement of one cell in the first
        // step.
        let g = Grid::new(8).unwrap();
        for col in 0..4usize {
            let qp = particle_charge(0, sign_for_direction(col, 1));
            let (x, y) = g.cell_center(col, 0);
            let (ax, ay) = total_force(&g, x, y, qp);
            assert!((ax - 2.0).abs() < 1e-13, "col {col}: ax = {ax}, expected 2");
            assert_eq!(ay, 0.0);
        }
    }

    #[test]
    fn k_scales_acceleration_oddly() {
        let g = Grid::new(8).unwrap();
        for k in [0u32, 1, 2, 5] {
            let qp = particle_charge(k, 1.0);
            let (ax, _) = total_force(&g, 0.5, 0.5, qp);
            let want = 2.0 * (2.0 * k as f64 + 1.0);
            assert!(
                (ax - want).abs() < 1e-12 * want,
                "k={k}: ax={ax}, want {want}"
            );
        }
    }

    #[test]
    fn direction_roundtrip() {
        for col in 0..6usize {
            for dir in [1i8, -1] {
                let qp = particle_charge(3, sign_for_direction(col, dir));
                assert_eq!(direction_from_charge(col, qp), dir);
            }
        }
    }

    #[test]
    fn right_corner_parity_wraps_correctly() {
        // Particle in the last column: its right corners are the periodic
        // image of column 0, whose parity (even) equals that of column L
        // because L is even.
        let g = Grid::new(8).unwrap();
        let qp = particle_charge(0, sign_for_direction(7, 1));
        let (ax, _) = total_force(&g, 7.5, 0.5, qp);
        assert!((ax - 2.0).abs() < 1e-13, "ax={ax}");
    }
}
