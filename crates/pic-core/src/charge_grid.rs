//! Materialized mesh-charge subgrids.
//!
//! The kernel's mesh charges are formulaic (column parity), so the physics
//! never *needs* a stored mesh. The paper's implementations nevertheless
//! keep one — "the mesh points on the fringe of the 2D blocks are
//! replicated on the processors that share them (ghost cells)" — and the
//! diffusion balancer migrates border subgrids along with their particles.
//! This module materializes an owned rectangle of mesh-point charges plus a
//! one-point ghost ring, so the functional implementations carry (and
//! migrate) the same data a real port would, and so tests can prove the
//! stored-mesh force path is bit-identical to the formulaic one.

use crate::charge::{mesh_charge, CornerCharge, SimConstants};
use crate::geometry::Grid;
use crate::simd::Lanes;

/// Charges of the mesh points of an owned cell rectangle plus one ghost
/// ring. Owning cells `[x0, x1) × [y0, y1)` requires mesh points
/// `[x0, x1] × [y0, y1]`; with the ghost ring the stored index range is
/// `[x0−1, x1+1] × [y0−1, y1+1]` (periodically wrapped values).
#[derive(Debug, Clone, PartialEq)]
pub struct ChargeGrid {
    x0: usize,
    y0: usize,
    /// Owned cell counts.
    w: usize,
    h: usize,
    /// Row-major `(w + 3) × (h + 3)` mesh-point charges (owned points,
    /// shared fringe, and the ghost ring).
    data: Vec<f64>,
}

impl ChargeGrid {
    /// Materialize the subgrid for owned cells `cols × rows` of `grid`.
    pub fn build(
        grid: &Grid,
        consts: &SimConstants,
        cols: (usize, usize),
        rows: (usize, usize),
    ) -> ChargeGrid {
        let mut cg = ChargeGrid {
            x0: 0,
            y0: 0,
            w: 0,
            h: 0,
            data: Vec::new(),
        };
        cg.rebuild(grid, consts, cols, rows);
        cg
    }

    /// Re-materialize the subgrid for a new owned rectangle in place (a
    /// balancer moved this rank's bounds), keeping the allocation.
    pub fn rebuild(
        &mut self,
        grid: &Grid,
        consts: &SimConstants,
        cols: (usize, usize),
        rows: (usize, usize),
    ) {
        assert!(
            cols.0 < cols.1 && cols.1 <= grid.ncells(),
            "bad column range {cols:?}"
        );
        assert!(
            rows.0 < rows.1 && rows.1 <= grid.ncells(),
            "bad row range {rows:?}"
        );
        let w = cols.1 - cols.0;
        let h = rows.1 - rows.0;
        let stride = w + 3;
        self.data.clear();
        self.data.reserve(stride * (h + 3));
        // Charge depends only on the (wrapped) column parity: one row from
        // the formula, copied into the rest — rows are stored anyway to
        // mirror a real field array.
        self.data.extend((0..stride).map(|dx| {
            let col = grid.wrap_cell(cols.0 as i64 + dx as i64 - 1);
            mesh_charge(col, consts.q)
        }));
        for _ in 1..h + 3 {
            self.data.extend_from_within(..stride);
        }
        (self.x0, self.y0, self.w, self.h) = (cols.0, rows.0, w, h);
    }

    /// Owned cell rectangle.
    pub fn bounds(&self) -> ((usize, usize), (usize, usize)) {
        ((self.x0, self.x0 + self.w), (self.y0, self.y0 + self.h))
    }

    /// Charge at global mesh column/row. The point must lie within the
    /// stored window (owned + one ghost ring); panics otherwise — the
    /// equivalent of reading out of your halo in a real code.
    #[inline]
    pub fn charge_at(&self, col: usize, row: usize) -> f64 {
        let dx = col as i64 - (self.x0 as i64 - 1);
        let dy = row as i64 - (self.y0 as i64 - 1);
        assert!(
            dx >= 0 && (dx as usize) < self.w + 3 && dy >= 0 && (dy as usize) < self.h + 3,
            "mesh point ({col},{row}) outside stored window of owner ({},{})+{}x{}",
            self.x0,
            self.y0,
            self.w,
            self.h
        );
        self.data[dy as usize * (self.w + 3) + dx as usize]
    }

    /// The stored charges of mesh row `row` as a per-column corner-charge
    /// source for the span kernels: one contiguous `w + 3` slice, so a
    /// sweep that reads it touches a few cache lines instead of walking
    /// the whole subgrid by particle row.
    pub(crate) fn row(&self, row: usize) -> MeshRow<'_> {
        let stride = self.w + 3;
        let dy = row + 1 - self.y0;
        MeshRow {
            charges: &self.data[dy * stride..(dy + 1) * stride],
            x0: self.x0,
        }
    }

    /// Check every stored point against the formulaic pattern — the
    /// subgrid equivalent of a halo-consistency check.
    pub fn verify_against_formula(&self, grid: &Grid, consts: &SimConstants) -> bool {
        let stride = self.w + 3;
        for dy in 0..self.h + 3 {
            for dx in 0..stride {
                let col = grid.wrap_cell(self.x0 as i64 + dx as i64 - 1);
                let want = mesh_charge(col, consts.q);
                if self.data[dy * stride + dx] != want {
                    return false;
                }
            }
        }
        true
    }
}

/// One stored mesh row of a [`ChargeGrid`] ([`ChargeGrid::row`]): element
/// `col + 1 − x0` is the charge of global mesh column `col`, ghost column
/// first. Reading outside the stored window panics, like
/// [`ChargeGrid::charge_at`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct MeshRow<'a> {
    charges: &'a [f64],
    x0: usize,
}

impl CornerCharge for MeshRow<'_> {
    #[inline(always)]
    fn at(self, col: usize) -> f64 {
        self.charges[(col + 1).wrapping_sub(self.x0)]
    }

    #[inline(always)]
    fn lanes<V: Lanes>(self, col: V) -> (V, V) {
        // Widest backend (AVX-512) has eight lanes.
        let mut c = [0.0f64; 8];
        let (mut left, mut right) = ([0.0f64; 8], [0.0f64; 8]);
        assert!(V::WIDTH <= c.len());
        // SAFETY: the three arrays hold at least `V::WIDTH` elements.
        unsafe {
            col.store(c.as_mut_ptr());
            for k in 0..V::WIDTH {
                left[k] = self.at(c[k] as usize);
                right[k] = -left[k];
            }
            (V::load(left.as_ptr()), V::load(right.as_ptr()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::new(16).unwrap()
    }

    #[test]
    fn build_and_verify_interior_block() {
        let g = grid();
        let c = SimConstants::CANONICAL;
        let cg = ChargeGrid::build(&g, &c, (4, 8), (4, 8));
        assert!(cg.verify_against_formula(&g, &c));
        assert_eq!(cg.bounds(), ((4, 8), (4, 8)));
    }

    #[test]
    fn ghost_ring_wraps_periodically() {
        let g = grid();
        let c = SimConstants::CANONICAL;
        // Block touching the domain edge: its ghost column −1 is the
        // periodic image of column 15 (odd → −q), which the formula check
        // validates point by point.
        let cg = ChargeGrid::build(&g, &c, (0, 4), (0, 4));
        assert!(cg.verify_against_formula(&g, &c));
        assert_eq!(cg.charge_at(0, 0), 1.0);
        // Fringe mesh points (column x1) are stored and readable.
        assert_eq!(cg.charge_at(4, 4), 1.0);
        assert_eq!(cg.charge_at(5, 2), -1.0); // ghost column x1+1
    }

    #[test]
    #[should_panic(expected = "outside stored window")]
    fn out_of_halo_read_panics() {
        let g = grid();
        let cg = ChargeGrid::build(&g, &SimConstants::CANONICAL, (4, 8), (4, 8));
        let _ = cg.charge_at(12, 5); // two past the fringe
    }

    #[test]
    fn rebuild_in_place_equals_build() {
        let g = grid();
        let c = SimConstants::CANONICAL;
        let mut cg = ChargeGrid::build(&g, &c, (4, 8), (0, 16));
        // Grown, shrunk, shifted by an odd and an even distance, against
        // both domain edges, and a changed row range.
        for (cols, rows) in [
            ((2, 12), (0, 16)),
            ((5, 7), (0, 16)),
            ((8, 10), (0, 16)),
            ((9, 16), (0, 16)),
            ((0, 3), (0, 16)),
            ((0, 16), (4, 9)),
            ((1, 2), (15, 16)),
        ] {
            cg.rebuild(&g, &c, cols, rows);
            assert_eq!(
                cg,
                ChargeGrid::build(&g, &c, cols, rows),
                "{cols:?} x {rows:?}"
            );
            assert!(cg.verify_against_formula(&g, &c));
            assert_eq!(cg.bounds(), (cols, rows));
        }
    }

    #[test]
    fn whole_domain_grid() {
        let g = grid();
        let c = SimConstants::CANONICAL;
        let cg = ChargeGrid::build(&g, &c, (0, 16), (0, 16));
        assert!(cg.verify_against_formula(&g, &c));
        for col in 0..16 {
            for row in [0usize, 8, 15] {
                assert_eq!(cg.charge_at(col, row), mesh_charge(col, 1.0));
            }
        }
    }
}
