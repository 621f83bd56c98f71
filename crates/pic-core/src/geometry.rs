//! Periodic simulation domain geometry.
//!
//! The domain is an `L × L` square with periodic boundaries in both
//! directions, tiled by square cells of size `h × h`. Following the paper's
//! exactness argument (§III-C: "Setting h equal to 1 ...") this
//! implementation fixes `h = 1`, so `L` equals the number of cells per side.
//! The paper requires `L` to be an **even** multiple of `h` so that a
//! particle crossing the periodic boundary sees the same alternating column
//! charge pattern it would in an infinite tiling.

use std::fmt;

/// The periodic cell grid. `ncells` is the number of cells per side (the
/// paper's `L/h`); it must be even and at least 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Grid {
    ncells: usize,
}

/// Error building a [`Grid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridError {
    /// The paper requires an even number of cells per side so that the
    /// alternating column charges tile the periodic boundary seamlessly.
    OddSize(usize),
    /// Fewer than two cells per side.
    TooSmall(usize),
    /// A side whose last cell index does not fit `i32`, the type the
    /// vector sweep truncates columns through (2³¹ cells at most).
    TooLarge(usize),
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::OddSize(n) => write!(
                f,
                "grid size {n} is odd; periodic boundaries require an even number of cells"
            ),
            GridError::TooSmall(n) => write!(f, "grid size {n} is too small (minimum 2)"),
            GridError::TooLarge(n) => write!(f, "grid size {n} is too large (maximum 2^31)"),
        }
    }
}

impl std::error::Error for GridError {}

impl Grid {
    /// Create a grid with `ncells × ncells` cells (`h = 1`).
    pub fn new(ncells: usize) -> Result<Self, GridError> {
        if ncells < 2 {
            return Err(GridError::TooSmall(ncells));
        }
        if !ncells.is_multiple_of(2) {
            return Err(GridError::OddSize(ncells));
        }
        if i32::try_from(ncells - 1).is_err() {
            return Err(GridError::TooLarge(ncells));
        }
        Ok(Grid { ncells })
    }

    /// Number of cells per side.
    #[inline]
    pub fn ncells(&self) -> usize {
        self.ncells
    }

    /// Physical domain extent `L` (equals `ncells` because `h = 1`).
    #[inline]
    pub fn extent(&self) -> f64 {
        self.ncells as f64
    }

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.ncells * self.ncells
    }

    /// Wrap a continuous coordinate into `[0, L)`.
    ///
    /// Particle displacements per step are bounded by `(2k+1) ≤ L` in
    /// practice, but this handles arbitrary overshoot. The wrap adds or
    /// subtracts an exact integer (`L`), so coordinates of the form
    /// `integer + 0.5` stay exact in floating point.
    #[inline]
    pub fn wrap_coord(&self, mut x: f64) -> f64 {
        let l = self.extent();
        if x >= 0.0 && x < l {
            return x;
        }
        // Handle large overshoot without a loop.
        x -= (x / l).floor() * l;
        // `floor` guarantees x in [0, l]; x == l can occur through rounding.
        if x >= l {
            x -= l;
        }
        if x < 0.0 {
            x += l;
        }
        x
    }

    /// Wrap a (possibly negative) cell index into `0..ncells`.
    #[inline]
    pub fn wrap_cell(&self, i: i64) -> usize {
        let n = self.ncells as i64;
        (((i % n) + n) % n) as usize
    }

    /// Cell column containing coordinate `x ∈ [0, L)`.
    ///
    /// The truncation narrows through `u32` before the clamp: x86-64 has
    /// no instruction for the saturating f64 → u64 cast `x as usize` asks
    /// for, and the ownership scans pay this per resident per step. The
    /// result is the same for every `f64` (NaN and negatives give 0,
    /// anything from `L` up gives `ncells − 1`) because `ncells − 1` fits
    /// `u32`, which [`Grid::new`] guarantees.
    #[inline]
    pub fn cell_of(&self, x: f64) -> usize {
        debug_assert!(
            (0.0..self.extent()).contains(&x),
            "coordinate {x} outside [0, {})",
            self.extent()
        );
        truncate_cell(x, self.ncells - 1)
    }

    /// Cell (column, row) containing the point `(x, y)`, both in `[0, L)`.
    #[inline]
    pub fn cell_of_point(&self, x: f64, y: f64) -> (usize, usize) {
        (self.cell_of(x), self.cell_of(y))
    }

    /// Center of cell `(col, row)` — the canonical initial particle
    /// position within that cell (`x_π = h/2`, paper §III-C).
    #[inline]
    pub fn cell_center(&self, col: usize, row: usize) -> (f64, f64) {
        debug_assert!(col < self.ncells && row < self.ncells);
        (col as f64 + 0.5, row as f64 + 0.5)
    }

    /// Minimum-image signed distance from `a` to `b` along one axis.
    #[inline]
    pub fn periodic_delta(&self, a: f64, b: f64) -> f64 {
        let l = self.extent();
        let mut d = b - a;
        if d > l / 2.0 {
            d -= l;
        } else if d < -l / 2.0 {
            d += l;
        }
        d
    }
}

/// `(x as usize).min(last)` for any `last` that fits `u32`, through the
/// narrow cast (see [`Grid::cell_of`]).
#[inline]
fn truncate_cell(x: f64, last: usize) -> usize {
    (x as u32 as usize).min(last)
}

/// The coordinates the cell-index tests run on a grid of `ncells` cells
/// per side: `(inside, outside)` its `[0, L)` domain — both sides of every
/// cell edge and of the domain end, both integer-width boundaries, and
/// everything that saturates (±∞, NaN, negatives).
#[cfg(test)]
pub(crate) fn cell_index_cases(ncells: usize) -> (Vec<f64>, Vec<f64>) {
    let ulp_down = |x: f64| f64::from_bits(x.to_bits() - 1);
    let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
    let (two31, two32) = ((1u64 << 31) as f64, (1u64 << 32) as f64);
    let l = ncells as f64;
    let mut inside = vec![0.0, -0.0, f64::MIN_POSITIVE / 4.0, 0.5, ulp_down(l)];
    for c in 1..ncells {
        let c = c as f64;
        inside.extend([ulp_down(c), c, ulp_up(c)]);
    }
    let outside = vec![
        l,
        l + 1.0,
        two31 - 1.0,
        two31,
        two31 + 1.0,
        two32 - 1.0,
        two32,
        two32 + 1.0,
        1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::MIN_POSITIVE,
        -0.5,
        -1.0,
        -two32,
        -1e300,
    ];
    (inside, outside)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_rejects_odd_and_tiny() {
        assert_eq!(Grid::new(3).unwrap_err(), GridError::OddSize(3));
        assert_eq!(Grid::new(1).unwrap_err(), GridError::TooSmall(1));
        assert_eq!(Grid::new(0).unwrap_err(), GridError::TooSmall(0));
        assert!(Grid::new(2).is_ok());
        assert!(Grid::new(5998).is_ok());
    }

    /// The last cell index must fit the `i32` that the vector sweep
    /// truncates columns through: 2³¹ is the largest side that does.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn grid_rejects_a_side_wider_than_the_narrow_cast() {
        let edge = 1usize << 31;
        assert!(Grid::new(edge - 2).is_ok());
        assert!(Grid::new(edge).is_ok(), "last cell i32::MAX still fits");
        assert_eq!(
            Grid::new(edge + 2).unwrap_err(),
            GridError::TooLarge(edge + 2)
        );
        assert_eq!(
            Grid::new(usize::MAX - 1).unwrap_err(),
            GridError::TooLarge(usize::MAX - 1)
        );
    }

    /// The narrow truncation is the wide one, `(x as usize).min(last)`,
    /// on every class of `f64`: both sides of every cell edge, the domain
    /// end, both integer-width boundaries, and everything that saturates.
    #[test]
    fn narrow_cell_index_equals_the_wide_reference() {
        for ncells in [2usize, 64, 1024, 1 << 20] {
            let g = Grid::new(ncells).unwrap();
            let (inside, outside) = cell_index_cases(ncells);
            let reference = |x: f64| (x as usize).min(ncells - 1);
            for &x in inside.iter().chain(&outside) {
                assert_eq!(
                    truncate_cell(x, ncells - 1),
                    reference(x),
                    "{x:e} of {ncells}"
                );
            }
            // `cell_of` itself on its whole domain (the debug range check
            // rejects the rest before the cast).
            for &x in &inside {
                assert_eq!(g.cell_of(x), reference(x), "{x:e} of {ncells}");
            }
        }
    }

    #[test]
    fn wrap_coord_basic() {
        let g = Grid::new(10).unwrap();
        assert_eq!(g.wrap_coord(0.0), 0.0);
        assert_eq!(g.wrap_coord(9.999), 9.999);
        assert_eq!(g.wrap_coord(10.0), 0.0);
        assert_eq!(g.wrap_coord(12.5), 2.5);
        assert_eq!(g.wrap_coord(-0.5), 9.5);
        assert_eq!(g.wrap_coord(-10.5), 9.5);
        assert_eq!(g.wrap_coord(105.5), 5.5);
    }

    #[test]
    fn wrap_coord_preserves_half_offsets_exactly() {
        let g = Grid::new(5998).unwrap();
        // integer + 0.5 positions must survive wrapping bit-exactly
        for base in [-2.5f64, -5998.5, 6000.5, 11996.5, 0.5] {
            let w = g.wrap_coord(base);
            assert_eq!(w.fract().abs(), 0.5, "wrap of {base} lost exactness: {w}");
            assert!((0.0..g.extent()).contains(&w));
        }
    }

    #[test]
    fn wrap_cell_handles_negatives() {
        let g = Grid::new(8).unwrap();
        assert_eq!(g.wrap_cell(0), 0);
        assert_eq!(g.wrap_cell(7), 7);
        assert_eq!(g.wrap_cell(8), 0);
        assert_eq!(g.wrap_cell(-1), 7);
        assert_eq!(g.wrap_cell(-8), 0);
        assert_eq!(g.wrap_cell(-17), 7);
        assert_eq!(g.wrap_cell(23), 7);
    }

    #[test]
    fn cell_of_point_and_center_roundtrip() {
        let g = Grid::new(16).unwrap();
        for col in 0..16 {
            for row in [0usize, 7, 15] {
                let (x, y) = g.cell_center(col, row);
                assert_eq!(g.cell_of_point(x, y), (col, row));
            }
        }
    }

    #[test]
    fn periodic_delta_minimum_image() {
        let g = Grid::new(10).unwrap();
        assert_eq!(g.periodic_delta(1.0, 2.0), 1.0);
        assert_eq!(g.periodic_delta(9.5, 0.5), 1.0);
        assert_eq!(g.periodic_delta(0.5, 9.5), -1.0);
    }
}
