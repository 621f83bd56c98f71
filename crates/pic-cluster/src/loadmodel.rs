//! Analytic evolution of the particle distribution.
//!
//! The kernel's verification argument cuts both ways: because every
//! particle moves exactly `stride = ±(2k+1)` cells in x per step, the
//! particle count in any column range at any step is a rotation of the
//! initial per-column histogram. This module maintains that histogram as a
//! prefix-sum array and answers rectangle-count queries in O(1), letting
//! the full-scale modeled experiments run 6,000-step, 3,072-core, million-
//! particle configurations in milliseconds *without approximation* — the
//! counts are exactly what the particle-level engine would produce for
//! even-row-spread initializations (verified against it in tests).

use pic_core::dist::Distribution;

/// The rotating column histogram of a drifting particle population.
#[derive(Debug, Clone)]
pub struct ColumnLoadModel {
    /// Prefix sums of the initial per-column counts (index = original
    /// column), length `c + 1`.
    prefix: Vec<u64>,
    /// Cells per side.
    c: usize,
    /// Signed cells per step.
    stride: i64,
    /// Accumulated shift (current column `j` holds original column
    /// `(j − shift) mod c`).
    shift: i64,
    /// Total particles.
    total: u64,
    /// Row range `[lo, hi)` occupied by particles (full grid except for
    /// patch distributions). Particles are uniform across these rows.
    row_range: (usize, usize),
}

impl ColumnLoadModel {
    /// Build from an initial distribution. `k` and `dir` define the drift
    /// `stride = dir·(2k+1)` cells per step.
    pub fn new(dist: Distribution, c: usize, n: u64, k: u32, dir: i8) -> ColumnLoadModel {
        assert!(dir == 1 || dir == -1);
        assert!(c > 0);
        let counts = dist.column_counts(c, n);
        let mut prefix = Vec::with_capacity(c + 1);
        prefix.push(0u64);
        for &x in &counts {
            prefix.push(prefix.last().unwrap() + x);
        }
        let total = *prefix.last().unwrap();
        ColumnLoadModel {
            prefix,
            c,
            stride: dir as i64 * (2 * k as i64 + 1),
            shift: 0,
            total,
            row_range: dist.row_range(c),
        }
    }

    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    #[inline]
    pub fn stride(&self) -> i64 {
        self.stride
    }

    /// Advance the model by `steps` time steps.
    #[inline]
    pub fn advance(&mut self, steps: u64) {
        self.shift = (self.shift + self.stride * steps as i64).rem_euclid(self.c as i64);
    }

    /// Particle count currently in columns `[a, b)`, `a ≤ b ≤ c`.
    pub fn count_in_columns(&self, a: usize, b: usize) -> u64 {
        debug_assert!(a <= b && b <= self.c);
        if a == b {
            return 0;
        }
        let width = b - a;
        if width == self.c {
            return self.total;
        }
        let start = (a as i64 - self.shift).rem_euclid(self.c as i64) as usize;
        let end = start + width;
        if end <= self.c {
            self.prefix[end] - self.prefix[start]
        } else {
            (self.prefix[self.c] - self.prefix[start]) + self.prefix[end - self.c]
        }
    }

    /// Expected particle count in the rectangle `cols × rows` (rows as a
    /// half-open range). Exact in x; the y dimension is the uniform-row
    /// fraction (exact up to the ±1-per-cell rounding of even row spread).
    pub fn count_in_rect(&self, cols: (usize, usize), rows: (usize, usize)) -> f64 {
        let in_cols = self.count_in_columns(cols.0, cols.1) as f64;
        let (rlo, rhi) = self.row_range;
        let occ = (rhi - rlo) as f64;
        if occ == 0.0 {
            return 0.0;
        }
        let overlap = rows.1.min(rhi).saturating_sub(rows.0.max(rlo)) as f64;
        in_cols * overlap / occ
    }

    /// Particles that will cross the vertical cut at column boundary `b`
    /// (between columns `b−1` and `b`) during the *next* step, moving in
    /// the drift direction. These are the particles currently within
    /// `|stride|` columns upstream of the cut.
    pub fn crossing_cut(&self, b: usize) -> u64 {
        let s = self.stride.unsigned_abs() as usize;
        let s = s.min(self.c);
        if self.stride >= 0 {
            // Columns [b−s, b) mod c.
            let start = (b as i64 - s as i64).rem_euclid(self.c as i64) as usize;
            if start + s <= self.c {
                self.count_in_columns(start, start + s)
            } else {
                self.count_in_columns(start, self.c) + self.count_in_columns(0, start + s - self.c)
            }
        } else {
            // Moving left: columns [b, b+s) mod c cross the cut leftwards.
            if b + s <= self.c {
                self.count_in_columns(b, b + s)
            } else {
                self.count_in_columns(b, self.c) + self.count_in_columns(0, b + s - self.c)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_core::dist::Distribution;

    fn model(dist: Distribution, c: usize, n: u64) -> ColumnLoadModel {
        ColumnLoadModel::new(dist, c, n, 0, 1)
    }

    #[test]
    fn initial_counts_match_distribution() {
        let d = Distribution::Geometric { r: 0.9 };
        let m = model(d, 16, 10_000);
        let counts = d.column_counts(16, 10_000);
        for (j, &count) in counts.iter().enumerate() {
            assert_eq!(m.count_in_columns(j, j + 1), count);
        }
        assert_eq!(m.count_in_columns(0, 16), 10_000);
        assert_eq!(m.total(), 10_000);
    }

    #[test]
    fn advance_rotates_right() {
        let d = Distribution::Geometric { r: 0.8 };
        let mut m = model(d, 8, 1_000);
        let before: Vec<u64> = (0..8).map(|j| m.count_in_columns(j, j + 1)).collect();
        m.advance(3);
        for (j, &was) in before.iter().enumerate() {
            assert_eq!(m.count_in_columns((j + 3) % 8, (j + 3) % 8 + 1), was);
        }
    }

    #[test]
    fn leftward_stride_rotates_left() {
        let mut m = ColumnLoadModel::new(Distribution::Geometric { r: 0.8 }, 8, 1_000, 1, -1);
        assert_eq!(m.stride(), -3);
        let before: Vec<u64> = (0..8).map(|j| m.count_in_columns(j, j + 1)).collect();
        m.advance(1);
        for (j, &was) in before.iter().enumerate() {
            assert_eq!(
                m.count_in_columns((j + 8 - 3) % 8, (j + 8 - 3) % 8 + 1),
                was
            );
        }
    }

    #[test]
    fn range_queries_match_column_sums() {
        let mut m = model(Distribution::Sinusoidal, 32, 44_000);
        for steps in [0u64, 1, 7, 100] {
            m.advance(steps);
            for &(a, b) in &[(0usize, 32usize), (0, 5), (10, 20), (31, 32), (5, 5)] {
                let direct: u64 = (a..b).map(|j| m.count_in_columns(j, j + 1)).sum();
                assert_eq!(
                    m.count_in_columns(a, b),
                    direct,
                    "range ({a},{b}) after {steps}"
                );
            }
        }
    }

    #[test]
    fn wrapped_range_query() {
        let mut m = model(Distribution::Geometric { r: 0.7 }, 8, 1_000);
        m.advance(5);
        // Window that crosses the internal wrap of the rotated histogram.
        let direct: u64 = (2..7).map(|j| m.count_in_columns(j, j + 1)).sum();
        assert_eq!(m.count_in_columns(2, 7), direct);
    }

    #[test]
    fn rect_counts_scale_with_rows() {
        let m = model(Distribution::Uniform, 16, 16_000);
        let full = m.count_in_rect((0, 8), (0, 16));
        let half = m.count_in_rect((0, 8), (0, 8));
        assert!((full - 8_000.0).abs() < 1e-9);
        assert!((half - 4_000.0).abs() < 1e-9);
    }

    #[test]
    fn rect_respects_patch_row_range() {
        let d = Distribution::Patch {
            x0: 0,
            x1: 16,
            y0: 4,
            y1: 8,
        };
        let m = model(d, 16, 1_600);
        // All particles live in rows 4..8.
        assert!((m.count_in_rect((0, 16), (0, 4)) - 0.0).abs() < 1e-9);
        assert!((m.count_in_rect((0, 16), (4, 8)) - 1_600.0).abs() < 1e-9);
        assert!((m.count_in_rect((0, 16), (4, 6)) - 800.0).abs() < 1e-9);
    }

    #[test]
    fn crossing_cut_counts_upstream_window() {
        let mut m = ColumnLoadModel::new(Distribution::Uniform, 16, 1_600, 1, 1); // stride 3
                                                                                  // Uniform: each column holds 100; 3 columns cross any cut.
        assert_eq!(m.crossing_cut(8), 300);
        assert_eq!(m.crossing_cut(0), 300); // wrap: columns 13,14,15
        m.advance(2);
        assert_eq!(m.crossing_cut(1), 300);
    }

    #[test]
    fn crossing_cut_leftward() {
        let m = ColumnLoadModel::new(Distribution::Uniform, 16, 1_600, 0, -1);
        assert_eq!(m.crossing_cut(8), 100); // column 8 moves left past cut 8
        assert_eq!(m.crossing_cut(15), 100);
    }

    #[test]
    fn model_matches_particle_engine_counts() {
        // The model's per-column counts must equal the real engine's
        // histogram at every step (even row spread, k = 0).
        use pic_core::engine::Simulation;
        use pic_core::geometry::Grid;
        use pic_core::init::InitConfig;
        let grid = Grid::new(32).unwrap();
        let dist = Distribution::Geometric { r: 0.9 };
        let mut sim = Simulation::new(
            InitConfig::new(grid, 2_000, dist)
                .with_m(1)
                .build()
                .unwrap(),
        );
        let mut m = ColumnLoadModel::new(dist, 32, 2_000, 0, 1);
        let mut hist = Vec::new();
        for step in 0..20 {
            sim.column_histogram_into(&mut hist);
            assert_eq!(hist.len(), 32);
            for (j, &seen) in hist.iter().enumerate() {
                assert_eq!(
                    m.count_in_columns(j, j + 1),
                    seen,
                    "step {step}, column {j}"
                );
            }
            sim.step();
            m.advance(1);
        }
    }

    #[test]
    fn model_matches_engine_with_k_stride() {
        use pic_core::engine::Simulation;
        use pic_core::geometry::Grid;
        use pic_core::init::InitConfig;
        let grid = Grid::new(32).unwrap();
        let dist = Distribution::Sinusoidal;
        let mut sim = Simulation::new(
            InitConfig::new(grid, 1_500, dist)
                .with_k(2)
                .build()
                .unwrap(),
        );
        let mut m = ColumnLoadModel::new(dist, 32, 1_500, 2, 1);
        sim.run(13);
        m.advance(13);
        let mut hist = Vec::new();
        sim.column_histogram_into(&mut hist);
        assert_eq!(hist.len(), 32);
        for (j, &seen) in hist.iter().enumerate() {
            assert_eq!(m.count_in_columns(j, j + 1), seen, "column {j}");
        }
    }
}
