//! 2D Cartesian domain decomposition with movable x-cuts.
//!
//! The mesh is split by `px + 1` x-cuts and `py + 1` y-cuts into `px × py`
//! rectangular blocks, one per rank. The baseline keeps all cuts static;
//! the diffusion balancer moves the x-cuts (paper §IV-B chooses the
//! "2D scheme with load balancing restricted to the x-direction", which
//! preserves the Cartesian-product structure).
//!
//! Rank numbering: rank = `cy · px + cx` — processor columns are
//! contiguous in `cx`, so a processor column is `{cx, cx + px, ...}`.

/// Factor `p` into `(px, py)` with `px ≥ py` and the pair as close to
/// square as possible (minimizing `px − py`), mirroring the reference
/// code's `MPI_Dims_create`-style choice.
pub fn factor_2d(p: usize) -> (usize, usize) {
    assert!(p > 0);
    let mut best = (p, 1);
    let mut d = 1usize;
    while d * d <= p {
        if p.is_multiple_of(d) {
            best = (p / d, d);
        }
        d += 1;
    }
    best
}

/// A Cartesian decomposition of an `ncells × ncells` mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomp2d {
    pub ncells: usize,
    pub px: usize,
    pub py: usize,
    /// x-cuts: strictly increasing, `xcuts[0] = 0`, `xcuts[px] = ncells`.
    pub xcuts: Vec<usize>,
    /// y-cuts, same contract.
    pub ycuts: Vec<usize>,
}

fn even_cuts(ncells: usize, parts: usize) -> Vec<usize> {
    (0..=parts).map(|i| i * ncells / parts).collect()
}

impl Decomp2d {
    /// Uniform decomposition over `p` ranks (near-square grid).
    pub fn uniform(ncells: usize, p: usize) -> Decomp2d {
        let (px, py) = factor_2d(p);
        Self::uniform_grid(ncells, px, py)
    }

    /// 1D block-column decomposition (`p × 1`): every rank owns a full-
    /// height strip. The decomposition the paper's §III-E1 analysis (eqs.
    /// 7–8) assumes.
    pub fn columns(ncells: usize, p: usize) -> Decomp2d {
        Self::uniform_grid(ncells, p, 1)
    }

    /// 1D block-row decomposition (`1 × p`). §III-E1: switching to this to
    /// dodge a column skew "can easily be defeated by rotating the
    /// particle distribution over 90°".
    pub fn rows(ncells: usize, p: usize) -> Decomp2d {
        Self::uniform_grid(ncells, 1, p)
    }

    /// Uniform decomposition over an explicit `px × py` rank grid.
    pub fn uniform_grid(ncells: usize, px: usize, py: usize) -> Decomp2d {
        assert!(px >= 1 && py >= 1);
        assert!(
            px <= ncells && py <= ncells,
            "more processor columns/rows than cells"
        );
        Decomp2d {
            ncells,
            px,
            py,
            xcuts: even_cuts(ncells, px),
            ycuts: even_cuts(ncells, py),
        }
    }

    /// Total ranks.
    #[inline]
    pub fn ranks(&self) -> usize {
        self.px * self.py
    }

    /// Rank of grid coordinates `(cx, cy)`.
    #[inline]
    pub fn rank_of(&self, cx: usize, cy: usize) -> usize {
        debug_assert!(cx < self.px && cy < self.py);
        cy * self.px + cx
    }

    /// Grid coordinates of a rank.
    #[inline]
    pub fn coords_of(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.ranks());
        (rank % self.px, rank / self.px)
    }

    /// Column range `[lo, hi)` owned by processor column `cx`.
    #[inline]
    pub fn col_range(&self, cx: usize) -> (usize, usize) {
        (self.xcuts[cx], self.xcuts[cx + 1])
    }

    /// Row range `[lo, hi)` owned by processor row `cy`.
    #[inline]
    pub fn row_range(&self, cy: usize) -> (usize, usize) {
        (self.ycuts[cy], self.ycuts[cy + 1])
    }

    /// Cell-rectangle owned by a rank: `((x0, x1), (y0, y1))`.
    pub fn bounds(&self, rank: usize) -> ((usize, usize), (usize, usize)) {
        let (cx, cy) = self.coords_of(rank);
        (self.col_range(cx), self.row_range(cy))
    }

    /// Number of cells owned by a rank.
    pub fn cell_count(&self, rank: usize) -> usize {
        let ((x0, x1), (y0, y1)) = self.bounds(rank);
        (x1 - x0) * (y1 - y0)
    }

    /// Processor column owning mesh column `col`.
    #[inline]
    pub fn pcol_of(&self, col: usize) -> usize {
        debug_assert!(col < self.ncells);
        // partition_point: first cut greater than col, minus one.
        self.xcuts.partition_point(|&c| c <= col) - 1
    }

    /// Processor row owning mesh row `row`.
    #[inline]
    pub fn prow_of(&self, row: usize) -> usize {
        debug_assert!(row < self.ncells);
        self.ycuts.partition_point(|&c| c <= row) - 1
    }

    /// Rank owning cell `(col, row)`.
    #[inline]
    pub fn owner_of_cell(&self, col: usize, row: usize) -> usize {
        self.rank_of(self.pcol_of(col), self.prow_of(row))
    }

    /// Whether a rank owns cell `(col, row)`.
    #[inline]
    pub fn owns(&self, rank: usize, col: usize, row: usize) -> bool {
        let ((x0, x1), (y0, y1)) = self.bounds(rank);
        col >= x0 && col < x1 && row >= y0 && row < y1
    }

    /// Replace the x-cuts (diffusion balancing). The new cuts must keep
    /// every processor column at least one cell wide.
    pub fn set_xcuts(&mut self, xcuts: Vec<usize>) {
        assert_eq!(xcuts.len(), self.px + 1, "cut vector length");
        assert_eq!(xcuts[0], 0);
        assert_eq!(xcuts[self.px], self.ncells);
        for w in xcuts.windows(2) {
            assert!(w[0] < w[1], "cuts must stay strictly increasing: {xcuts:?}");
        }
        self.xcuts = xcuts;
    }

    /// Replace the y-cuts (second phase of the two-phase diffusion
    /// balancer). Same contract as [`Decomp2d::set_xcuts`].
    pub fn set_ycuts(&mut self, ycuts: Vec<usize>) {
        assert_eq!(ycuts.len(), self.py + 1, "cut vector length");
        assert_eq!(ycuts[0], 0);
        assert_eq!(ycuts[self.py], self.ncells);
        for w in ycuts.windows(2) {
            assert!(w[0] < w[1], "cuts must stay strictly increasing: {ycuts:?}");
        }
        self.ycuts = ycuts;
    }

    /// Ranks adjacent to `rank` in the processor grid: the Cartesian
    /// 8-stencil (`cx ± 1`, `cy ± 1`) with periodic wrap (the mesh is a
    /// torus, so particles leaving column `0` arrive in column
    /// `ncells − 1`). Self is excluded and wrap duplicates collapse, so on
    /// small grids (`px ≤ 2`) the set simply shrinks. The relation is
    /// symmetric by construction — the property
    /// [`pic_comm::SparsePlan`] requires.
    ///
    /// Note the set depends only on `(px, py)`, never on the cut
    /// positions: moving cuts re-shapes subdomains but not which ranks
    /// border each other. A particle can still out-run the stencil when a
    /// cut squeezes a processor column thinner than its per-step stride —
    /// the sparse exchange's escape flag covers exactly that case.
    pub fn neighbors_of(&self, rank: usize) -> Vec<usize> {
        let (cx, cy) = self.coords_of(rank);
        let mut out = Vec::with_capacity(8);
        for dy in [self.py - 1, 0, 1] {
            for dx in [self.px - 1, 0, 1] {
                let n = self.rank_of((cx + dx) % self.px, (cy + dy) % self.py);
                if n != rank && !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Verify the decomposition partitions the grid (used by tests and
    /// debug assertions).
    pub fn is_partition(&self) -> bool {
        self.xcuts[0] == 0
            && *self.xcuts.last().unwrap() == self.ncells
            && self.xcuts.windows(2).all(|w| w[0] < w[1])
            && self.ycuts[0] == 0
            && *self.ycuts.last().unwrap() == self.ncells
            && self.ycuts.windows(2).all(|w| w[0] < w[1])
    }
}

/// O(1) cell → rank lookup for one [`Decomp2d`]: `rank = col[c] + row[r]`
/// instead of the two binary searches of [`Decomp2d::owner_of_cell`] — the
/// per-particle question of every exchange scan.
///
/// The cuts are public and balancers move them in place, so the table
/// keeps a copy of the cuts it was built from and [`OwnerTable::refresh`]
/// compares them (O(px + py)) before every use; a stale table cannot
/// survive a cut move, however the move was made.
#[derive(Debug, Clone, Default)]
pub struct OwnerTable {
    xcuts: Vec<usize>,
    ycuts: Vec<usize>,
    /// Processor column of each mesh column.
    col: Vec<u32>,
    /// `px ·` processor row of each mesh row.
    row: Vec<u32>,
}

impl OwnerTable {
    pub fn new(decomp: &Decomp2d) -> OwnerTable {
        let mut t = OwnerTable::default();
        t.refresh(decomp);
        t
    }

    /// Rebuild the table unless it was built from exactly `decomp`'s cuts
    /// (capacity is retained: steady-state refreshes allocate nothing).
    pub fn refresh(&mut self, decomp: &Decomp2d) {
        if self.xcuts == decomp.xcuts && self.ycuts == decomp.ycuts {
            return;
        }
        assert!(decomp.ranks() <= u32::MAX as usize, "ranks fit in u32");
        let fill = |tab: &mut Vec<u32>, cuts: &[usize], scale: usize| {
            tab.clear();
            for (i, w) in cuts.windows(2).enumerate() {
                tab.resize(w[1], (i * scale) as u32);
            }
        };
        fill(&mut self.col, &decomp.xcuts, 1);
        fill(&mut self.row, &decomp.ycuts, decomp.px);
        self.xcuts.clone_from(&decomp.xcuts);
        self.ycuts.clone_from(&decomp.ycuts);
    }

    /// Rank owning cell `(col, row)` — [`Decomp2d::owner_of_cell`].
    #[inline]
    pub fn owner_of_cell(&self, col: usize, row: usize) -> usize {
        (self.col[col] + self.row[row]) as usize
    }

    /// [`Self::owner_of_cell`] for a single processor row (`py == 1`),
    /// where the row cannot matter: no row lookup, and a caller that only
    /// needs this never has to load the particle's `y`.
    #[inline]
    pub fn owner_of_col(&self, col: usize) -> usize {
        debug_assert_eq!(self.ycuts.len(), 2, "owner_of_col needs py == 1");
        self.col[col] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_table_matches_binary_search_and_follows_cut_moves() {
        let mut d = Decomp2d::uniform_grid(24, 3, 2);
        let mut t = OwnerTable::new(&d);
        let check = |d: &Decomp2d, t: &OwnerTable| {
            for c in 0..d.ncells {
                for r in 0..d.ncells {
                    assert_eq!(t.owner_of_cell(c, r), d.owner_of_cell(c, r), "({c},{r})");
                }
            }
        };
        check(&d, &t);
        // Cuts moved through the setter and by direct field mutation: the
        // refresh notices both.
        d.set_xcuts(vec![0, 1, 23, 24]);
        t.refresh(&d);
        check(&d, &t);
        d.ycuts[1] = 5;
        t.refresh(&d);
        check(&d, &t);
        let strip = Decomp2d::columns(24, 4);
        t.refresh(&strip);
        for c in 0..24 {
            assert_eq!(t.owner_of_col(c), strip.owner_of_cell(c, 7));
        }
    }

    #[test]
    fn factor_near_square() {
        assert_eq!(factor_2d(1), (1, 1));
        assert_eq!(factor_2d(2), (2, 1));
        assert_eq!(factor_2d(4), (2, 2));
        assert_eq!(factor_2d(6), (3, 2));
        assert_eq!(factor_2d(12), (4, 3));
        assert_eq!(factor_2d(24), (6, 4));
        assert_eq!(factor_2d(7), (7, 1));
        assert_eq!(factor_2d(192), (16, 12));
        assert_eq!(factor_2d(384), (24, 16));
        assert_eq!(factor_2d(3072), (64, 48));
    }

    #[test]
    fn uniform_partitions_whole_grid() {
        let d = Decomp2d::uniform(100, 6);
        assert!(d.is_partition());
        assert_eq!(d.ranks(), 6);
        let total: usize = (0..6).map(|r| d.cell_count(r)).sum();
        assert_eq!(total, 100 * 100);
    }

    #[test]
    fn rank_coords_roundtrip() {
        let d = Decomp2d::uniform_grid(64, 4, 3);
        for r in 0..12 {
            let (cx, cy) = d.coords_of(r);
            assert_eq!(d.rank_of(cx, cy), r);
        }
    }

    #[test]
    fn owner_lookup_matches_bounds() {
        let d = Decomp2d::uniform_grid(60, 5, 3);
        for col in 0..60 {
            for row in [0usize, 19, 20, 40, 59] {
                let owner = d.owner_of_cell(col, row);
                assert!(d.owns(owner, col, row), "cell ({col},{row}) owner {owner}");
            }
        }
    }

    #[test]
    fn uneven_cuts_owner_lookup() {
        let mut d = Decomp2d::uniform_grid(16, 4, 1);
        d.set_xcuts(vec![0, 2, 3, 10, 16]);
        assert_eq!(d.pcol_of(0), 0);
        assert_eq!(d.pcol_of(1), 0);
        assert_eq!(d.pcol_of(2), 1);
        assert_eq!(d.pcol_of(3), 2);
        assert_eq!(d.pcol_of(9), 2);
        assert_eq!(d.pcol_of(10), 3);
        assert_eq!(d.pcol_of(15), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn zero_width_column_rejected() {
        let mut d = Decomp2d::uniform_grid(16, 4, 1);
        d.set_xcuts(vec![0, 4, 4, 10, 16]);
    }

    #[test]
    fn one_dimensional_decompositions() {
        let cols = Decomp2d::columns(64, 8);
        assert_eq!((cols.px, cols.py), (8, 1));
        assert!(cols.is_partition());
        let rows = Decomp2d::rows(64, 8);
        assert_eq!((rows.px, rows.py), (1, 8));
        assert!(rows.is_partition());
        // A block-row rank owns full-width strips.
        let ((x0, x1), (y0, y1)) = rows.bounds(3);
        assert_eq!((x0, x1), (0, 64));
        assert_eq!((y1 - y0), 8);
    }

    #[test]
    fn row_decomposition_defeated_by_rotated_skew() {
        // The §III-E1 argument, in particles: a block-ROW decomposition is
        // immune to a column skew, but the 90°-rotated skew hits it with
        // exactly the imbalance the column skew inflicts on block columns.
        use pic_core::dist::Distribution;
        use pic_core::geometry::Grid;
        use pic_core::init::{InitConfig, SkewAxis};
        let grid = Grid::new(64).unwrap();
        let dist = Distribution::Geometric { r: 0.8 };
        let p = 8usize;
        let max_load = |decomp: &Decomp2d, axis: SkewAxis| {
            let setup = InitConfig::new(grid, 64_000, dist)
                .with_m(1)
                .with_skew_axis(axis)
                .build()
                .unwrap();
            (0..p)
                .map(|r| {
                    let ((x0, x1), (y0, y1)) = decomp.bounds(r);
                    setup
                        .particles
                        .iter()
                        .map(|q| grid.cell_of_point(q.x, q.y))
                        .filter(|&(cx, cy)| (x0..x1).contains(&cx) && (y0..y1).contains(&cy))
                        .count() as f64
                })
                .fold(0.0f64, f64::max)
        };
        let rows = Decomp2d::rows(64, p);
        let cols = Decomp2d::columns(64, p);
        let ideal = 64_000.0 / p as f64;
        // Column skew: rows are balanced, columns are not.
        assert!(max_load(&rows, SkewAxis::X) < 1.01 * ideal);
        assert!(max_load(&cols, SkewAxis::X) > 3.0 * ideal);
        // Rotated skew: the mirror image.
        assert!(max_load(&rows, SkewAxis::Y) > 3.0 * ideal);
        assert!(max_load(&cols, SkewAxis::Y) < 1.01 * ideal);
    }

    #[test]
    fn neighbor_stencil_is_symmetric_and_wraps() {
        // 4×3 grid: every interior/edge rank sees the full 8-stencil via
        // periodic wrap, and the relation is symmetric.
        let d = Decomp2d::uniform_grid(64, 4, 3);
        for r in 0..12 {
            let ns = d.neighbors_of(r);
            assert_eq!(ns.len(), 8, "rank {r}: {ns:?}");
            assert!(!ns.contains(&r));
            for &n in &ns {
                assert!(d.neighbors_of(n).contains(&r), "{r} <-> {n}");
            }
        }
        // 2×2: wrap duplicates collapse — everyone borders everyone.
        let d = Decomp2d::uniform_grid(16, 2, 2);
        for r in 0..4 {
            let mut want: Vec<usize> = (0..4).filter(|&x| x != r).collect();
            want.sort_unstable();
            assert_eq!(d.neighbors_of(r), want);
        }
        // Column world: ring of two sides.
        let d = Decomp2d::columns(64, 8);
        assert_eq!(d.neighbors_of(0), vec![1, 7]);
        assert_eq!(d.neighbors_of(3), vec![2, 4]);
        // Degenerate single rank: no neighbors.
        assert!(Decomp2d::columns(8, 1).neighbors_of(0).is_empty());
    }

    #[test]
    fn processor_column_ranks_share_col_range() {
        let d = Decomp2d::uniform_grid(64, 4, 4);
        for cx in 0..4 {
            let range = d.col_range(cx);
            for cy in 0..4 {
                let ((x0, x1), _) = d.bounds(d.rank_of(cx, cy));
                assert_eq!((x0, x1), range);
            }
        }
    }
}
