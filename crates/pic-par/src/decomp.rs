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
//!
//! [`VpGrid`] over-decomposes the same mesh into virtual processors whose
//! owners a replicated VP→core table names (the AMPI runtime, paper
//! §IV-C). One [`OwnerTable`] answers "who owns this cell?" for both: the
//! ranks of the cuts on the identity placement, or the VPs on their cores.
//! [`Decomp2d::owner_of_cell`] is the tests' oracle for it.

use pic_core::owner::OwnerTable;

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
    pub(crate) fn rank_of(&self, cx: usize, cy: usize) -> usize {
        debug_assert!(cx < self.px && cy < self.py);
        cy * self.px + cx
    }

    /// Grid coordinates of a rank.
    #[inline]
    pub(crate) fn coords_of(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.ranks());
        (rank % self.px, rank / self.px)
    }

    /// Column range `[lo, hi)` owned by processor column `cx`.
    #[inline]
    pub(crate) fn col_range(&self, cx: usize) -> (usize, usize) {
        (self.xcuts[cx], self.xcuts[cx + 1])
    }

    /// Row range `[lo, hi)` owned by processor row `cy`.
    #[inline]
    pub(crate) fn row_range(&self, cy: usize) -> (usize, usize) {
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
    pub(crate) fn pcol_of(&self, col: usize) -> usize {
        debug_assert!(col < self.ncells);
        // partition_point: first cut greater than col, minus one.
        self.xcuts.partition_point(|&c| c <= col) - 1
    }

    /// Processor row owning mesh row `row`.
    #[inline]
    pub(crate) fn prow_of(&self, row: usize) -> usize {
        debug_assert!(row < self.ncells);
        self.ycuts.partition_point(|&c| c <= row) - 1
    }

    /// Rank owning cell `(col, row)`.
    #[inline]
    pub fn owner_of_cell(&self, col: usize, row: usize) -> usize {
        self.rank_of(self.pcol_of(col), self.prow_of(row))
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

/// The virtual-processor grid of the AMPI runtime (paper §IV-C): the mesh
/// split into `d · P` subdomains exactly as if there were `d · P` ranks,
/// with each physical core initially receiving a compact `a × b` block of
/// VPs (`a · b = d`) — the locality-preserving placement the paper assumes
/// before the load balancer starts scattering VPs.
#[derive(Debug, Clone)]
pub struct VpGrid {
    /// VP-level Cartesian decomposition of the mesh (`vpx × vpy` blocks).
    /// Fixed at construction — VP balancing moves the VP→core assignment,
    /// never these cuts — which is what lets `owners` be built once.
    decomp: Decomp2d,
    /// O(1) cell → VP table of `decomp`, read by [`VpGrid::vp_of_cell`]
    /// (the benchmark's VP route probe asks it once per resident); a VP
    /// rank's ownership table once a VP→core table places it.
    pub(crate) owners: OwnerTable,
    /// Physical core grid.
    pub px: usize,
    pub py: usize,
    /// VPs per core in x / y (`a · b = d`).
    pub a: usize,
    pub b: usize,
}

impl VpGrid {
    /// Build the VP grid for `cores` cores and over-decomposition `d`.
    /// The VP grid dims are `(px·a, py·b)` with `(a, b) = factor_2d(d)`,
    /// so the initial block placement is exact.
    pub fn new(ncells: usize, cores: usize, d: usize) -> VpGrid {
        assert!(d >= 1, "over-decomposition degree must be ≥ 1");
        let (px, py) = factor_2d(cores);
        let (a, b) = factor_2d(d);
        let decomp = Decomp2d::uniform_grid(ncells, px * a, py * b);
        VpGrid {
            owners: OwnerTable::new(&decomp.xcuts, &decomp.ycuts),
            decomp,
            px,
            py,
            a,
            b,
        }
    }

    /// The VP-level decomposition.
    #[inline]
    pub fn decomp(&self) -> &Decomp2d {
        &self.decomp
    }

    /// Total VP count (`d · P`).
    #[inline]
    pub fn vp_count(&self) -> usize {
        self.decomp.ranks()
    }

    /// Initial locality-preserving VP→core assignment: VP `(vx, vy)` goes
    /// to core `(vx / a, vy / b)`. Core `c`'s blocks tile exactly rank
    /// `c`'s subdomain of `Decomp2d::uniform(ncells, cores)`.
    pub fn initial_assignment(&self) -> Vec<usize> {
        (0..self.vp_count())
            .map(|vp| {
                let (vx, vy) = self.decomp.coords_of(vp);
                let cx = vx / self.a;
                let cy = vy / self.b;
                cy * self.px + cx
            })
            .collect()
    }

    /// VP owning cell `(col, row)`.
    #[inline]
    pub fn vp_of_cell(&self, col: usize, row: usize) -> usize {
        self.owners.unit_of_cell(col, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_core::owner::OwnerMap;

    #[test]
    fn owner_table_matches_binary_search_and_follows_cut_moves() {
        let mut d = Decomp2d::uniform_grid(24, 3, 2);
        let mut t = OwnerTable::new(&d.xcuts, &d.ycuts);
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
        t.refresh(&d.xcuts, &d.ycuts);
        check(&d, &t);
        d.ycuts[1] = 5;
        t.refresh(&d.xcuts, &d.ycuts);
        check(&d, &t);
        let strip = Decomp2d::columns(24, 4);
        t.refresh(&strip.xcuts, &strip.ycuts);
        check(&strip, &t);
        // One unit row on the identity placement drains by columns.
        let columns = |t: &OwnerTable, me| match t.map(me) {
            OwnerMap::Columns { lo, hi } => Some((lo, hi)),
            OwnerMap::Cells { .. } => None,
        };
        assert_eq!(columns(&t, 1), Some((6, 12)));

        // A VP grid: the table follows the VP→core table it is given.
        let vps = VpGrid::new(24, 2, 2); // one row of 4 VPs on 2 cores
        let mut t = vps.owners.clone();
        let mut assignment = vps.initial_assignment();
        t.set_cores(&assignment);
        assert_eq!(columns(&t, 0), None);
        assignment.swap(1, 2);
        t.set_cores(&assignment);
        for c in 0..24 {
            for r in 0..24 {
                assert_eq!(t.owner_of_cell(c, r), assignment[vps.vp_of_cell(c, r)]);
            }
        }
        // d = 1: the VPs are the ranks, and drain by columns until one moves.
        let d1 = VpGrid::new(24, 2, 1);
        let mut t = d1.owners.clone();
        t.set_cores(&d1.initial_assignment());
        assert_eq!(columns(&t, 1), Some((12, 24)));
        t.set_cores(&[1, 0]);
        assert_eq!(columns(&t, 1), None);
        // A cut move rebuilds the table on the identity placement.
        let mut moved = d1.decomp().clone();
        moved.set_xcuts(vec![0, 10, 24]);
        t.refresh(&moved.xcuts, &moved.ycuts);
        check(&moved, &t);
        assert_eq!(columns(&t, 1), Some((10, 24)));
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
                let ((x0, x1), (y0, y1)) = d.bounds(owner);
                assert!(
                    (x0..x1).contains(&col) && (y0..y1).contains(&row),
                    "cell ({col},{row}) owner {owner}"
                );
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
        let rows = Decomp2d::uniform_grid(64, 1, 8);
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
        // exactly the imbalance the column skew inflicts on block columns:
        // a switch to rows to dodge a column skew "can easily be defeated by
        // rotating the particle distribution over 90°".
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
        let rows = Decomp2d::uniform_grid(64, 1, p);
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
    fn vp_grid_dims_multiply_core_grid() {
        let g = VpGrid::new(192, 24, 4); // cores 24 → (6,4); d 4 → (2,2)
        assert_eq!((g.px, g.py), (6, 4));
        assert_eq!((g.a, g.b), (2, 2));
        assert_eq!(g.decomp().px, 12);
        assert_eq!(g.decomp().py, 8);
        assert_eq!(g.vp_count(), 96);
        assert_eq!(g.px * g.py, 24);
    }

    #[test]
    fn initial_assignment_is_balanced_and_compact() {
        let g = VpGrid::new(96, 6, 8); // (3,2) cores × (4,2) vps-per-core
        let asg = g.initial_assignment();
        let mut per_core = vec![0usize; 6];
        for &c in &asg {
            per_core[c] += 1;
        }
        assert!(per_core.iter().all(|&n| n == 8), "{per_core:?}");
        // Compactness: the VPs of core 0 form a contiguous block.
        let mine: Vec<usize> = (0..g.vp_count()).filter(|&v| asg[v] == 0).collect();
        for &vp in &mine {
            let (vx, vy) = g.decomp().coords_of(vp);
            assert!(vx < g.a && vy < g.b);
        }
        // And every core's blocks tile its uniform-decomposition subdomain.
        let cores = Decomp2d::uniform(96, 6);
        for col in 0..96 {
            for row in [0usize, 31, 47, 48, 95] {
                assert_eq!(
                    asg[g.vp_of_cell(col, row)],
                    cores.owner_of_cell(col, row),
                    "({col},{row})"
                );
            }
        }
    }

    #[test]
    fn d_one_degenerates_to_plain_decomposition() {
        let g = VpGrid::new(64, 8, 1);
        assert_eq!(g.vp_count(), 8);
        let asg = g.initial_assignment();
        assert_eq!(asg, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn vp_ownership_covers_grid() {
        let g = VpGrid::new(32, 4, 4);
        let mut counts = vec![0usize; g.vp_count()];
        for col in 0..32 {
            for row in 0..32 {
                counts[g.vp_of_cell(col, row)] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, 32 * 32);
        assert!(counts.iter().all(|&c| c > 0));
        assert_eq!(counts.len(), g.vp_count());
        for (vp, &count) in counts.iter().enumerate() {
            assert_eq!(count, g.decomp().cell_count(vp));
        }
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
