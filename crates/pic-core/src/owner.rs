//! Cell ownership: who owns a cell, as one table ([`OwnerTable`]) and the
//! [`OwnerMap`] the drain's classifiers scan straight from it.
//!
//! The paper's three implementations differ only in this answer: the
//! Cartesian cuts (`mpi-2d`, `mpi-2d-LB`) give each rank a block of cells,
//! the VP runtime (`ampi`) gives each VP a block and places the VPs on
//! cores.

use crate::bin::Classifier;
use crate::geometry::Grid;
use crate::simd::{self, SimdBackend};

/// The one ownership map: an O(1) cell → unit table, `unit = col[c] +
/// row[r]` (two loads where a search of the cuts would take two binary
/// searches), and the core each unit lives on. The units are the ranks of
/// the cuts on the identity placement, or the VPs of a VP decomposition and
/// their VP→core table.
///
/// The cuts a caller holds may be public and moved in place, so the table
/// keeps a copy of the cuts it was built from and [`OwnerTable::refresh`]
/// compares them (O(px + py)) before every use; a stale table cannot
/// survive a cut move, however the move was made.
///
/// The classifiers read the tables unchecked at every width, one lane
/// included, on what a build asserts: cuts that start at 0, rise strictly
/// and end at one side length (so `col` and `row` hold a side's cells and
/// every `col[c] + row[r]` is a unit), and one core per unit. A classifier
/// or a count then checks only that the table spans the grid it reads,
/// O(1).
#[derive(Debug, Clone, Default)]
pub struct OwnerTable {
    xcuts: Vec<usize>,
    ycuts: Vec<usize>,
    /// Unit column of each mesh column.
    col: Vec<u32>,
    /// `px ·` unit row of each mesh row.
    row: Vec<u32>,
    /// Core of each unit: the identity after a rebuild.
    core: Vec<u32>,
}

impl OwnerTable {
    /// The table of the blocks `xcuts × ycuts` on the identity placement.
    pub fn new(xcuts: &[usize], ycuts: &[usize]) -> OwnerTable {
        let mut t = OwnerTable::default();
        t.refresh(xcuts, ycuts);
        t
    }

    /// Rebuild the table, on the identity placement, unless it was built
    /// from exactly these cuts (capacity is retained: steady-state
    /// refreshes allocate nothing). Panics on cuts that do not start at 0,
    /// rise strictly and end at one side length.
    pub fn refresh(&mut self, xcuts: &[usize], ycuts: &[usize]) {
        if self.xcuts == xcuts && self.ycuts == ycuts {
            return;
        }
        for cuts in [xcuts, ycuts] {
            assert!(
                cuts.len() > 1 && cuts[0] == 0,
                "cuts {cuts:?} do not start at 0"
            );
            let rise = cuts.windows(2).all(|w| w[0] < w[1]);
            assert!(rise, "cuts {cuts:?} do not rise strictly");
        }
        assert_eq!(xcuts.last(), ycuts.last(), "cuts end at one side length");
        let (px, py) = (xcuts.len() - 1, ycuts.len() - 1);
        assert!(px * py <= u32::MAX as usize, "units fit in u32");
        let fill = |tab: &mut Vec<u32>, cuts: &[usize], scale: usize| {
            tab.clear();
            for (i, w) in cuts.windows(2).enumerate() {
                tab.resize(w[1], (i * scale) as u32);
            }
        };
        fill(&mut self.col, xcuts, 1);
        fill(&mut self.row, ycuts, px);
        self.core.clear();
        self.core.extend(0..(px * py) as u32);
        self.xcuts.clear();
        self.xcuts.extend_from_slice(xcuts);
        self.ycuts.clear();
        self.ycuts.extend_from_slice(ycuts);
    }

    /// Place unit `u` on core `cores[u]` (a VP→core table).
    pub fn set_cores(&mut self, cores: &[usize]) {
        assert_eq!(cores.len(), self.core.len(), "one core per unit");
        self.core.clear();
        self.core.extend(cores.iter().map(|&c| c as u32));
    }

    /// Unit owning cell `(col, row)` (the VP of a VP grid's cell).
    #[inline]
    pub fn unit_of_cell(&self, col: usize, row: usize) -> usize {
        (self.col[col] + self.row[row]) as usize
    }

    /// Core owning cell `(col, row)`: the rank of the cuts' block under
    /// the identity placement.
    #[inline]
    pub fn owner_of_cell(&self, col: usize, row: usize) -> usize {
        self.core[self.unit_of_cell(col, row)] as usize
    }

    /// The cells core `me` keeps, as the drain's classifier reads them: on
    /// one unit row under the identity placement its column interval (the
    /// row cannot matter, so the scan never loads `y`), otherwise the
    /// table itself.
    pub fn map(&self, me: usize) -> OwnerMap<'_> {
        let identity = (0..).zip(&self.core).all(|(u, &c)| u == c);
        if self.ycuts.len() == 2 && identity {
            let (lo, hi) = (self.xcuts[me], self.xcuts[me + 1]);
            OwnerMap::Columns { lo, hi }
        } else {
            OwnerMap::Cells {
                table: self,
                me: me as u32,
            }
        }
    }

    /// `counts[unit of the cell of (x[j], y[j])] += 1` for every point,
    /// through the classifier's per-lane index on `backend`.
    pub fn count_into(
        &self,
        backend: SimdBackend,
        grid: &Grid,
        x: &[f64],
        y: &[f64],
        counts: &mut [u64],
    ) {
        assert_eq!(x.len(), y.len(), "x and y spans differ");
        self.assert_spans(grid);
        simd::count_cells(backend, grid, self, x, y, counts);
    }

    /// The tables `(col, row, core)` the classifiers' gathers read.
    #[inline]
    pub(crate) fn tables(&self) -> (&[u32], &[u32], &[u32]) {
        (&self.col, &self.row, &self.core)
    }

    /// The gathers' per-call check: every clamped cell index of `grid`
    /// reads inside `col` and `row`.
    fn assert_spans(&self, grid: &Grid) {
        assert_eq!(self.col.len(), grid.ncells(), "table and grid sides differ");
    }
}

/// Cell ownership as data a vector classifier can scan: whether this
/// store's rank keeps a cell, read from the particle's position exactly
/// as [`Grid::cell_of`] reads it, for every `f64` (NaN and ±∞ included).
#[derive(Debug, Clone, Copy)]
pub enum OwnerMap<'a> {
    /// One processor row of cuts: the rank keeps the columns `lo..hi`,
    /// whatever the row — two compares on the clamped `x`, no conversion
    /// and no table.
    Columns { lo: usize, hi: usize },
    /// A 2-D map (VP tiles, or cuts with more than one processor row):
    /// core `me` keeps the cells `table` gives it.
    Cells { table: &'a OwnerTable, me: u32 },
}

impl Classifier for OwnerMap<'_> {
    #[inline]
    fn leavers(
        &mut self,
        backend: SimdBackend,
        grid: &Grid,
        x: &[f64],
        y: &[f64],
        leave: &mut [u64],
    ) {
        // The vector groups read `y` by `x`'s length.
        assert_eq!(x.len(), y.len(), "x and y spans differ");
        if let OwnerMap::Cells { table, .. } = self {
            table.assert_spans(grid);
        }
        simd::owner_leavers(backend, grid, self, x, y, leave);
    }

    /// A column interval spanning the grid keeps every `f64`: the cell
    /// index clamps into it.
    fn keeps_all(&self, grid: &Grid) -> bool {
        matches!(*self, OwnerMap::Columns { lo: 0, hi } if hi >= grid.ncells())
    }
}

/// A VP-like table on `grid`: 4 × 3 tiles (fewer on a narrow grid), tile
/// `v` on core `v * 7 % 3`.
#[cfg(test)]
pub(crate) fn tile_table(grid: &Grid) -> OwnerTable {
    let n = grid.ncells();
    let cuts = |tiles: usize| (0..=tiles).map(|i| i * n / tiles).collect::<Vec<_>>();
    let mut table = OwnerTable::new(&cuts(n.min(4)), &cuts(n.min(3)));
    let cores: Vec<usize> = (0..table.core.len()).map(|v| v * 7 % 3).collect();
    table.set_cores(&cores);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The owner classifiers are the scalar rule — [`Grid::cell_of`] and
    /// the owner test — to the bit, and so is the table's unit count, on
    /// every backend the host can execute: for the column interval and
    /// the 2-D table, on every value class of the cell-index test (the
    /// values outside `[0, L)`, NaN and ±∞ among them, in builds without
    /// the debug range check only), for span lengths up to two groups plus
    /// one at unaligned starts, spans longer than a mask word, and spans in
    /// which every lane, no lane, or one lane per group leaves. The widest
    /// grid, whose last index is 2³¹ − 1, takes the interval (the table's
    /// convert is `simd::tests::cell_index_lanes_cover_every_grid_side`).
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn owner_classifiers_equal_the_scalar_rule_on_every_backend() {
        let wide = |n: usize| move |x: f64| (x as usize).min(n - 1);
        for ncells in [2usize, 64, 1024, 1 << 31] {
            let grid = Grid::new(ncells).unwrap();
            let l = grid.extent();
            let (mut values, outside) = if ncells < 1 << 20 {
                crate::geometry::cell_index_cases(ncells)
            } else {
                // The edges of a grid this wide, without its every cell.
                let (_, v) = crate::geometry::cell_index_cases(2);
                v.into_iter().partition(|x| (0.0..l).contains(x))
            };
            if !cfg!(debug_assertions) {
                values.extend(outside);
            }
            // `y` walks the same values from another start.
            let ys: Vec<f64> = (0..values.len())
                .map(|i| values[(i * 7 + 3) % values.len()])
                .collect();
            let table = (ncells < 1 << 20).then(|| tile_table(&grid));
            let mut maps = vec![
                OwnerMap::Columns {
                    lo: 0,
                    hi: ncells / 2,
                },
                OwnerMap::Columns {
                    lo: ncells / 4,
                    hi: ncells,
                },
                OwnerMap::Columns { lo: 0, hi: ncells },
                OwnerMap::Columns { lo: 1, hi: 1 },
            ];
            if let Some(table) = &table {
                maps.extend((0..3).map(|me| OwnerMap::Cells { table, me }));
            }
            let cell = wide(ncells);
            for map in maps {
                let keeps = |x: f64, y: f64| match map {
                    OwnerMap::Columns { lo, hi } => (lo..hi).contains(&cell(x)),
                    OwnerMap::Cells { table, me } => {
                        table.owner_of_cell(cell(x), cell(y)) == me as usize
                    }
                };
                let want = |x: &[f64], y: &[f64]| {
                    let mut w = vec![0u64; x.len().div_ceil(64)];
                    for (j, (&x, &y)) in x.iter().zip(y).enumerate() {
                        w[j / 64] |= u64::from(!keeps(x, y)) << (j % 64);
                    }
                    w
                };
                // A kept and a leaving point, where the map has both.
                let pick = |leaves: bool| {
                    (values.iter().zip(&ys))
                        .map(|(&x, &y)| (x, y))
                        .find(|&(x, y)| keeps(x, y) != leaves)
                };
                for backend in SimdBackend::available() {
                    let at = |what: &str| format!("{} {map:?} {ncells}: {what}", backend.name());
                    let check = |x: &[f64], y: &[f64], what: &str| {
                        let mut got = vec![0u64; x.len().div_ceil(64)];
                        let mut map = map;
                        map.leavers(backend, &grid, x, y, &mut got);
                        assert_eq!(got, want(x, y), "{}", at(what));
                    };
                    check(&values, &ys, "every value");
                    let width = backend.lanes();
                    for start in [1, 3] {
                        for len in 0..=2 * width + 1 {
                            let span = start..(start + len).min(values.len());
                            check(
                                &values[span.clone()],
                                &ys[span],
                                &format!("{len} from {start}"),
                            );
                        }
                    }
                    let len = 2 * width + 1;
                    if let (Some(stay), Some(go)) = (pick(false), pick(true)) {
                        let patterns: [(&str, &dyn Fn(usize) -> bool); 3] = [
                            ("all leave", &|_| true),
                            ("none leave", &|_| false),
                            ("one per group", &|j| {
                                j % width == (j / width * 3 + 1) % width
                            }),
                        ];
                        for (what, leaves) in patterns {
                            let (x, y): (Vec<f64>, Vec<f64>) =
                                (0..len).map(|j| if leaves(j) { go } else { stay }).unzip();
                            check(&x, &y, what);
                        }
                    }
                    if let OwnerMap::Cells { table, .. } = map {
                        let units = table.core.len();
                        let mut got = vec![0u64; units];
                        table.count_into(backend, &grid, &values, &ys, &mut got);
                        let mut want = vec![0u64; units];
                        for (&x, &y) in values.iter().zip(&ys) {
                            want[table.unit_of_cell(cell(x), cell(y))] += 1;
                        }
                        assert_eq!(got, want, "{}", at("count"));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not start at 0")]
    fn cuts_that_do_not_start_at_zero_are_refused() {
        OwnerTable::new(&[0, 8, 16], &[1, 8, 16]);
    }

    #[test]
    #[should_panic(expected = "do not rise strictly")]
    fn cuts_that_do_not_rise_strictly_are_refused() {
        let mut t = OwnerTable::new(&[0, 8, 16], &[0, 16]);
        t.refresh(&[0, 8, 8, 16], &[0, 16]);
    }

    #[test]
    #[should_panic(expected = "cuts end at one side length")]
    fn cuts_of_two_side_lengths_are_refused() {
        OwnerTable::new(&[0, 8, 16], &[0, 8, 32]);
    }

    #[test]
    #[should_panic(expected = "one core per unit")]
    fn a_placement_of_the_wrong_length_is_refused() {
        let mut t = OwnerTable::new(&[0, 8, 16], &[0, 8, 16]);
        t.set_cores(&[0, 1, 1]);
    }

    /// A 16-cell table read on a 32-cell grid: the lanes past cell 15
    /// would gather outside `col`, so the classifier refuses the span
    /// before it dispatches to any backend.
    #[test]
    #[should_panic(expected = "table and grid sides differ")]
    fn a_two_d_map_on_a_grid_of_another_side_is_refused() {
        let t = OwnerTable::new(&[0, 8, 16], &[0, 8, 16]);
        let grid = Grid::new(32).unwrap();
        let x = [31.5; 8];
        let mut leave = [0u64];
        t.map(0)
            .leavers(SimdBackend::widest_available(), &grid, &x, &x, &mut leave);
    }

    /// The same on the unit count.
    #[test]
    #[should_panic(expected = "table and grid sides differ")]
    fn a_count_on_a_grid_of_another_side_is_refused() {
        let t = OwnerTable::new(&[0, 8, 16], &[0, 8, 16]);
        let grid = Grid::new(32).unwrap();
        let x = [31.5; 8];
        let mut counts = [0u64; 4];
        t.count_into(SimdBackend::widest_available(), &grid, &x, &x, &mut counts);
    }
}
