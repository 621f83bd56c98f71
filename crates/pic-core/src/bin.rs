//! Cell-binned particle storage: counting-sort locality for the sweep.
//!
//! [`BinnedStore`] keeps a [`ParticleBatch`] physically ordered by cell
//! *column* — bin `c` is the contiguous span `offsets[c]..offsets[c+1]` —
//! so the sweep walks memory in cell order and hoists each bin's corner
//! charge. The permutation is built with a stable counting sort
//! and a gather that moves one field at a time through one scratch column
//! per element type. One rule decides when it runs, for every store under
//! every ownership map: at construction, and before the next sweep after
//! a structural edit left the store dirty. Nothing sorts on a timer — the
//! kernel moves every particle exactly `±(2k+1)` columns per step, so the
//! hoisted sweep below is exact at any store age. A sort allocates nothing
//! once warm (scratch capacity is retained between rebins; when the
//! population is column-homogeneous the permutation is the identity and
//! the gather is skipped entirely). Construction is the
//! same sort done once straight from the caller's records
//! ([`BinnedStore::new_owned`]), and a finished rank hands the batch on
//! without a copy ([`BinnedStore::take_batch`]), so a particle is resident
//! once plus 24 B of scratch.
//!
//! ## The parity invariant (why `q_left` can be hoisted)
//!
//! Between rebins particles drift out of their recorded columns, so the
//! *column* of a bin goes stale after one step. Its *parity* does not
//! stay merely approximately right — it is exactly shared by every
//! particle in the bin at every step: each spec-conforming particle moves
//! exactly `±(2k+1)` columns per step, an **odd** stride, so all
//! particles flip column parity together each step (the periodic wrap
//! preserves parity because the grid has an even number of columns).
//! A bin's parity at sweep time is therefore
//! `bin_column_parity XOR (steps_since_rebin & 1)`, valid at *any*
//! store age, and the corner pair `q_left = ±q`, `q_right =
//! −q_left` hoist out of the inner loop. The actual column (needed for
//! the corner displacement `rx`) is still derived per particle — that is
//! one float-to-int truncation, with the branchy `mesh_charge` lookups
//! gone. Debug builds assert the invariant per particle; populations
//! whose strides are corrupted out-of-spec (failure-injection mutants)
//! must rebin every step to stay exact.
//!
//! ## Ordered interior, mixed border (migration in O(leavers))
//!
//! A rebin leaves every bin *ordered*: one column, one parity. The store
//! tracks the contiguous bin range for which that still holds
//! (`ordered`); every particle outside it — bins a drain has already
//! touched, and exchange arrivals ([`BinnedStore::append_tail`]) — forms
//! the dense, unordered *mixed* region at the two ends of the batch. A
//! drain ([`BinnedStore::drain_leavers_to_buckets`]) first trims the bins
//! it is told may hold leavers off the ordered range, scans only the mixed
//! region, stages the leavers by runs of consecutive indices, and refills
//! each hole with a survivor from the end of the batch, a stretch at a
//! time: no shifting, the arrays stay dense, and ordered particles are never
//! moved relative to their bins. The ordered range only shrinks between
//! rebins. The sweep runs the hoisted kernel over the ordered bins and the
//! same kernel with a *per-particle* corner charge (read from the live
//! column) over the mixed region, so every particle is advanced exactly
//! once per step by the same arithmetic wherever it sits.
//!
//! ## Bit-exactness
//!
//! `advance_bin_span` performs, per particle, the *same sequence of
//! floating-point operations* as the unbinned sweep (`total_force` +
//! eqs. 1–2): same `coulomb` corner evaluations in the same pairing, same
//! integration, same wrap. Binning changes traversal order only, and
//! particles are independent within a step, so the resulting population
//! is bit-identical to the AoS oracle ([`crate::reference`]) — asserted by
//! the property tests and the rank suites. Canonical
//! (ascending-id) order is restored on export by [`BinnedStore::to_particles`].

use crate::charge::{coulomb, mesh_charge, ColumnParity, CornerCharge, SimConstants};
use crate::events::Region;
use crate::geometry::Grid;
use crate::particle::Particle;
use crate::pool::{self, SyncMutPtr};
use crate::simd::{self, SimdBackend};
use crate::soa::ParticleBatch;
use std::ops::Range;

/// Kept only because the benchmark's probes pass it as the third argument
/// of [`BinnedStore::new`] and [`BinnedStore::new_subdomain`], which
/// ignore it (no store sorts on a timer; module docs). Both go with the
/// benchmark's next adapter.
#[doc(hidden)]
pub const DEFAULT_REBIN: u32 = 16;

/// The shortest leaver run [`BinnedStore::drain_leavers_to_buckets`]
/// stages with one slice copy per field; a shorter one is copied element
/// by element. The cuts' drains are a few long runs, a VP map's are about
/// two leavers each, and eleven slice copies for those cost more than
/// they save.
pub const SLICE_RUN: usize = 8;

/// Cell-binned structure-of-arrays particle store (see module docs).
#[derive(Debug, Clone)]
pub struct BinnedStore {
    /// Particle data: the ordered bins in cell-column order (stable under
    /// rebinning), with the mixed region before and after them.
    batch: ParticleBatch,
    /// Gather targets of a non-identity rebin, one column per element
    /// type; they retain capacity so steady-state rebins allocate nothing.
    scratch: GatherScratch,
    /// `ncols + 1` prefix sums: bin `b` (column `col_lo + b`) is
    /// `offsets[b]..offsets[b+1]`. Only the entries
    /// `ordered.start..=ordered.end` are maintained between rebins.
    offsets: Vec<usize>,
    /// The bins whose invariants still hold (all of them after a rebin).
    /// Indices below `offsets[ordered.start]` and from
    /// `offsets[ordered.end]` up are the *mixed* region. A range holding
    /// no particle is normalised to `0..0`; `dirty` overrides it (nothing
    /// is ordered).
    ordered: Range<usize>,
    /// The runs of consecutive leavers the current drain vacated,
    /// ascending, each with its destination (capacity retained across
    /// drains).
    leavers: Vec<LeaverRun>,
    /// Drains that ran out of mixed survivors and closed the remaining
    /// holes by shifting the ordered block (telemetry for the tests).
    shift_fallbacks: u64,
    /// First grid column this store bins (0 for a whole-grid store; the
    /// rank's subgrid origin for a distributed store).
    col_lo: usize,
    /// Number of binned columns (`col_hi − col_lo`).
    ncols: usize,
    /// The counting-sort permutation of the last rebin, run-coalesced
    /// (typically about one run per bin; the capacity of the longest list
    /// so far is retained, so steady-state rebins allocate nothing).
    runs: Vec<Run>,
    /// Counting-sort write cursors (reused across rebins).
    cursor: Vec<usize>,
    /// Sweeps executed since the last rebin.
    age: u32,
    /// Set by any structural edit (push/remove/mutate); forces a rebin
    /// before the next sweep.
    dirty: bool,
    /// Lifetime count of [`BinnedStore::rebin`] invocations (telemetry).
    rebins: u64,
    /// Instruction-set backend for the span kernel, selected once at
    /// construction ([`SimdBackend::detect`]); every backend is
    /// bit-identical, so this is a pure throughput knob.
    backend: SimdBackend,
}

impl BinnedStore {
    /// Bin `particles` on `grid`. The third argument is ignored; it stays
    /// while the benchmark passes [`DEFAULT_REBIN`].
    pub fn new(particles: &[Particle], grid: &Grid, _rebin: u32) -> BinnedStore {
        BinnedStore::new_owned(particles, grid, 0, grid.ncells(), |_, _| true)
    }

    /// Bin `particles` over the column range `[col_lo, col_hi)` only — the
    /// per-rank store of the distributed implementations. Every particle
    /// must lie inside the range whenever a rebin runs (the rank step
    /// drains leavers before rebinning, so this holds by construction).
    /// The third argument is ignored, as in [`BinnedStore::new`].
    pub fn new_subdomain(
        particles: &[Particle],
        grid: &Grid,
        _rebin: u32,
        col_lo: usize,
        col_hi: usize,
    ) -> BinnedStore {
        BinnedStore::new_owned(particles, grid, col_lo, col_hi, |_, _| true)
    }

    /// Bin the particles of `particles` whose cell `owns(col, row)`
    /// accepts over the column range `[col_lo, col_hi)` — the one
    /// construction path, which a rank runs over the whole shared setup
    /// with its ownership map. A count pass sizes the bins and a stable
    /// scatter writes each owned record straight to its place in column
    /// order: the result (storage order, offsets, ordered range) is
    /// exactly that of collecting the owned particles, converting them to
    /// SoA and sorting, without the two intermediate copies. It counts as
    /// the store's first rebin. Panics if an owned particle lies outside
    /// the column range.
    pub fn new_owned(
        particles: &[Particle],
        grid: &Grid,
        col_lo: usize,
        col_hi: usize,
        owns: impl Fn(usize, usize) -> bool,
    ) -> BinnedStore {
        let mut store = BinnedStore::empty(grid, col_lo, col_hi);
        let bin_of = |p: &Particle| {
            let (c, r) = grid.cell_of_point(p.x, p.y);
            owns(c, r).then(|| {
                assert!(
                    (col_lo..col_hi).contains(&c),
                    "owned particle {} in column {c}, outside {col_lo}..{col_hi}",
                    p.id
                );
                c - col_lo
            })
        };
        for b in particles.iter().filter_map(bin_of) {
            store.offsets[b + 1] += 1;
        }
        for b in 0..store.ncols {
            store.offsets[b + 1] += store.offsets[b];
        }
        store.batch = ParticleBatch::zeroed(store.offsets[store.ncols]);
        store.cursor.copy_from_slice(&store.offsets[..store.ncols]);
        for p in particles {
            if let Some(b) = bin_of(p) {
                store.batch.set(store.cursor[b], *p);
                store.cursor[b] += 1;
            }
        }
        store.rebins = 1;
        store
    }

    /// A store over `[col_lo, col_hi)` holding nothing: every bin ordered
    /// and empty, as a sort of no particles leaves it.
    fn empty(grid: &Grid, col_lo: usize, col_hi: usize) -> BinnedStore {
        assert!(
            col_lo < col_hi && col_hi <= grid.ncells(),
            "bad column range {col_lo}..{col_hi} on a {}-column grid",
            grid.ncells()
        );
        let ncols = col_hi - col_lo;
        BinnedStore {
            batch: ParticleBatch::new(),
            scratch: GatherScratch::default(),
            offsets: vec![0; ncols + 1],
            ordered: 0..ncols,
            leavers: Vec::new(),
            shift_fallbacks: 0,
            col_lo,
            ncols,
            runs: Vec::new(),
            cursor: vec![0; ncols],
            age: 0,
            dirty: false,
            rebins: 0,
            backend: SimdBackend::detect(),
        }
    }

    /// Move the particles out, in storage order, leaving the store as one
    /// built from no particles over the same columns, its scratch
    /// released — how a finished rank hands its population to the outcome
    /// without a copy.
    pub fn take_batch(&mut self) -> ParticleBatch {
        self.scratch = GatherScratch::default();
        (self.runs, self.leavers) = (Vec::new(), Vec::new());
        self.offsets.fill(0);
        self.ordered = 0..self.ncols;
        (self.age, self.dirty) = (0, false);
        std::mem::take(&mut self.batch)
    }

    /// The binned column range `[col_lo, col_hi)`.
    pub fn columns(&self) -> (usize, usize) {
        (self.col_lo, self.col_lo + self.ncols)
    }

    /// Re-anchor the store to a new column range (a load-balancer cut
    /// move) by relabelling: the ordered bins keep their contents and
    /// their *global* columns, so only `col_lo` / `ncols` change and the
    /// maintained offsets move to their new bin indices — no particle is
    /// touched, the mixed region stays mixed and the age carries on.
    /// Every particle must already lie inside the new range, and so must
    /// every ordered bin — callers drain leavers under the new
    /// decomposition first, trimming the bins a leaver can sit in. A dirty
    /// store has no order to keep and takes the sort.
    pub fn set_columns(&mut self, grid: &Grid, col_lo: usize, col_hi: usize) {
        assert!(
            col_lo < col_hi && col_hi <= grid.ncells(),
            "bad column range {col_lo}..{col_hi} on a {}-column grid",
            grid.ncells()
        );
        let ncols = col_hi - col_lo;
        let Range { start, end } = self.ordered;
        // Global columns of the ordered bins.
        let (first, last) = (self.col_lo + start, self.col_lo + end);
        (self.col_lo, self.ncols) = (col_lo, ncols);
        if self.dirty {
            return self.rebin(grid);
        }
        if self.offsets[start] == self.offsets[end] {
            // No ordered particle, so no label to keep.
            self.ordered = 0..0;
            self.offsets.resize(ncols + 1, 0);
            return;
        }
        assert!(
            col_lo <= first && last <= col_hi,
            "ordered bins {first}..{last} outside the new range {col_lo}..{col_hi}"
        );
        self.offsets.resize(self.offsets.len().max(ncols + 1), 0);
        self.offsets.copy_within(start..=end, first - col_lo);
        self.offsets.truncate(ncols + 1);
        self.ordered = first - col_lo..last - col_lo;
    }

    /// The instruction-set backend the sweep kernel runs on.
    pub fn simd_backend(&self) -> SimdBackend {
        self.backend
    }

    /// Short kernel descriptor for telemetry and driver output:
    /// `"<backend>/exact"` (e.g. `"avx512/exact"`, `"scalar/exact"`) — the
    /// trace run-header `simd` field of schema v2, suffix included.
    pub fn kernel_desc(&self) -> String {
        format!("{}/exact", self.backend.name())
    }

    /// Override the kernel backend (A/B measurements and the cross-backend
    /// identity tests; results are bit-identical on every backend).
    pub fn set_simd_backend(&mut self, backend: SimdBackend) {
        self.backend = backend;
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Direct view of the underlying batch — **storage order**, not
    /// canonical order; use [`BinnedStore::to_particles`] for the canonical
    /// view.
    pub fn batch(&self) -> &ParticleBatch {
        &self.batch
    }

    /// Rebuild the counting-sort permutation from current positions.
    /// Stable (equal columns keep their relative order), skips the gather
    /// when the permutation is the identity, and reuses all scratch
    /// storage — after warm-up this allocates nothing. The gather moves
    /// one field at a time, so the scratch it needs is one column of each
    /// element type, not a second batch.
    pub fn rebin(&mut self, grid: &Grid) {
        let n = self.batch.len();
        let ncols = self.ncols;
        self.offsets.clear();
        self.offsets.resize(ncols + 1, 0);
        for &x in &self.batch.x {
            let c = grid.cell_of(x);
            debug_assert!(
                (self.col_lo..self.col_lo + ncols).contains(&c),
                "rebin with un-homed particle: column {c} outside {}..{}",
                self.col_lo,
                self.col_lo + ncols
            );
            self.offsets[c - self.col_lo + 1] += 1;
        }
        for c in 0..ncols {
            self.offsets[c + 1] += self.offsets[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets[..ncols]);
        assert!(n <= u32::MAX as usize, "run indices are u32");
        self.runs.clear();
        for (i, &x) in self.batch.x.iter().enumerate() {
            let c = grid.cell_of(x) - self.col_lo;
            push_run(&mut self.runs, i as u32, self.cursor[c] as u32);
            self.cursor[c] += 1;
        }
        // A permutation that is one run (or none, when empty) is the
        // identity: the gather is skipped.
        if self.runs.len() > 1 {
            self.scratch.gather(&mut self.batch, &self.runs);
        }
        self.ordered = 0..ncols;
        self.age = 0;
        self.dirty = false;
        self.rebins += 1;
    }

    /// Lifetime number of counting-sort (rebin) invocations, including the
    /// initial sort at construction. Feeds the trace `rebins` counter.
    pub fn rebin_count(&self) -> u64 {
        self.rebins
    }

    /// Advance every particle one step — the serial engine's sweep: rebin
    /// unless every particle sits in an ordered bin (an event's structural
    /// edit or tail appends came before), then sweep bin spans through the pool with the
    /// parity-hoisted kernel, which is exact at any age (module docs,
    /// *parity invariant*).
    pub fn advance_all(&mut self, grid: &Grid, consts: &SimConstants, chunk_size: usize) {
        if !self.fully_ordered() {
            self.rebin(grid);
        }
        let n = self.batch.len();
        let parity = self.age & 1;
        let backend = self.backend;
        let col_lo = self.col_lo;
        let offsets = &self.offsets[..];
        let xp = SyncMutPtr::new(self.batch.x.as_mut_ptr());
        let yp = SyncMutPtr::new(self.batch.y.as_mut_ptr());
        let vxp = SyncMutPtr::new(self.batch.vx.as_mut_ptr());
        let vyp = SyncMutPtr::new(self.batch.vy.as_mut_ptr());
        let q = &self.batch.q[..n];
        // Sweep `start..end` one bin-clipped sub-span at a time (empty
        // bins are skipped by the offsets walk). Ranges handed to this
        // closure are disjoint, so each span is exclusively owned here.
        let sweep_range = |start: usize, end: usize| {
            let mut b = offsets.partition_point(|&o| o <= start) - 1;
            let mut i = start;
            while i < end {
                while offsets[b + 1] <= i {
                    b += 1;
                }
                let span_end = end.min(offsets[b + 1]);
                let len = span_end - i;
                let bin_parity = ((col_lo + b) as u32 & 1) ^ parity;
                let q_left = if bin_parity == 0 { consts.q } else { -consts.q };
                let (x, y, vx, vy) = unsafe {
                    (
                        std::slice::from_raw_parts_mut(xp.get().add(i), len),
                        std::slice::from_raw_parts_mut(yp.get().add(i), len),
                        std::slice::from_raw_parts_mut(vxp.get().add(i), len),
                        std::slice::from_raw_parts_mut(vyp.get().add(i), len),
                    )
                };
                simd::advance_bin_span_simd(
                    backend,
                    grid,
                    consts,
                    q_left,
                    x,
                    y,
                    vx,
                    vy,
                    &q[i..span_end],
                );
                i = span_end;
            }
        };
        pool::global().run_chunked(n, chunk_size, &sweep_range);
        self.age += 1;
    }

    /// First stage of a split sweep — the distributed rank path, serial on
    /// the *calling* thread (each rank is already its own parallel unit):
    /// fold any pending structural edits in (rebin if dirty) so the bin
    /// spans are valid for [`Self::sweep_cols`]. A whole sweep is
    /// `prepare_sweep`, [`Self::sweep_cols`] over a partition of the
    /// columns, [`Self::sweep_tail_pass`], [`Self::end_sweep`] —
    /// bit-identical however the columns are partitioned: `sweep_cols`
    /// reaches exactly the ordered bins, `sweep_tail_pass` exactly the
    /// rest, every particle runs the same arithmetic against the same
    /// fixed per-step mesh, and particles never interact within a step.
    /// This is the rank path's only sort: nothing rebins at the end, and a
    /// store that stays clean keeps its age and its shrinking ordered range
    /// for the rest of the run.
    pub fn prepare_sweep(&mut self, grid: &Grid) {
        if self.dirty {
            self.rebin(grid);
        }
    }

    /// Sweep the *ordered* bins of the **global** columns in `cols`
    /// (clamped to this store's slab and to the ordered range — bins a
    /// drain already made mixed belong to [`Self::sweep_tail_pass`]). The
    /// rank step uses this to advance border columns first,
    /// launch their exchange, then advance the interior while messages are
    /// in flight. Requires [`Self::prepare_sweep`]; no structural edits
    /// may intervene before [`Self::end_sweep`].
    pub fn sweep_cols(&mut self, grid: &Grid, consts: &SimConstants, cols: Range<usize>) {
        assert!(!self.dirty, "sweep_cols requires prepare_sweep");
        let hi = self.col_lo + self.ncols;
        let b_lo = cols.start.clamp(self.col_lo, hi) - self.col_lo;
        let b_hi = cols.end.clamp(self.col_lo, hi) - self.col_lo;
        self.sweep_bins(grid, consts, b_lo..b_hi);
    }

    /// Advance the mixed region (drained border bins and exchange
    /// arrivals) one step through the exact span kernel with each
    /// particle's *live* column charge per lane — no parity flip, because
    /// the column is read fresh rather than remembered from a rebin. Must
    /// run before the step's drain and before new
    /// arrivals are appended with [`Self::append_tail`].
    pub fn sweep_tail_pass(&mut self, grid: &Grid, consts: &SimConstants) {
        let (lo_end, hi_start) = self.ordered_span();
        let parity = ColumnParity(consts.q);
        for span in [0..lo_end, hi_start..self.batch.len()] {
            let x = &mut self.batch.x[span.clone()];
            let y = &mut self.batch.y[span.clone()];
            let vx = &mut self.batch.vx[span.clone()];
            let vy = &mut self.batch.vy[span.clone()];
            let q = &self.batch.q[span];
            simd::advance_bin_span_simd(self.backend, grid, consts, parity, x, y, vx, vy, q);
        }
    }

    /// Close a split sweep: bump the age so the next sweep flips charge
    /// parity. Call exactly once per step, after every column range and
    /// the mixed region have been swept.
    pub fn end_sweep(&mut self) {
        self.age += 1;
    }

    /// The hoisted kernel over the ordered bins among `bins` (local bin
    /// indices) at the current age parity.
    fn sweep_bins(&mut self, grid: &Grid, consts: &SimConstants, bins: Range<usize>) {
        let parity = self.age & 1;
        for b in bins.start.max(self.ordered.start)..bins.end.min(self.ordered.end) {
            let (i, span_end) = (self.offsets[b], self.offsets[b + 1]);
            if i == span_end {
                continue;
            }
            let base = mesh_charge(self.col_lo + b, consts.q);
            let q_left = if parity == 1 { -base } else { base };
            let x = &mut self.batch.x[i..span_end];
            let y = &mut self.batch.y[i..span_end];
            let vx = &mut self.batch.vx[i..span_end];
            let vy = &mut self.batch.vy[i..span_end];
            let q = &self.batch.q[i..span_end];
            simd::advance_bin_span_simd(self.backend, grid, consts, q_left, x, y, vx, vy, q);
        }
    }

    /// Index span `(start, end)` of the ordered block; everything outside
    /// it is mixed. `(0, 0)` when nothing is ordered.
    fn ordered_span(&self) -> (usize, usize) {
        if self.dirty || self.ordered.is_empty() {
            (0, 0)
        } else {
            (
                self.offsets[self.ordered.start],
                self.offsets[self.ordered.end],
            )
        }
    }

    /// Whether every particle sits in an ordered bin (fresh from a rebin,
    /// or swept since without a drain or an arrival): every bin ordered and
    /// no mixed particle below the first or above the last.
    fn fully_ordered(&self) -> bool {
        !self.dirty
            && self.ordered == (0..self.ncols)
            && self.offsets[0] == 0
            && self.offsets[self.ncols] == self.batch.len()
    }

    /// Sweeps since the last rebin. Between rebins a particle in bin `b`
    /// may have drifted up to `stride · age` columns from `b`, so any
    /// bin-indexed border set must widen by the age (see
    /// [`Self::border_width`]).
    pub fn age(&self) -> u32 {
        self.age
    }

    /// Width (in columns) of the bin-space border that is guaranteed to
    /// contain every possible leaver after the *next* sweep, for a
    /// per-step column stride of `stride`: particles drift `stride` per
    /// sweep away from their bin column, so after `age` sweeps plus the
    /// upcoming one, only bins within `stride · (age + 1)` of a subdomain
    /// edge can hold a particle that exits it.
    pub fn border_width(&self, stride: usize) -> usize {
        stride * (self.age as usize + 1)
    }

    /// Number of particles outside the ordered bins (the mixed region:
    /// drained border bins and exchange arrivals).
    pub fn tail_len(&self) -> usize {
        let (lo_end, hi_start) = self.ordered_span();
        self.batch.len() - (hi_start - lo_end)
    }

    /// Fill `h` with the per-column particle counts of the *current*
    /// positions (global column indexing): one O(n) scan. The bins cannot
    /// answer it — after the first sweep they hold where the particles
    /// were at the last sort, not where they are.
    pub fn column_histogram_into(&self, grid: &Grid, h: &mut Vec<u64>) {
        h.clear();
        h.resize(grid.ncells(), 0);
        for &x in &self.batch.x {
            h[grid.cell_of(x)] += 1;
        }
    }

    /// Append a particle that may lie anywhere (marks the store dirty; the
    /// next sweep rebins first).
    pub fn push(&mut self, p: Particle) {
        self.batch.push(p);
        self.dirty = true;
    }

    /// Append an exchange arrival **without** disturbing the ordered bins:
    /// the particle joins the mixed region at the end of the batch, is
    /// swept by [`Self::sweep_tail_pass`] from then on, and does not
    /// force a counting sort — steady migration traffic never sorts. The
    /// particle must be homed (inside this store's column range) so a
    /// later sort stays in range. The record-at-a-time door of
    /// [`Self::append_tail`].
    pub fn push_tail(&mut self, p: Particle) {
        self.batch.push(p);
    }

    /// Append a batch of exchange arrivals to the mixed region, one slice
    /// copy per field — [`Self::push_tail`] for a whole bucket, under the
    /// same contract: every particle homed.
    pub fn append_tail(&mut self, arrivals: &ParticleBatch) {
        self.batch.extend_from_range(arrivals, 0..arrivals.len());
    }

    /// Drain every particle whose *current* cell fails `keep(col, row)`
    /// into `out`, every bin tested — the closure door of
    /// [`Self::drain_leavers_cols_into`], one particle at a time. Returns
    /// the drain count.
    pub fn drain_leavers_into(
        &mut self,
        grid: &Grid,
        keep: impl FnMut(usize, usize) -> bool,
        out: impl FnMut(Particle),
    ) -> usize {
        self.drain_leavers_cols_into(grid, |_| true, keep, out)
    }

    /// [`Self::drain_leavers_to_buckets`] with every leaver handed to
    /// `out` as an AoS record, in index order — the closure door for
    /// probes and tests. Returns the drain count.
    pub fn drain_leavers_cols_into(
        &mut self,
        grid: &Grid,
        active: impl FnMut(usize) -> bool,
        classifier: impl Classifier,
        mut out: impl FnMut(Particle),
    ) -> usize {
        self.drain_runs(
            grid,
            active,
            classifier,
            |_, _| 0,
            |batch, run, _| run.for_each(|i| out(batch.get(i))),
        )
    }

    /// Drain every particle that `classifier` finds leaving into
    /// `buckets[owner(col, row)]`, `(col, row)` its current cell — the
    /// exchange path, run every step without an AoS round-trip. Only the
    /// mixed region plus the bins of global columns for which
    /// `active(col)` is true are tested (module docs, "Ordered interior,
    /// mixed border"). The caller guarantees inactive columns hold no
    /// leavers — the rank step passes its *border* columns, because
    /// interior particles cannot out-run the border width in one step.
    /// Returns the drain count.
    ///
    /// The classifier ([`Classifier`]) answers a chunk of the mixed region
    /// at a time as a bitmask: an [`OwnerMap`] eight lanes at a time, a
    /// keep closure one particle at a time. Which one answers changes
    /// nothing downstream — the leaver set is the same, so are the holes,
    /// the refill and the storage order.
    ///
    /// Leavers are staged by runs — consecutive indices bound for one
    /// bucket — in index order, so each bucket receives its leavers in
    /// index order: a run of at least [`SLICE_RUN`] with one slice copy
    /// per field, a shorter one element by element. A cut's border bin
    /// leaves whole, so under the cuts a drain is a few long runs; a VP
    /// map's leavers are scattered.
    ///
    /// The ordered range shrinks to its first run of inactive bins; every
    /// bin trimmed off joins the mixed region, so a caller draining
    /// mid-sweep must have swept those bins already (with `active` the
    /// complement of one column interval, as in the overlapped step, they
    /// are exactly the active ones). Should the mixed suffix run out of
    /// survivors to refill with — a border that empties leftwards faster
    /// than arrivals replace it — the remaining holes are closed by
    /// sliding the ordered block left wholesale: its bins keep their
    /// contents and order, their offsets drop by a constant. When the
    /// store is dirty nothing is ordered and every particle is tested.
    pub fn drain_leavers_to_buckets(
        &mut self,
        grid: &Grid,
        active: impl FnMut(usize) -> bool,
        classifier: impl Classifier,
        owner: impl FnMut(usize, usize) -> usize,
        buckets: &mut [ParticleBatch],
    ) -> usize {
        self.drain_runs(grid, active, classifier, owner, |batch, run, dst| {
            let bucket = &mut buckets[dst];
            if run.len() >= SLICE_RUN {
                bucket.extend_from_range(batch, run);
            } else {
                run.for_each(|i| bucket.push_from(batch, i));
            }
        })
    }

    /// The one drain body behind both doors: classify the mixed region
    /// chunk by chunk, record the leavers as runs of consecutive indices
    /// with one destination `dest(col, row)` each, hand every run to
    /// `stage` in index order, then close the holes.
    fn drain_runs(
        &mut self,
        grid: &Grid,
        active: impl FnMut(usize) -> bool,
        mut classifier: impl Classifier,
        mut dest: impl FnMut(usize, usize) -> usize,
        mut stage: impl FnMut(&ParticleBatch, Range<usize>, usize),
    ) -> usize {
        /// Particles classified per call: the bitmask lives on the stack.
        const CHUNK: usize = 4096;
        let n = self.batch.len();
        assert!(n <= u32::MAX as usize, "leaver indices are u32");
        if !self.dirty {
            self.trim_ordered(active);
        }
        let (lo_end, hi_start) = self.ordered_span();

        self.leavers.clear();
        let mut mask = [0u64; CHUNK / 64];
        for span in [0..lo_end, hi_start..n] {
            for start in span.clone().step_by(CHUNK) {
                let end = span.end.min(start + CHUNK);
                let words = &mut mask[..(end - start).div_ceil(64)];
                words.fill(0);
                let (x, y) = (&self.batch.x[start..end], &self.batch.y[start..end]);
                classifier.leavers(self.backend, grid, x, y, words);
                for (w, mut bits) in (start..).step_by(64).zip(words.iter().copied()) {
                    while bits != 0 {
                        let i = w + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let (c, r) = grid.cell_of_point(self.batch.x[i], self.batch.y[i]);
                        push_leaver(&mut self.leavers, i as u32, dest(c, r) as u32);
                    }
                }
            }
        }
        let mut removed = 0;
        for run in &self.leavers {
            stage(&self.batch, run.range(), run.dst as usize);
            removed += run.len as usize;
        }
        self.close_holes(lo_end, hi_start, removed);
        removed
    }

    /// Close the holes of `self.leavers` (`removed` of them, all in the
    /// mixed region around the ordered block `lo_end..hi_start`): refill
    /// the holes below the new length, lowest first, with the survivors at
    /// the end of the batch, last first — one reversed run per stretch of
    /// holes against a stretch of survivors — and slide the ordered block
    /// left over what remains when those survivors run out.
    fn close_holes(&mut self, lo_end: usize, hi_start: usize, removed: usize) {
        let runs = &self.leavers[..];
        let n = self.batch.len();
        let new_len = n - removed;
        let floor = new_len.max(hi_start);
        // `runs[f]` holds the next hole to fill, `h`; survivors are taken
        // below `src`, and `runs[t..]` are the hole runs `src` has stepped
        // over.
        let (mut f, mut t, mut src) = (0, runs.len(), n);
        let mut h = runs.first().map_or(n, |r| r.start as usize);
        let exhausted = loop {
            if f == runs.len() || h >= new_len {
                break false;
            }
            while src > floor && t > f && runs[t - 1].range().end == src {
                src = floor.max(runs[t - 1].start as usize);
                t -= 1;
            }
            if src == floor {
                break true;
            }
            let survivors_from = floor.max(t.checked_sub(1).map_or(0, |j| runs[j].range().end));
            let holes_to = new_len.min(runs[f].range().end);
            let len = (src - survivors_from).min(holes_to - h);
            self.batch.copy_reversed(src - len..src, h);
            (src, h) = (src - len, h + len);
            if h == runs[f].range().end {
                f += 1;
                h = runs.get(f).map_or(n, |r| r.start as usize);
            }
        };
        if exhausted {
            // Every mixed survivor above the ordered block is spent and
            // the holes from `h` on below the block remain: slide each
            // hole-free stretch left over the holes before it. The last
            // stretch carries the ordered block, intact.
            let open_runs = runs[f..].partition_point(|r| (r.start as usize) < lo_end);
            let open = &runs[f..f + open_runs];
            let (mut w, mut shift) = (h, 0);
            for (j, run) in open.iter().enumerate() {
                let hole_end = run.range().end;
                shift += hole_end - h.max(run.start as usize);
                let next = open.get(j + 1).map_or(hi_start, |r| r.start as usize);
                self.batch.copy_within(hole_end..next, w);
                w += next - hole_end;
            }
            for o in &mut self.offsets[self.ordered.start..=self.ordered.end] {
                *o -= shift;
            }
            self.shift_fallbacks += 1;
        }
        self.batch.truncate(new_len);
    }

    /// Shrink the ordered range to its first run of bins that are not
    /// `active` (an empty result is normalised to `0..0`).
    fn trim_ordered(&mut self, mut active: impl FnMut(usize) -> bool) {
        let Range { start, end } = self.ordered;
        let mut lo = start;
        while lo < end && active(self.col_lo + lo) {
            lo += 1;
        }
        let mut hi = lo;
        while hi < end && !active(self.col_lo + hi) {
            hi += 1;
        }
        self.ordered = if self.offsets[lo] == self.offsets[hi] {
            0..0
        } else {
            lo..hi
        };
    }

    /// Remove every particle inside `region` whose id is at most `max_id`
    /// — a removal event, whose cutoff is the lowest-id selection agreed
    /// across the stores first ([`crate::events::EventLedger`]).
    /// Order-preserving; marks the store dirty. Returns the number removed.
    pub fn remove_in_region_upto(&mut self, region: &Region, max_id: u64) -> usize {
        self.dirty = true;
        self.batch.remove_in_region_upto(region, max_id)
    }

    /// Materialize the population in **canonical order** (ascending id —
    /// the order every unbinned store maintains physically). Allocates;
    /// verification path, not the steady state.
    pub fn to_particles(&self) -> Vec<Particle> {
        let mut ps = self.batch.to_particles();
        ps.sort_unstable_by_key(|p| p.id);
        ps
    }

    /// Physical index of the particle at canonical (ascending-id) index
    /// `idx` — failure-injection tests *only* (O(n log n)).
    fn physical_index(&self, idx: usize) -> usize {
        let mut order: Vec<usize> = (0..self.batch.len()).collect();
        order.sort_unstable_by_key(|&i| self.batch.id[i]);
        order[idx]
    }

    /// Read the particle at canonical index `idx` — failure-injection
    /// tests *only*.
    pub fn particle_at(&self, idx: usize) -> Particle {
        self.batch.get(self.physical_index(idx))
    }

    /// Overwrite the particle at canonical index `idx` — failure-injection
    /// tests *only*. Marks the store dirty (the edit may move the particle
    /// out of its bin or off the parity lattice).
    pub fn set(&mut self, idx: usize, p: Particle) {
        let i = self.physical_index(idx);
        self.batch.set(i, p);
        self.dirty = true;
    }

    /// Remove and return the particle with the largest id (the canonical
    /// tail, matching `Vec::pop` on an ascending-id AoS store) —
    /// failure-injection tests *only*.
    pub fn pop(&mut self) -> Option<Particle> {
        if self.batch.is_empty() {
            return None;
        }
        let i = self.physical_index(self.batch.len() - 1);
        self.dirty = true;
        Some(self.batch.swap_remove(i))
    }

    /// Sum of ids (checksum contribution) — order-independent.
    pub fn id_sum(&self) -> u128 {
        self.batch.id_sum()
    }
}

/// The question a drain asks of the mixed region: which particles leave.
/// A classifier answers a span of positions at once as a bitmask — bit
/// `j % 64` of `leave[j / 64]` set when lane `j` leaves — so the drain's
/// emission order, holes and refill are one body whoever answers. Three
/// classifiers serve it: the two data maps of [`OwnerMap`], eight lanes at
/// a time on AVX-512, and any `FnMut(col, row) -> bool` keep rule, one
/// particle at a time (the door for probes and tests).
pub trait Classifier {
    /// Set the bit of every lane of `x`/`y` that leaves; `leave` holds at
    /// least `x.len().div_ceil(64)` words, zeroed.
    fn leavers(
        &mut self,
        backend: SimdBackend,
        grid: &Grid,
        x: &[f64],
        y: &[f64],
        leave: &mut [u64],
    );
}

impl<F: FnMut(usize, usize) -> bool> Classifier for F {
    #[inline]
    fn leavers(&mut self, _: SimdBackend, grid: &Grid, x: &[f64], y: &[f64], leave: &mut [u64]) {
        mark_by_cell(grid, x, y, leave, 0, self);
    }
}

/// Set bit `from + j` of `leave` for each point `j` whose cell `keep`
/// rejects — the scalar rule. Zipped slices: no bounds checks, and a
/// `keep` that ignores the row leaves the `y` load dead. The store sits
/// behind a branch: leavers are rare, so the common path is the test
/// alone, as cheap as the per-particle drain loop this replaced.
#[inline(always)]
fn mark_by_cell(
    grid: &Grid,
    x: &[f64],
    y: &[f64],
    leave: &mut [u64],
    from: usize,
    mut keep: impl FnMut(usize, usize) -> bool,
) {
    for (j, (&x, &y)) in (from..).zip(x.iter().zip(y)) {
        let (c, r) = grid.cell_of_point(x, y);
        if !keep(c, r) {
            leave[j / 64] |= 1 << (j % 64);
        }
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
    /// the owner of a cell is read from a [`CellTable`].
    Cells(CellTable<'a>),
}

impl OwnerMap<'_> {
    /// The scalar rule: bit `from + j` of `leave` for each point `j` this
    /// rank does not keep.
    #[inline]
    pub(crate) fn mark_leavers(
        &self,
        grid: &Grid,
        x: &[f64],
        y: &[f64],
        leave: &mut [u64],
        from: usize,
    ) {
        match *self {
            OwnerMap::Columns { lo, hi } => {
                mark_by_cell(grid, x, y, leave, from, |c, _| (lo..hi).contains(&c))
            }
            OwnerMap::Cells(t) => mark_by_cell(grid, x, y, leave, from, |c, r| {
                t.owner_of_cell(c, r) == t.me as usize
            }),
        }
    }
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
        simd::owner_leavers(backend, grid, self, x, y, leave);
    }
}

/// A 2-D ownership table: the owner of cell `(c, r)` is
/// `owner[col[c] + row[r]]` — a Cartesian decomposition's ranks (`col` the
/// processor column, `row` `px ×` the processor row, `owner` the identity),
/// or a VP grid's tiles and their VP→core table.
///
/// The fields stay private: the vector classifiers gather from the tables
/// unchecked, on the bounds [`CellTable::new`] asserts.
#[derive(Debug, Clone, Copy)]
pub struct CellTable<'a> {
    col: &'a [u32],
    row: &'a [u32],
    owner: &'a [u32],
    /// The rank whose cells are kept.
    me: u32,
}

impl<'a> CellTable<'a> {
    /// Panics unless `col` and `row` have one entry per cell of a side of
    /// `grid` and every `col[c] + row[r]` indexes `owner` — what the
    /// vector gathers rely on. O(cells per side).
    pub fn new(grid: &Grid, col: &'a [u32], row: &'a [u32], owner: &'a [u32], me: u32) -> Self {
        let n = grid.ncells();
        assert!(
            col.len() == n && row.len() == n,
            "cell tables of {} and {} entries on a {n}-cell side",
            col.len(),
            row.len()
        );
        let top = |t: &[u32]| t.iter().copied().max().unwrap_or(0) as usize;
        assert!(
            top(col) + top(row) < owner.len(),
            "cell index {} outside an owner table of {}",
            top(col) + top(row),
            owner.len()
        );
        CellTable {
            col,
            row,
            owner,
            me,
        }
    }

    /// The tables `(col, row, owner)` and the kept rank, as checked by
    /// [`Self::new`].
    #[inline]
    pub(crate) fn parts(&self) -> (&'a [u32], &'a [u32], &'a [u32], u32) {
        (self.col, self.row, self.owner, self.me)
    }

    /// The table index `col[c] + row[r]` of cell `(c, r)` (the VP of a
    /// VP grid's cell).
    #[inline]
    pub fn index(&self, c: usize, r: usize) -> usize {
        (self.col[c] + self.row[r]) as usize
    }

    /// Owner of cell `(c, r)`.
    #[inline]
    pub fn owner_of_cell(&self, c: usize, r: usize) -> usize {
        self.owner[self.index(c, r)] as usize
    }

    /// `counts[index of the cell of (x[j], y[j])] += 1` for every point,
    /// through the classifier's per-lane index on `backend`.
    pub fn count_into(
        &self,
        backend: SimdBackend,
        grid: &Grid,
        x: &[f64],
        y: &[f64],
        counts: &mut [u64],
    ) {
        assert_eq!(x.len(), y.len());
        simd::count_cells(backend, grid, self, x, y, counts);
    }

    /// [`Self::count_into`] one point at a time.
    #[inline]
    pub(crate) fn count_scalar(&self, grid: &Grid, x: &[f64], y: &[f64], counts: &mut [u64]) {
        for (&x, &y) in x.iter().zip(y) {
            let (c, r) = grid.cell_of_point(x, y);
            counts[self.index(c, r)] += 1;
        }
    }
}

/// `len` consecutive source indices from `src` whose rebin destinations
/// are consecutive from `dst`. The stable counting sort of particles that
/// move in lock-step keeps whole bins together, so a rebin permutation is
/// typically about one run per bin; isolated arrivals are runs of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    src: u32,
    dst: u32,
    len: u32,
}

/// Leavers at `start..start + len` bound for one destination `dst`: the
/// unit a drain stages and whose holes it closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LeaverRun {
    start: u32,
    len: u32,
    dst: u32,
}

impl LeaverRun {
    fn range(&self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Record that leaver `i` goes to `dst`. Leavers are pushed in ascending
/// order; the last run grows when `i` follows it with the same
/// destination.
#[inline(always)]
fn push_leaver(runs: &mut Vec<LeaverRun>, i: u32, dst: u32) {
    match runs.last_mut() {
        Some(r) if r.start + r.len == i && r.dst == dst => r.len += 1,
        _ => runs.push(LeaverRun {
            start: i,
            len: 1,
            dst,
        }),
    }
}

/// Record that source `src` goes to `dst`. Sources must be pushed in
/// ascending order without gaps, so only the destination decides whether
/// the last run grows.
#[inline(always)]
fn push_run(runs: &mut Vec<Run>, src: u32, dst: u32) {
    match runs.last_mut() {
        Some(r) if r.dst + r.len == dst => r.len += 1,
        _ => runs.push(Run { src, dst, len: 1 }),
    }
}

/// The gather targets of a rebin: one column per element type of
/// [`ParticleBatch`]. Each field is gathered into the column of its type
/// and swapped in, and the field it replaces becomes that column for the
/// next field of the type — 24 B per particle of scratch (`u64`, `f64`,
/// `u32`, `i32`) where a second batch would hold 76, for the same bytes
/// copied.
#[derive(Debug, Clone, Default)]
struct GatherScratch {
    id: Vec<u64>,
    f64s: Vec<f64>,
    u32s: Vec<u32>,
    m: Vec<i32>,
}

impl GatherScratch {
    /// Permute every field of `batch` by `runs`.
    fn gather(&mut self, batch: &mut ParticleBatch, runs: &[Run]) {
        let ParticleBatch {
            id,
            x,
            y,
            vx,
            vy,
            q,
            x0,
            y0,
            k,
            m,
            born_at,
        } = batch;
        gather_field(id, &mut self.id, runs);
        for field in [x, y, vx, vy, q, x0, y0] {
            gather_field(field, &mut self.f64s, runs);
        }
        for field in [k, born_at] {
            gather_field(field, &mut self.u32s, runs);
        }
        gather_field(m, &mut self.m, runs);
    }
}

/// Gather `field` into `scratch` under the permutation `runs`, one block
/// copy per run, and swap the result in. `scratch` is resized, not
/// cleared: every element is overwritten (the runs cover a permutation),
/// so only a length change touches memory beyond the copies.
fn gather_field<T: Copy + Default>(field: &mut Vec<T>, scratch: &mut Vec<T>, runs: &[Run]) {
    scratch.resize(field.len(), T::default());
    for r in runs {
        let (s, d, len) = (r.src as usize, r.dst as usize, r.len as usize);
        scratch[d..d + len].copy_from_slice(&field[s..s + len]);
    }
    std::mem::swap(field, scratch);
}

/// The force-and-integrate half of the parity-specialized sweep kernel
/// ([`advance_bin_span`]), exposed separately so the SIMD layer can run
/// span tails (`len mod 4`) through exactly this code. `charge` is the
/// hoisted `q_left` of an ordered bin (an `f64`) or a per-column source
/// for the mixed region.
#[inline(always)]
pub(crate) fn force_span<C: CornerCharge>(
    consts: &SimConstants,
    charge: C,
    x: &mut [f64],
    y: &mut [f64],
    vx: &mut [f64],
    vy: &mut [f64],
    q: &[f64],
) {
    let dt = consts.dt;
    let h = consts.h;
    for i in 0..x.len() {
        let xi = x[i];
        let yi = y[i];
        // `cell_of` minus the defensive clamp: wrapped coordinates lie in
        // [0, L), where the truncation alone yields the identical index.
        let col = xi as usize;
        let row = yi as usize;
        let q_left = charge.at(col);
        let q_right = -q_left;
        // The parity invariant (module docs): every particle in the span
        // agrees with the hoisted corner charge.
        debug_assert_eq!(mesh_charge(col, consts.q), q_left, "parity drift at x={xi}");
        let rx = xi - col as f64;
        let ry = yi - row as f64;
        let qp = q[i];
        let (fx0, fy0) = coulomb(rx, ry, q_left, qp); // bottom-left
        let (fx1, fy1) = coulomb(rx, ry - h, q_left, qp); // top-left
        let (fx2, fy2) = coulomb(rx - h, ry, q_right, qp); // bottom-right
        let (fx3, fy3) = coulomb(rx - h, ry - h, q_right, qp); // top-right
        let ax = (fx0 + fx1) + (fx2 + fx3);
        let ay = (fy0 + fy1) + (fy2 + fy3);
        x[i] = xi + (vx[i] + 0.5 * ax * dt) * dt;
        y[i] = yi + (vy[i] + 0.5 * ay * dt) * dt;
        vx[i] += ax * dt;
        vy[i] += ay * dt;
    }
}

/// The parity-specialized sweep kernel: eqs. 1–2 over one span whose
/// mesh-corner pair `q_left` (left column) and `−q_left` (right
/// column) come from `charge` — one hoisted value shared by a bin-clipped
/// span, or each particle's live column. This is the scalar reference
/// the SIMD backends ([`crate::simd`]) are proven bit-identical against,
/// and the kernel the `Scalar` backend runs directly.
///
/// Per particle this is the *same operation sequence* as
/// `total_force` + [`crate::motion::advance_particle`]: the same four [`coulomb`]
/// corner evaluations in the same pairing, the same half-acceleration
/// integration, the same wrap. What the binning removes is per-particle
/// work that is invariant across the span: the `mesh_charge` parity
/// branches are gone (hoisted to `q_left`), and the force/integrate loop
/// ([`force_span`]) is split from the (branchy) wrap pass so the hot loop
/// is branch-free — `coulomb`'s zero-distance guard is a value select —
/// and eligible for autovectorization. Splitting is bit-neutral:
/// particles are independent and each particle's own operation order is
/// unchanged.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn advance_bin_span<C: CornerCharge>(
    grid: &Grid,
    consts: &SimConstants,
    charge: C,
    x: &mut [f64],
    y: &mut [f64],
    vx: &mut [f64],
    vy: &mut [f64],
    q: &[f64],
) {
    #[cfg(debug_assertions)]
    for i in 0..x.len() {
        debug_assert_eq!(
            (x[i] as usize, y[i] as usize),
            grid.cell_of_point(x[i], y[i])
        );
    }
    force_span(consts, charge, x, y, vx, vy, q);
    for i in 0..x.len() {
        x[i] = grid.wrap_coord(x[i]);
        y[i] = grid.wrap_coord(y[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::init::InitConfig;
    use crate::motion::advance_all;
    use crate::pool::DEFAULT_CHUNK;
    use crate::verify::{triangular_id_sum, verify_all, DEFAULT_TOLERANCE};

    fn population(n: u64, dist: Distribution) -> (Grid, Vec<Particle>) {
        let grid = Grid::new(32).unwrap();
        let s = InitConfig::new(grid, n, dist)
            .with_k(1)
            .with_m(-1)
            .build()
            .unwrap();
        (grid, s.particles)
    }

    #[test]
    fn binning_orders_by_column_and_is_stable() {
        let (grid, ps) = population(500, Distribution::Geometric { r: 0.9 });
        let store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        let b = store.batch();
        // Non-decreasing column across the batch…
        let cols: Vec<usize> = b.x.iter().map(|&x| grid.cell_of(x)).collect();
        assert!(cols.windows(2).all(|w| w[0] <= w[1]), "not column-sorted");
        // …ascending id within each bin (stability from canonical order).
        for c in 0..grid.ncells() {
            let span = &b.id[store.offsets[c]..store.offsets[c + 1]];
            assert!(span.windows(2).all(|w| w[0] < w[1]), "bin {c} unstable");
        }
    }

    /// The direct scatter of [`BinnedStore::new_owned`] is the
    /// construction it replaced — collect the owned records, convert them
    /// to SoA, sort — to the bit: storage order, offsets, ordered range and
    /// sort count, for a rank that keeps nothing, one that keeps
    /// everything, column slabs and 2-D ownership, over an input whose
    /// order is not column order.
    #[test]
    fn owned_scatter_matches_filter_convert_and_sort() {
        let (grid, mut ps) = population(700, Distribution::Geometric { r: 0.9 });
        for _ in 0..3 {
            advance_all(&grid, &SimConstants::CANONICAL, &mut ps);
        }
        let (n, half) = (grid.ncells(), grid.ncells() / 2);
        type Owns = Box<dyn Fn(usize, usize) -> bool>;
        let cases: [(&str, usize, usize, Owns); 6] = [
            ("keeps nothing", 0, n, Box::new(|_, _| false)),
            ("keeps everything", 0, n, Box::new(|_, _| true)),
            ("left slab", 0, half, Box::new(move |c, _| c < half)),
            ("right slab", half, n, Box::new(move |c, _| c >= half)),
            (
                "2-D block",
                half,
                n,
                Box::new(move |c, r| c >= half && r < half),
            ),
            ("VP tiles", 0, n, Box::new(|c, r| (c / 4 + r / 4) % 3 == 1)),
        ];
        for (name, lo, hi, owns) in cases {
            let got = BinnedStore::new_owned(&ps, &grid, lo, hi, &owns);
            let mine: Vec<Particle> = (ps.iter().copied())
                .filter(|p| {
                    let (c, r) = grid.cell_of_point(p.x, p.y);
                    owns(c, r)
                })
                .collect();
            let mut want = BinnedStore::empty(&grid, lo, hi);
            want.batch = mine.into_iter().collect();
            want.rebin(&grid);
            assert_eq!(got.batch, want.batch, "{name}: storage order");
            assert_eq!(got.offsets, want.offsets, "{name}");
            assert_eq!(got.ordered, want.ordered, "{name}");
            assert_eq!(got.rebin_count(), 1, "{name}: the build is one sort");
            assert_eq!((got.age, got.dirty), (0, false), "{name}");
            assert!(got.fully_ordered(), "{name}");
            assert_eq!(got.len() == ps.len(), name == "keeps everything");
            assert_eq!(got.is_empty(), name == "keeps nothing", "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "outside 0..16")]
    fn owned_scatter_rejects_an_owned_particle_outside_the_columns() {
        let (grid, ps) = population(300, Distribution::Uniform);
        BinnedStore::new_owned(&ps, &grid, 0, 16, |_, _| true);
    }

    /// One whole sweep through the split calls, the columns in one piece.
    fn sweep(store: &mut BinnedStore, grid: &Grid, consts: &SimConstants) {
        store.prepare_sweep(grid);
        store.sweep_cols(grid, consts, 0..grid.ncells());
        store.sweep_tail_pass(grid, consts);
        store.end_sweep();
    }

    #[test]
    fn take_batch_moves_the_particles_out_and_leaves_an_empty_store() {
        let (grid, ps) = population(300, Distribution::Geometric { r: 0.9 });
        let consts = SimConstants::CANONICAL;
        let mut store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        sweep(&mut store, &grid, &consts);
        let before = store.batch().clone();
        assert_eq!(store.take_batch(), before, "storage order, no copy-sort");
        assert!(store.is_empty());
        assert!(store.fully_ordered(), "as built from no particles");
        let mut h = Vec::new();
        store.column_histogram_into(&grid, &mut h);
        assert!(h.iter().all(|&c| c == 0));
        store.advance_all(&grid, &consts, DEFAULT_CHUNK);
        assert!(store.is_empty());
    }

    /// The run-coalesced per-field gather is the element-wise scatter
    /// `dst[perm[i]] = src[i]` on all eleven fields, whatever the shape of
    /// the permutation and whatever the scratch columns held before — and
    /// lock-step permutations really do collapse to a handful of runs.
    #[test]
    fn run_coalesced_gather_matches_elementwise_scatter() {
        let n = 257usize;
        let src: ParticleBatch = (0..n)
            .map(|i| {
                let f = i as f64;
                Particle {
                    id: i as u64 + 1,
                    x: f + 0.5,
                    y: f + 0.25,
                    vx: -f,
                    vy: 2.0 * f,
                    q: 1.0 / (f + 1.0),
                    x0: f + 0.125,
                    y0: f + 0.75,
                    k: i as u32,
                    m: -(i as i32),
                    born_at: 3 * i as u32,
                }
            })
            .collect();
        let mut rng = crate::rng::SplitMix64::seed_from_u64(2016);
        let mut random: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            random.swap(i, rng.gen_range(0..i + 1));
        }
        // The last element (an exchange arrival) sorts into the middle.
        let arrival = |i: usize| match i {
            i if i == n - 1 => 100,
            i if i >= 100 => i + 1,
            i => i,
        };
        let cases: [(&str, Vec<usize>, Option<usize>); 4] = [
            ("identity", (0..n).collect(), Some(1)),
            ("rotation", (0..n).map(|i| (i + 40) % n).collect(), Some(2)),
            ("single arrival", (0..n).map(arrival).collect(), Some(3)),
            ("random", random, None),
        ];
        for (name, perm, want_runs) in cases {
            let mut runs = Vec::new();
            for (i, &d) in perm.iter().enumerate() {
                push_run(&mut runs, i as u32, d as u32);
            }
            if let Some(want) = want_runs {
                assert_eq!(runs.len(), want, "{name}: {runs:?}");
            }
            assert_eq!(runs.iter().map(|r| r.len as usize).sum::<usize>(), n);
            // Stale scratch columns shorter and longer than the batch (and
            // of different lengths per type): the gather must not rely on a
            // cleared or zeroed destination.
            for stale in [0, n / 2, n + 9] {
                let garbage = |i: usize| src.get((i * 7) % n);
                let mut scratch = GatherScratch {
                    id: (0..stale).map(|i| garbage(i).id).collect(),
                    f64s: (0..stale + 3).map(|i| garbage(i).vy).collect(),
                    u32s: (0..stale / 2).map(|i| garbage(i).born_at).collect(),
                    m: (0..n + 9 - stale).map(|i| garbage(i).m).collect(),
                };
                let mut dst = src.clone();
                scratch.gather(&mut dst, &runs);
                assert_eq!(dst.len(), n, "{name}");
                for (i, &d) in perm.iter().enumerate() {
                    assert_eq!(dst.get(d), src.get(i), "{name}: source {i} → {d}");
                }
                // Reused as-is, the scratch left behind serves the next
                // gather just as well.
                scratch.gather(&mut dst, &runs);
                for (i, &d) in perm.iter().enumerate() {
                    assert_eq!(dst.get(perm[d]), src.get(i), "{name}: second pass, {i}");
                }
            }
        }
    }

    #[test]
    fn to_particles_restores_canonical_order() {
        let (grid, ps) = population(300, Distribution::Sinusoidal);
        let store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        assert_eq!(store.to_particles(), ps);
        assert_eq!(store.id_sum(), triangular_id_sum(300));
    }

    #[test]
    fn binned_sweep_bitwise_matches_unbinned_at_any_sort_cadence() {
        // `advance_all` runs no timer: the hoisted kernel is exact at any
        // age, and a caller's explicit sort at any cadence (or never)
        // changes traversal order only.
        let (grid, ps) = population(400, Distribution::Geometric { r: 0.9 });
        let consts = SimConstants::CANONICAL;
        for rebin in [1u32, 3, 16, u32::MAX] {
            let mut reference = ps.clone();
            let mut binned = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
            for step in 1..=40u32 {
                advance_all(&grid, &consts, &mut reference);
                binned.advance_all(&grid, &consts, DEFAULT_CHUNK);
                if step % rebin == 0 {
                    binned.rebin(&grid);
                }
            }
            assert_eq!(binned.rebin_count(), 1 + 40 / rebin as u64, "no timer");
            let mut want = reference.clone();
            want.sort_unstable_by_key(|p| p.id);
            assert_eq!(want, binned.to_particles(), "rebin={rebin} diverged");
        }
    }

    #[test]
    fn binned_run_verifies() {
        let (grid, ps) = population(300, Distribution::PAPER_SKEW);
        let consts = SimConstants::CANONICAL;
        let mut store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        for _ in 0..60 {
            store.advance_all(&grid, &consts, DEFAULT_CHUNK);
        }
        let report = verify_all(
            &grid,
            &store.to_particles(),
            60,
            triangular_id_sum(300),
            DEFAULT_TOLERANCE,
        );
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn histogram_falls_back_when_stale() {
        let (grid, ps) = population(200, Distribution::Uniform);
        let consts = SimConstants::CANONICAL;
        let mut store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        store.advance_all(&grid, &consts, DEFAULT_CHUNK);
        let mut h = Vec::new();
        store.column_histogram_into(&grid, &mut h);
        assert_eq!(h.iter().sum::<u64>(), 200);
        // The histogram reflects *current* positions, not the bins the
        // particles were sorted into a sweep ago.
        let bins: Vec<u64> = (store.offsets.windows(2))
            .map(|w| (w[1] - w[0]) as u64)
            .collect();
        assert_ne!(h, bins, "a k = 0 sweep moves every particle one column");
        let mut scan = vec![0u64; grid.ncells()];
        for &x in &store.batch().x {
            scan[grid.cell_of(x)] += 1;
        }
        assert_eq!(h, scan);
    }

    #[test]
    fn edits_mark_dirty_and_next_sweep_recovers() {
        let (grid, ps) = population(100, Distribution::Uniform);
        let consts = SimConstants::CANONICAL;
        let mut store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        let doomed = store.remove_in_region_upto(&Region::whole(32), 10);
        assert_eq!(doomed, 10);
        assert!(!store.fully_ordered());
        // The dirty rebin runs at the start of the next sweep; the sweep
        // itself then matches an unbinned sweep of the same survivors.
        let mut reference = store.to_particles();
        store.advance_all(&grid, &consts, DEFAULT_CHUNK);
        advance_all(&grid, &consts, &mut reference);
        assert_eq!(store.len(), 90);
        assert_eq!(store.offsets[grid.ncells()], 90, "rebin saw the removal");
        assert_eq!(reference, store.to_particles());
    }

    /// Reference rank loop: two subdomain stores exchanging via
    /// drain/push_tail, compared bitwise against the unbinned sweep.
    fn run_split_stores(steps: u32, n: u64, dist: Distribution) -> (Vec<Particle>, Vec<Particle>) {
        let (grid, ps) = population(n, dist);
        let consts = SimConstants::CANONICAL;
        let ncells = grid.ncells();
        let mid = ncells / 2;
        let mut reference = ps.clone();
        let split = |lo: usize, hi: usize| -> Vec<Particle> {
            ps.iter()
                .copied()
                .filter(|p| (lo..hi).contains(&grid.cell_of(p.x)))
                .collect()
        };
        let mut left = BinnedStore::new_subdomain(&split(0, mid), &grid, DEFAULT_REBIN, 0, mid);
        let mut right =
            BinnedStore::new_subdomain(&split(mid, ncells), &grid, DEFAULT_REBIN, mid, ncells);
        for _ in 0..steps {
            advance_all(&grid, &consts, &mut reference);
            sweep(&mut left, &grid, &consts);
            sweep(&mut right, &grid, &consts);
            let (mut to_right, mut to_left) = (Vec::new(), Vec::new());
            left.drain_leavers_into(&grid, |c, _| c < mid, |p| to_right.push(p));
            right.drain_leavers_into(&grid, |c, _| c >= mid, |p| to_left.push(p));
            to_right.into_iter().for_each(|p| right.push_tail(p));
            to_left.into_iter().for_each(|p| left.push_tail(p));
        }
        let mut got = [left.to_particles(), right.to_particles()].concat();
        got.sort_unstable_by_key(|p| p.id);
        let mut want = reference.clone();
        want.sort_unstable_by_key(|p| p.id);
        (want, got)
    }

    #[test]
    fn subdomain_stores_with_drain_match_unbinned_sweep() {
        let (want, got) = run_split_stores(40, 600, Distribution::Geometric { r: 0.9 });
        assert_eq!(want, got, "diverged");
    }

    /// The overlapped rank ordering — border sweep, tail sweep, border
    /// drain, interior sweep, arrivals, age bump — run on the same
    /// two-store split as [`run_split_stores`].
    fn run_split_stores_overlapped(
        steps: u32,
        n: u64,
        dist: Distribution,
        border: usize,
    ) -> Vec<Particle> {
        let (grid, ps) = population(n, dist);
        let consts = SimConstants::CANONICAL;
        let ncells = grid.ncells();
        let mid = ncells / 2;
        let split = |lo: usize, hi: usize| -> Vec<Particle> {
            ps.iter()
                .copied()
                .filter(|p| (lo..hi).contains(&grid.cell_of(p.x)))
                .collect()
        };
        let mut left = BinnedStore::new_subdomain(&split(0, mid), &grid, DEFAULT_REBIN, 0, mid);
        let mut right =
            BinnedStore::new_subdomain(&split(mid, ncells), &grid, DEFAULT_REBIN, mid, ncells);
        for _ in 0..steps {
            let (mut to_right, mut to_left) = (Vec::new(), Vec::new());
            for (store, lo, hi, out) in [
                (&mut left, 0, mid, &mut to_right),
                (&mut right, mid, ncells, &mut to_left),
            ] {
                store.prepare_sweep(&grid);
                // Bins are indexed by the column at the last sort;
                // particles drift up to stride·age from it, so the border
                // widens with bin age.
                let w = store.border_width(border);
                let b_lo = (lo + w).min(hi);
                let b_hi = hi.saturating_sub(w).max(b_lo);
                store.sweep_cols(&grid, &consts, lo..b_lo);
                store.sweep_cols(&grid, &consts, b_hi..hi);
                store.sweep_tail_pass(&grid, &consts);
                let is_border = |c: usize| !(b_lo..b_hi).contains(&c);
                store.drain_leavers_cols_into(
                    &grid,
                    is_border,
                    |c, _| (lo..hi).contains(&c),
                    |p| out.push(p),
                );
                // Interior advances "while messages are in flight".
                store.sweep_cols(&grid, &consts, b_lo..b_hi);
            }
            to_right.into_iter().for_each(|p| right.push_tail(p));
            to_left.into_iter().for_each(|p| left.push_tail(p));
            left.end_sweep();
            right.end_sweep();
        }
        let mut got = [left.to_particles(), right.to_particles()].concat();
        got.sort_unstable_by_key(|p| p.id);
        got
    }

    #[test]
    fn overlapped_split_sweep_is_bit_identical_to_synchronous() {
        // Border width 3 covers the k = 1 stride (2k + 1); the overlapped
        // ordering must not change a single bit vs the one-call sweep.
        let (want, got) = run_split_stores(40, 600, Distribution::Geometric { r: 0.9 });
        assert_eq!(want, got, "sync harness self-check failed");
        let overlapped =
            run_split_stores_overlapped(40, 600, Distribution::Geometric { r: 0.9 }, 3);
        assert_eq!(got, overlapped, "overlapped ordering diverged");
    }

    #[test]
    fn drain_cols_skips_inactive_bins_and_matches_full_drain() {
        let (grid, ps) = population(700, Distribution::Geometric { r: 0.85 });
        let mid = grid.ncells() / 2;
        let mut full = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        let mut restricted = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        let mut gone_full = Vec::new();
        // Leavers here are exactly the particles in columns ≥ mid, so the
        // active set {c ≥ mid} covers every leaver.
        let a = full.drain_leavers_into(&grid, |c, _| c < mid, |p| gone_full.push(p));
        let mut gone_restricted = Vec::new();
        let mut tested_inactive = false;
        let b = restricted.drain_leavers_cols_into(
            &grid,
            |c| c >= mid,
            |c, _| {
                tested_inactive |= c < mid;
                c < mid
            },
            |p| gone_restricted.push(p),
        );
        assert_eq!(a, b);
        assert!(!tested_inactive, "inactive bins must skip the keep test");
        gone_full.sort_unstable_by_key(|p| p.id);
        gone_restricted.sort_unstable_by_key(|p| p.id);
        assert_eq!(gone_full, gone_restricted);
        assert_eq!(full.to_particles(), restricted.to_particles());
        // A drain leaves mixed bins behind until the next sort.
        assert!(!restricted.fully_ordered(), "drained bins are mixed");
        let mut fa = Vec::new();
        let mut fb = Vec::new();
        full.column_histogram_into(&grid, &mut fa);
        restricted.column_histogram_into(&grid, &mut fb);
        assert_eq!(fa, fb);
        restricted.rebin(&grid);
        assert!(restricted.fully_ordered(), "rebin restores the order");
        restricted.column_histogram_into(&grid, &mut fb);
        assert_eq!(fa, fb);
        let cols: Vec<usize> = (restricted.batch().x.iter())
            .map(|&x| grid.cell_of(x))
            .collect();
        assert!(cols.windows(2).all(|w| w[0] <= w[1]), "order broken");
    }

    #[test]
    fn drain_keeps_bins_consistent_and_rebin_restores_order() {
        let (grid, ps) = population(800, Distribution::Geometric { r: 0.85 });
        let mut store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        // Freshly rebinned: drain everything right of the midline.
        let mid = grid.ncells() / 2;
        let mut gone = Vec::new();
        let removed = store.drain_leavers_into(&grid, |c, _| c < mid, |p| gone.push(p));
        assert_eq!(removed, gone.len());
        assert_eq!(store.len() + removed, 800);
        let gone_sum: u128 = gone.iter().map(|p| p.id as u128).sum();
        assert_eq!(store.id_sum() + gone_sum, triangular_id_sum(800));
        // Holes were refilled from the end, so the drained store is mixed:
        // the histogram still matches, and the next rebin makes it
        // column-sorted again.
        assert!(!store.fully_ordered());
        let scan_of = |store: &BinnedStore| {
            let mut scan = vec![0u64; grid.ncells()];
            for &x in &store.batch().x {
                scan[grid.cell_of(x)] += 1;
            }
            scan
        };
        let mut hist = Vec::new();
        store.column_histogram_into(&grid, &mut hist);
        assert_eq!(hist, scan_of(&store));
        assert!(hist[mid..].iter().all(|&c| c == 0));
        store.rebin(&grid);
        assert!(store.fully_ordered());
        store.column_histogram_into(&grid, &mut hist);
        assert_eq!(hist, scan_of(&store));
        let cols: Vec<usize> = store.batch().x.iter().map(|&x| grid.cell_of(x)).collect();
        assert!(cols.windows(2).all(|w| w[0] <= w[1]), "order broken");
    }

    /// One randomized two-store run against the unbinned reference: every
    /// step both stores sweep, drain under `active` and exchange through
    /// `push_tail`; the union must equal [`advance_all`] of
    /// the whole population bit for bit after every step (so every
    /// particle was advanced exactly once, and none was lost, duplicated
    /// or dropped by a hole refill). `overlapped` runs the border-first
    /// ordering with the age-widened border as the active set; otherwise
    /// the drain follows a full sweep and `active` is the border plus
    /// arbitrary extra columns picked by `extra`. Returns how many drains
    /// fell back to shifting the ordered block.
    fn check_drain_sequence(
        n: u64,
        k: u32,
        dir: i8,
        steps: u32,
        overlapped: bool,
        extra: u64,
    ) -> u64 {
        let grid = Grid::new(32).unwrap();
        let consts = SimConstants::CANONICAL;
        let ps = InitConfig::new(grid, n, Distribution::Geometric { r: 0.9 })
            .with_k(k)
            .with_m(1)
            .with_dir(dir)
            .build()
            .unwrap()
            .particles;
        let stride = 2 * k as usize + 1;
        let ncells = grid.ncells();
        let mid = ncells / 2;
        let mut reference = ps.clone();
        let mut halves = [(0, mid), (mid, ncells)].map(|(lo, hi)| {
            let mine: Vec<Particle> = (ps.iter().copied())
                .filter(|p| (lo..hi).contains(&grid.cell_of(p.x)))
                .collect();
            BinnedStore::new_subdomain(&mine, &grid, DEFAULT_REBIN, lo, hi)
        });
        for step in 0..steps {
            advance_all(&grid, &consts, &mut reference);
            let mut moved = [Vec::new(), Vec::new()];
            for (h, store) in halves.iter_mut().enumerate() {
                let (lo, hi) = store.columns();
                store.prepare_sweep(&grid);
                let w = store.border_width(stride);
                let b_lo = (lo + w).min(hi);
                let b_hi = hi.saturating_sub(w).max(b_lo);
                let border = |c: usize| !(b_lo..b_hi).contains(&c);
                let keep = |c: usize, _| (lo..hi).contains(&c);
                let out = |p| moved[1 - h].push(p);
                if overlapped {
                    store.sweep_cols(&grid, &consts, lo..b_lo);
                    store.sweep_cols(&grid, &consts, b_hi..hi);
                    store.sweep_tail_pass(&grid, &consts);
                    store.drain_leavers_cols_into(&grid, border, keep, out);
                    store.sweep_cols(&grid, &consts, b_lo..b_hi);
                } else {
                    store.sweep_cols(&grid, &consts, lo..hi);
                    store.sweep_tail_pass(&grid, &consts);
                    let pick = |c: usize| (extra >> ((c + step as usize) % 64)) & 1 == 1;
                    store.drain_leavers_cols_into(&grid, |c| border(c) || pick(c), keep, out);
                }
                store.end_sweep();
            }
            for (store, arrivals) in halves.iter_mut().zip(moved) {
                arrivals.into_iter().for_each(|p| store.push_tail(p));
            }
            let mut got = [halves[0].to_particles(), halves[1].to_particles()].concat();
            got.sort_unstable_by_key(|p| p.id);
            let mut want = reference.clone();
            want.sort_unstable_by_key(|p| p.id);
            assert_eq!(want, got, "diverged at step {step}");
        }
        halves.iter().map(|store| store.shift_fallbacks).sum()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn drain_sequences_keep_the_reference_multiset_and_sweep_once(
            n in 100u64..500,
            k in 0u32..2,
            leftwards in proptest::prelude::prop::bool::ANY,
            steps in 10u32..40,
            overlapped in proptest::prelude::prop::bool::ANY,
            extra in proptest::prelude::any::<u64>(),
        ) {
            let dir = if leftwards { -1 } else { 1 };
            check_drain_sequence(n, k, dir, steps, overlapped, extra);
        }
    }

    #[test]
    fn exhausted_refill_shifts_the_ordered_block() {
        // Leftward drift down the geometric slope: the low border loses
        // more particles per step than the high border and the arrivals
        // hold, so the refill runs dry and the fallback must fire — and
        // `check_drain_sequence` proves it kept every unswept bin intact.
        for overlapped in [false, true] {
            let fallbacks = check_drain_sequence(400, 1, -1, 24, overlapped, 0);
            assert!(
                fallbacks > 0,
                "overlapped={overlapped}: fallback never fired"
            );
        }
    }

    #[test]
    fn push_tail_defers_rebin_and_set_columns_reanchors() {
        let (grid, ps) = population(300, Distribution::Uniform);
        let consts = SimConstants::CANONICAL;
        let ncells = grid.ncells();
        let mid = ncells / 2;
        let left_ps: Vec<Particle> = ps
            .iter()
            .copied()
            .filter(|p| grid.cell_of(p.x) < mid)
            .collect();
        let mut store = BinnedStore::new_subdomain(&left_ps, &grid, DEFAULT_REBIN, 0, mid);
        assert_eq!(store.columns(), (0, mid));
        sweep(&mut store, &grid, &consts);
        let before = store.rebin_count();
        // A tail arrival must not force an early counting sort…
        let arrival = ps
            .iter()
            .copied()
            .find(|p| grid.cell_of(p.x) < mid)
            .map(|mut p| {
                p.id = 10_000;
                p
            })
            .unwrap();
        store.push_tail(arrival);
        assert_eq!(store.tail_len(), 1);
        sweep(&mut store, &grid, &consts);
        assert_eq!(store.rebin_count(), before, "tail push forced a rebin");
        // …and neither does a cut move: it re-anchors the column range
        // (everything is inside [0, mid), so widening the range is always
        // legal) by relabelling. The tail is *not* folded: nothing sorts
        // a clean store after its construction.
        store.set_columns(&grid, 0, ncells);
        assert_eq!(store.columns(), (0, ncells));
        assert_eq!(store.rebin_count(), before, "set_columns sorted");
        assert_eq!(store.tail_len(), 1, "the arrival stays in the tail");
        assert_eq!(store.age(), 2, "the age carries on");
        assert!(!store.fully_ordered());
    }

    /// Nothing in a sweep reads the column range, so the sort is where a
    /// particle outside it is caught: by the named assertion in debug
    /// builds, by the offsets index in release.
    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "rebin with un-homed particle")
    )]
    #[cfg_attr(not(debug_assertions), should_panic)]
    fn rebin_rejects_an_unhomed_particle() {
        let (grid, ps) = population(300, Distribution::Uniform);
        let mid = grid.ncells() / 2;
        let (left, right): (Vec<Particle>, Vec<Particle>) =
            ps.iter().partition(|p| grid.cell_of(p.x) < mid);
        let mut store = BinnedStore::new_subdomain(&left, &grid, DEFAULT_REBIN, 0, mid);
        store.push_tail(right[0]);
        store.rebin(&grid);
    }

    /// A `[8, 24)` store of a rightward `k = 0` population (stride 1) that
    /// starts in columns `8..20`, swept `age` steps: nothing has left, and
    /// a particle of bin `c` sits in column `c + age`.
    fn drifted_store(age: u32) -> (Grid, BinnedStore) {
        let grid = Grid::new(32).unwrap();
        let ps = InitConfig::new(grid, 600, Distribution::Uniform)
            .with_m(1)
            .build()
            .unwrap()
            .particles;
        let mine: Vec<Particle> = (ps.into_iter())
            .filter(|p| (8..20).contains(&grid.cell_of(p.x)))
            .collect();
        let mut store = BinnedStore::new_subdomain(&mine, &grid, DEFAULT_REBIN, 8, 24);
        for _ in 0..age {
            sweep(&mut store, &grid, &SimConstants::CANONICAL);
        }
        (grid, store)
    }

    /// `(global column, ids)` of every non-empty ordered bin.
    fn ordered_bins(store: &BinnedStore) -> Vec<(usize, Vec<u64>)> {
        (store.ordered.clone())
            .map(|b| {
                let ids = &store.batch.id[store.offsets[b]..store.offsets[b + 1]];
                (store.col_lo + b, ids.to_vec())
            })
            .filter(|(_, ids)| !ids.is_empty())
            .collect()
    }

    #[test]
    fn set_columns_relabels_ordered_bins_without_sorting() {
        let consts = SimConstants::CANONICAL;
        // Shifted up, shifted down, grown at both ends, shrunk at both.
        for (lo, hi) in [(10, 28), (4, 22), (2, 30), (11, 22)] {
            for age in [0u32, 3] {
                let (grid, mut store) = drifted_store(age);
                // Rehome under the new bounds first, as the rank loop does:
                // only bins within the drift of a new bound can hold a
                // leaver.
                let drift = age as usize;
                let mut gone = Vec::new();
                store.drain_leavers_cols_into(
                    &grid,
                    |c| !(lo + drift..hi - drift).contains(&c),
                    |c, _| (lo..hi).contains(&c),
                    |p| gone.push(p),
                );
                let (bins, tail, sorts) =
                    (ordered_bins(&store), store.tail_len(), store.rebin_count());
                assert!(!bins.is_empty(), "{lo}..{hi} age {age}: nothing to relabel");
                store.set_columns(&grid, lo, hi);
                assert_eq!(store.columns(), (lo, hi));
                assert_eq!(store.rebin_count(), sorts, "{lo}..{hi}: sorted");
                assert_eq!(store.age(), age);
                assert_eq!(ordered_bins(&store), bins, "{lo}..{hi} age {age}");
                assert_eq!(store.tail_len(), tail);
                let mut h = Vec::new();
                store.column_histogram_into(&grid, &mut h);
                let mut scan = vec![0u64; grid.ncells()];
                for &x in &store.batch().x {
                    scan[grid.cell_of(x)] += 1;
                }
                assert_eq!(h, scan);
                // The next sweep is the one a freshly built store runs.
                let mut fresh =
                    BinnedStore::new_subdomain(&store.to_particles(), &grid, DEFAULT_REBIN, lo, hi);
                sweep(&mut store, &grid, &consts);
                sweep(&mut fresh, &grid, &consts);
                assert_eq!(store.to_particles(), fresh.to_particles());
                // …and a sort still folds everything back.
                store.drain_leavers_into(&grid, |c, _| (lo..hi).contains(&c), |p| gone.push(p));
                store.rebin(&grid);
                assert_eq!(store.tail_len(), 0);
                assert!(store.fully_ordered());
            }
        }
    }

    #[test]
    fn relabelled_store_with_a_mixed_prefix_is_not_fully_ordered() {
        // Trim the two lowest bins (their particles now sit in columns
        // 10 and 11) and drop those columns from the range: every bin of
        // the new range is ordered and nothing follows the last one, but
        // a mixed prefix precedes the first.
        let (grid, mut store) = drifted_store(2);
        let drained = store.drain_leavers_cols_into(&grid, |c| c < 10, |_, _| true, |_| ());
        assert_eq!(drained, 0);
        let prefix = store.tail_len();
        assert!(prefix > 0);
        store.set_columns(&grid, 10, 24);
        assert_eq!(store.ordered, 0..14);
        assert_eq!(store.offsets[14], store.len());
        assert_eq!(store.tail_len(), prefix);
        assert!(!store.fully_ordered());
        // The serial sweep therefore sorts first instead of walking the
        // bins from index 0.
        let mut reference = store.to_particles();
        store.advance_all(&grid, &SimConstants::CANONICAL, DEFAULT_CHUNK);
        advance_all(&grid, &SimConstants::CANONICAL, &mut reference);
        assert_eq!(store.to_particles(), reference);
        assert_eq!(store.tail_len(), 0);
    }

    #[test]
    fn set_columns_on_a_dirty_store_sorts() {
        let (grid, mut store) = drifted_store(2);
        let newcomer = Particle {
            id: 10_000,
            ..store.particle_at(0)
        };
        store.push(newcomer);
        let sorts = store.rebin_count();
        store.set_columns(&grid, 6, 26);
        assert_eq!(store.columns(), (6, 26));
        assert_eq!(store.rebin_count(), sorts + 1, "nothing ordered to keep");
        assert!(store.fully_ordered());
    }

    /// The element-by-element drain the run-based body replaced, on AoS
    /// records: `holes` ascending, the ordered block `lo_end..hi_start`.
    /// Returns the storage order it leaves and how far it slid the block.
    fn element_drain(
        mut ps: Vec<Particle>,
        holes: &[usize],
        lo_end: usize,
        hi_start: usize,
    ) -> (Vec<Particle>, usize) {
        let (n, removed) = (ps.len(), holes.len());
        let new_len = n - removed;
        let floor = new_len.max(hi_start);
        let (mut src, mut top, mut filled) = (n, removed, 0);
        let exhausted = loop {
            if filled == removed || holes[filled] >= new_len {
                break false;
            }
            while src > floor && top > filled && holes[top - 1] == src - 1 {
                src -= 1;
                top -= 1;
            }
            if src == floor {
                break true;
            }
            src -= 1;
            ps[holes[filled]] = ps[src];
            filled += 1;
        };
        let mut shift = 0;
        if exhausted {
            let open = &holes[filled..holes.partition_point(|&h| h < lo_end)];
            let mut w = open[0];
            for (j, &h) in open.iter().enumerate() {
                let run = h + 1..open.get(j + 1).copied().unwrap_or(hi_start);
                ps.copy_within(run.clone(), w);
                w += run.len();
            }
            shift = open.len();
        }
        ps.truncate(new_len);
        (ps, shift)
    }

    /// What one drain of a store did: its leaver runs and whether its
    /// refill ran out of survivors.
    struct DrainShape {
        runs: Vec<LeaverRun>,
        exhausted: bool,
    }

    /// Drain two clones of `store` — one into `ndst` buckets through
    /// [`BinnedStore::drain_leavers_to_buckets`] under `owner`, one through
    /// the record door — and check that the buckets hold each
    /// destination's records in the record door's order, that both leave
    /// the same count, storage order, offsets and ordered range, and that
    /// this is the storage order the element-by-element drain leaves.
    fn check_doors<C: Classifier + Copy>(
        store: &BinnedStore,
        grid: &Grid,
        active: impl Fn(usize) -> bool + Copy,
        classifier: C,
        owner: impl Fn(usize, usize) -> usize + Copy,
        ndst: usize,
    ) -> DrainShape {
        let (mut by_bucket, mut by_record) = (store.clone(), store.clone());
        let mut buckets = vec![ParticleBatch::new(); ndst];
        let sent =
            by_bucket.drain_leavers_to_buckets(grid, active, classifier, owner, &mut buckets);
        let mut records = vec![Vec::new(); ndst];
        let emitted = by_record.drain_leavers_cols_into(grid, active, classifier, |p| {
            let (c, r) = grid.cell_of_point(p.x, p.y);
            records[owner(c, r)].push(p);
        });
        assert_eq!(sent, emitted, "leaver counts differ");
        for (d, (bucket, want)) in buckets.iter().zip(&records).enumerate() {
            assert_eq!(&bucket.to_particles(), want, "destination {d}");
        }
        assert_eq!(by_bucket.batch, by_record.batch, "storage order differs");
        assert_eq!(by_bucket.offsets, by_record.offsets);
        assert_eq!(by_bucket.ordered, by_record.ordered);
        let fell_back = by_bucket.shift_fallbacks - store.shift_fallbacks;
        assert_eq!(fell_back, by_record.shift_fallbacks - store.shift_fallbacks);

        // The element-by-element drain, on the same holes and block.
        let mut probe = store.clone();
        if !probe.dirty {
            probe.trim_ordered(active);
        }
        let (lo_end, hi_start) = probe.ordered_span();
        let position: std::collections::HashMap<u64, usize> = (store.batch.id.iter().enumerate())
            .map(|(i, &id)| (id, i))
            .collect();
        let mut holes: Vec<usize> = (records.iter().flatten())
            .map(|p| position[&p.id])
            .collect();
        holes.sort_unstable();
        let (want, shift) = element_drain(store.batch.to_particles(), &holes, lo_end, hi_start);
        assert_eq!(
            by_bucket.batch.to_particles(),
            want,
            "not the element drain's order"
        );
        assert_eq!(fell_back, u64::from(shift > 0));
        if shift > 0 {
            let ordered = by_bucket.ordered.clone();
            for b in ordered.start..=ordered.end {
                assert_eq!(by_bucket.offsets[b], probe.offsets[b] - shift, "offset {b}");
            }
        }
        DrainShape {
            runs: by_bucket.leavers.clone(),
            exhausted: shift > 0,
        }
    }

    #[test]
    fn batch_door_matches_record_door_for_one_contiguous_run_under_cuts() {
        // A cut moved left to column 16: bins 16..20 of a fresh `[8, 24)`
        // store leave whole, one run at the end of the batch.
        let (grid, store) = drifted_store(0);
        let owner = |c: usize, _| usize::from(c >= 16);
        let keep = OwnerMap::Columns { lo: 8, hi: 16 };
        let shape = check_doors(&store, &grid, |c| c >= 14, keep, owner, 2);
        assert_eq!(shape.runs.len(), 1, "{:?}", shape.runs);
        assert!(shape.runs[0].len as usize >= SLICE_RUN);
        assert!(!shape.exhausted);
    }

    #[test]
    fn batch_door_matches_record_door_for_scattered_vp_leavers() {
        // A whole-grid store under a VP-style table: every bin tested,
        // leavers scattered through each column by row.
        let (grid, ps) = population(900, Distribution::Geometric { r: 0.9 });
        let store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        let (col, row, owner) = tile_table(&grid);
        let table = CellTable::new(&grid, &col, &row, &owner, 0);
        let owner_of = |c, r| table.owner_of_cell(c, r);
        let shape = check_doors(&store, &grid, |_| true, OwnerMap::Cells(table), owner_of, 3);
        let short = (shape.runs.iter())
            .filter(|r| (r.len as usize) < SLICE_RUN)
            .count();
        assert!(short > 10, "{} short runs of {}", short, shape.runs.len());
    }

    #[test]
    fn batch_door_matches_record_door_with_three_destinations_in_one_run() {
        // Rank 3 keeps only the columns 12..20, and a leaver's destination
        // is its row modulo 3: the stretch of consecutive leavers left of
        // column 12 is split three ways.
        let (grid, ps) = population(600, Distribution::Uniform);
        let store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        let keep = |c: usize, _| (12..20).contains(&c);
        let owner = |c: usize, r: usize| if keep(c, r) { 3 } else { r % 3 };
        let shape = check_doors(&store, &grid, |_| true, keep, owner, 4);
        let first = shape.runs[0];
        assert_eq!(first.start, 0);
        // The runs that abut the first one: one stretch of leavers.
        let mut end = first.range().end;
        let mut dsts = vec![first.dst];
        for r in &shape.runs[1..] {
            if r.start as usize != end {
                break;
            }
            end = r.range().end;
            dsts.push(r.dst);
        }
        dsts.sort_unstable();
        dsts.dedup();
        assert_eq!(dsts, [0, 1, 2], "one stretch, three destinations");
    }

    #[test]
    fn batch_door_matches_record_door_on_both_sides_of_the_slice_threshold() {
        // Column 5 leaves whole (a long run, refilled by one reversed
        // copy); column 9 loses its even rows (runs of one or two, copied
        // element by element).
        let (grid, ps) = population(600, Distribution::Uniform);
        let store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        let keep = |c: usize, r: usize| c != 5 && !(c == 9 && r.is_multiple_of(2));
        let owner = |c: usize, r: usize| match (keep(c, r), c) {
            (true, _) => 0,
            (false, 5) => 1,
            _ => 2,
        };
        let shape = check_doors(&store, &grid, |_| true, keep, owner, 3);
        let long = |r: &&LeaverRun| r.len as usize >= SLICE_RUN;
        assert!(shape.runs.iter().any(|r| long(&r) && r.dst == 1));
        assert!(shape.runs.iter().any(|r| !long(&r) && r.dst == 2));
    }

    #[test]
    fn batch_door_matches_record_door_when_the_refill_runs_dry() {
        // A cut moved right to column 10: bins 8 and 9 leave, from the
        // front of the batch. With nothing after the ordered block the
        // block slides at once; with three arrivals after it they fill
        // the first three holes first.
        for arrivals in [0u64, 3] {
            let (grid, mut store) = drifted_store(0);
            for id in 0..arrivals {
                let p = store.particle_at(store.len() - 1 - id as usize);
                store.push_tail(Particle {
                    id: 10_000 + id,
                    ..p
                });
            }
            let keep = OwnerMap::Columns { lo: 10, hi: 24 };
            let owner = |c: usize, _| usize::from(c >= 10);
            let shape = check_doors(&store, &grid, |c| c < 12, keep, owner, 2);
            assert!(
                shape.exhausted,
                "{arrivals} arrivals: the block did not slide"
            );
        }
        // The drifting two-half run of `exhausted_refill_shifts_the_ordered_block`,
        // checked at every drain.
        let grid = Grid::new(32).unwrap();
        let consts = SimConstants::CANONICAL;
        let ps = InitConfig::new(grid, 400, Distribution::Geometric { r: 0.9 })
            .with_k(1)
            .with_m(1)
            .with_dir(-1)
            .build()
            .unwrap()
            .particles;
        let mid = grid.ncells() / 2;
        let mut halves = [(0, mid), (mid, 32)].map(|(lo, hi)| {
            let mine: Vec<Particle> = (ps.iter().copied())
                .filter(|p| (lo..hi).contains(&grid.cell_of(p.x)))
                .collect();
            BinnedStore::new_subdomain(&mine, &grid, DEFAULT_REBIN, lo, hi)
        });
        let mut slid = 0;
        for _ in 0..24 {
            let mut moved = [ParticleBatch::new(), ParticleBatch::new()];
            for (h, store) in halves.iter_mut().enumerate() {
                let (lo, hi) = store.columns();
                sweep(store, &grid, &consts);
                let w = store.border_width(3);
                let b_lo = (lo + w).min(hi);
                let b_hi = hi.saturating_sub(w).max(b_lo);
                let border = |c: usize| !(b_lo..b_hi).contains(&c);
                let keep = |c: usize, _| (lo..hi).contains(&c);
                let owner = |c: usize, _| usize::from(c >= mid);
                slid += usize::from(check_doors(store, &grid, border, keep, owner, 2).exhausted);
                let mut buckets = [ParticleBatch::new(), ParticleBatch::new()];
                store.drain_leavers_to_buckets(&grid, border, keep, owner, &mut buckets);
                moved[1 - h] = std::mem::take(&mut buckets[1 - h]);
            }
            for (store, arrivals) in halves.iter_mut().zip(&moved) {
                store.append_tail(arrivals);
            }
        }
        assert!(slid > 0, "the refill never ran dry");
    }

    /// A VP-like table on `grid`: 4 × 3 tiles (fewer on a narrow grid),
    /// tile `v` owned by `v * 7 % 3`.
    fn tile_table(grid: &Grid) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let n = grid.ncells();
        let (tx, ty) = (n.min(4), n.min(3));
        let col = (0..n).map(|c| (c * tx / n) as u32).collect();
        let row = (0..n).map(|r| (tx * (r * ty / n)) as u32).collect();
        let owner = (0..tx * ty).map(|v| (v * 7 % 3) as u32).collect();
        (col, row, owner)
    }

    /// The owner classifiers are the scalar rule — [`Grid::cell_of`] and
    /// the owner test — to the bit, and so is the table's VP count, on
    /// every backend the host can execute: for the column interval and
    /// the 2-D table, on every value class of the cell-index test (the
    /// values outside `[0, L)`, NaN and ±∞ among them, in builds without
    /// the debug range check only), for span lengths up to two groups plus
    /// one at unaligned starts, spans longer than a mask word, and spans in
    /// which every lane, no lane, or one lane per group leaves. A grid
    /// whose last index is 2³² − 1 takes the interval, where a signed
    /// 32-bit convert would break (the table's convert is
    /// `simd::tests::cell_index_lanes_cover_the_whole_u32_range`).
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn owner_classifiers_equal_the_scalar_rule_on_every_backend() {
        let wide = |n: usize| move |x: f64| (x as usize).min(n - 1);
        for ncells in [2usize, 64, 1024, 1 << 32] {
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
            let small = ncells < 1 << 20;
            let (col, row, owner) = if small {
                tile_table(&grid)
            } else {
                Default::default()
            };
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
            if small {
                for me in 0..3 {
                    maps.push(OwnerMap::Cells(CellTable::new(
                        &grid, &col, &row, &owner, me,
                    )));
                }
            }
            let cell = wide(ncells);
            for map in maps {
                let keeps = |x: f64, y: f64| match map {
                    OwnerMap::Columns { lo, hi } => (lo..hi).contains(&cell(x)),
                    OwnerMap::Cells(t) => t.owner_of_cell(cell(x), cell(y)) == t.me as usize,
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
                    if let OwnerMap::Cells(t) = map {
                        let mut got = vec![0u64; owner.len()];
                        t.count_into(backend, &grid, &values, &ys, &mut got);
                        let mut want = vec![0u64; owner.len()];
                        for (&x, &y) in values.iter().zip(&ys) {
                            want[t.index(cell(x), cell(y))] += 1;
                        }
                        assert_eq!(got, want, "{}", at("count"));
                    }
                }
            }
        }
    }

    #[test]
    fn pop_removes_largest_id() {
        let (grid, ps) = population(50, Distribution::Sinusoidal);
        let mut store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        let p = store.pop().unwrap();
        assert_eq!(p.id, 50);
        assert_eq!(store.len(), 49);
        assert_eq!(store.particle_at(0).id, 1);
    }

    #[test]
    fn empty_store_is_harmless() {
        let grid = Grid::new(8).unwrap();
        let mut store = BinnedStore::new(&[], &grid, DEFAULT_REBIN);
        store.advance_all(&grid, &SimConstants::CANONICAL, DEFAULT_CHUNK);
        assert!(store.is_empty());
        assert!(store.pop().is_none());
        let mut h = Vec::new();
        store.column_histogram_into(&grid, &mut h);
        assert!(h.iter().all(|&c| c == 0));
    }
}
