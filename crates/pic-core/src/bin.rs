//! Phase-split particle storage: one unsorted batch cut in two by column
//! parity, so the sweep hoists the corner charge without sorting.
//!
//! ## The phase contract (why `q_left` can be hoisted)
//!
//! Every spec-conforming particle moves exactly `±(2k+1)` columns per
//! step — an **odd** stride — on a grid with an even number of columns, so
//! the periodic wrap keeps parity too. A particle's *phase*
//! `(column + sweeps done) & 1` therefore never changes, and all particles
//! of one phase sit in columns of one parity at every step. The corner
//! pair `q_left = ±q`, `q_right = −q_left` of a phase is one value per
//! sweep, wherever its particles sit.
//!
//! [`BinnedStore`] keeps one [`ParticleBatch`] and a `split`:
//! `batch[..split]` holds phase 0 and `batch[split..]` phase 1. Nothing
//! sorts. Each half is swept through the span kernel with its hoisted
//! `q_left`, in blocks of [`SWEEP_BLOCK`] so the kernel's wrap pass
//! re-reads `x, y` from cache. The actual column (for the corner
//! displacement `rx`) is still one truncation per particle, and debug
//! builds check the hoisted charge against each particle's live column.
//!
//! ## Insertion and the drain (O(particles changed))
//!
//! Every insertion — construction, exchange arrivals, injections and the
//! failure-injection edits — places a particle by its current column and
//! the store's sweep count. Every store of a run is built at step 0 and
//! sweeps once per step, so all stores agree on phase, and an exchange
//! bucket drained as `[phase 0 | phase 1]` lands in the matching halves
//! of its receiver ([`BinnedStore::append_tail`]: two slice copies and one
//! block swap).
//!
//! A drain ([`BinnedStore::drain_leavers_to_buckets`]) classifies phase 0,
//! then phase 1, stages the leavers by runs of consecutive indices (a run
//! never crosses `split`), and closes the holes in three moves: phase-1
//! holes are refilled from the end of the batch, phase-0 holes from the
//! end of phase 0, and the gap this leaves at `split` takes at most as
//! many phase-1 particles as it is wide.
//!
//! ## Bit-exactness
//!
//! `advance_bin_span` performs, per particle, the *same sequence of
//! floating-point operations* as the unbinned sweep (`total_force` +
//! eqs. 1–2): same `coulomb` corner evaluations in the same pairing, same
//! integration, same wrap. The store changes traversal order only, and
//! particles are independent within a step, so the resulting population
//! is bit-identical to the AoS oracle ([`crate::reference`]) — asserted by
//! the property tests and the rank suites. Canonical
//! (ascending-id) order is restored on export by [`BinnedStore::to_particles`].

use crate::charge::{coulomb, mesh_charge, SimConstants};
use crate::events::Region;
use crate::geometry::Grid;
use crate::particle::Particle;
use crate::pool::{self, SyncMutPtr};
use crate::simd::{self, SimdBackend};
use crate::soa::ParticleBatch;
use std::ops::Range;

/// Kept only because the benchmark's probes pass it as the third argument
/// of [`BinnedStore::new`] and [`BinnedStore::new_subdomain`], which
/// ignore it (no store sorts; module docs). Both go with the benchmark's
/// next adapter.
#[doc(hidden)]
pub const DEFAULT_REBIN: u32 = 16;

/// The shortest leaver run [`BinnedStore::drain_leavers_to_buckets`]
/// stages with one slice copy per field; a shorter one is copied element
/// by element. The cuts' drains are a few long runs, a VP map's are about
/// two leavers each, and eleven slice copies for those cost more than
/// they save.
pub const SLICE_RUN: usize = 8;

/// Particles per span-kernel call of a sweep: small enough that the
/// kernel's wrap pass finds the block's `x, y` still in cache.
pub const SWEEP_BLOCK: usize = 2048;

/// Particle store in two phase halves (see module docs).
#[derive(Debug, Clone)]
pub struct BinnedStore {
    /// Particle data: phase 0 below `split`, phase 1 from it on.
    batch: ParticleBatch,
    /// First index of phase 1.
    split: usize,
    /// Sweeps executed since construction.
    sweeps: u32,
    /// The runs of consecutive leavers the current drain vacated,
    /// ascending, each with its destination (capacity retained across
    /// drains).
    leavers: Vec<LeaverRun>,
    /// Instruction-set backend for the span kernel, selected once at
    /// construction ([`SimdBackend::detect`]); every backend is
    /// bit-identical, so this is a pure throughput knob.
    backend: SimdBackend,
}

impl BinnedStore {
    /// Store `particles`. The third argument is ignored; it stays while the
    /// benchmark passes [`DEFAULT_REBIN`].
    pub fn new(particles: &[Particle], grid: &Grid, _rebin: u32) -> BinnedStore {
        BinnedStore::new_owned(particles, grid, |_, _| true)
    }

    /// [`BinnedStore::new`] under the benchmark's older name for a rank
    /// store; the column range is ignored like the third argument.
    pub fn new_subdomain(
        particles: &[Particle],
        grid: &Grid,
        _rebin: u32,
        _col_lo: usize,
        _col_hi: usize,
    ) -> BinnedStore {
        BinnedStore::new_owned(particles, grid, |_, _| true)
    }

    /// Store the particles of `particles` whose cell `owns(col, row)`
    /// accepts — the one construction path, which a rank runs over the
    /// whole shared setup with its ownership map. A count pass sizes the
    /// halves and a stable scatter writes each owned record straight to
    /// its place: phase 0 in input order, then phase 1 in input order.
    pub fn new_owned(
        particles: &[Particle],
        grid: &Grid,
        owns: impl Fn(usize, usize) -> bool,
    ) -> BinnedStore {
        let phase_of = |p: &Particle| {
            let (c, r) = grid.cell_of_point(p.x, p.y);
            owns(c, r).then_some(phase(p.x, 0))
        };
        let mut counts = [0; 2];
        particles
            .iter()
            .filter_map(phase_of)
            .for_each(|h| counts[h] += 1);
        let mut batch = ParticleBatch::zeroed(counts[0] + counts[1]);
        let mut cursor = [0, counts[0]];
        for p in particles {
            if let Some(h) = phase_of(p) {
                batch.set(cursor[h], *p);
                cursor[h] += 1;
            }
        }
        BinnedStore {
            batch,
            split: counts[0],
            sweeps: 0,
            leavers: Vec::new(),
            backend: SimdBackend::detect(),
        }
    }

    /// Move the particles out, in storage order, leaving the store empty
    /// (its sweep count kept) and its drain scratch released — how a
    /// finished rank hands its population to the outcome without a copy.
    pub fn take_batch(&mut self) -> ParticleBatch {
        self.leavers = Vec::new();
        self.split = 0;
        std::mem::take(&mut self.batch)
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

    /// Does nothing: no store sorts. Kept only because the benchmark's
    /// drain probe calls it between rounds.
    #[doc(hidden)]
    pub fn rebin(&mut self, _grid: &Grid) {}

    /// Advance every particle one step through the worker pool — the
    /// serial engine's sweep ([`Self::sweep`] with the blocks of each
    /// chunk spread over the pool's threads).
    pub fn advance_all(&mut self, grid: &Grid, consts: &SimConstants, chunk_size: usize) {
        self.sweep_with(grid, consts, |n, span| {
            pool::global().run_chunked(n, chunk_size, span)
        });
    }

    /// Advance every particle one step on the calling thread — the rank
    /// path, where each rank is already its own parallel unit.
    pub fn sweep(&mut self, grid: &Grid, consts: &SimConstants) {
        self.sweep_with(grid, consts, |n, span| span(0, n));
    }

    /// The one sweep body: `run(n, span)` must call `span` on disjoint
    /// ranges covering `0..n`. Each range is swept in blocks of at most
    /// [`SWEEP_BLOCK`] that never cross `split`, with the block's phase
    /// charge hoisted.
    fn sweep_with(
        &mut self,
        grid: &Grid,
        consts: &SimConstants,
        run: impl FnOnce(usize, &(dyn Fn(usize, usize) + Sync)),
    ) {
        let n = self.batch.len();
        let (split, backend) = (self.split, self.backend);
        // Phase-0 particles sit in columns of the sweep count's parity.
        let q0 = mesh_charge(self.sweeps as usize & 1, consts.q);
        let xp = SyncMutPtr::new(self.batch.x.as_mut_ptr());
        let yp = SyncMutPtr::new(self.batch.y.as_mut_ptr());
        let vxp = SyncMutPtr::new(self.batch.vx.as_mut_ptr());
        let vyp = SyncMutPtr::new(self.batch.vy.as_mut_ptr());
        let q = &self.batch.q[..n];
        let span = |start: usize, end: usize| {
            let mut i = start;
            while i < end {
                let mut stop = end.min(i + SWEEP_BLOCK);
                if i < split {
                    stop = stop.min(split);
                }
                let q_left = if i < split { q0 } else { -q0 };
                let len = stop - i;
                // SAFETY: `run` hands out disjoint ranges of `0..n`, so
                // each block is exclusively owned here.
                let (x, y, vx, vy) = unsafe {
                    (
                        std::slice::from_raw_parts_mut(xp.get().add(i), len),
                        std::slice::from_raw_parts_mut(yp.get().add(i), len),
                        std::slice::from_raw_parts_mut(vxp.get().add(i), len),
                        std::slice::from_raw_parts_mut(vyp.get().add(i), len),
                    )
                };
                let q = &q[i..stop];
                simd::advance_bin_span_simd(backend, grid, consts, q_left, x, y, vx, vy, q);
                i = stop;
            }
        };
        run(n, &span);
        self.sweeps += 1;
    }

    /// Fill `h` with the per-column particle counts of the current
    /// positions (global column indexing): one O(n) scan.
    pub fn column_histogram_into(&self, grid: &Grid, h: &mut Vec<u64>) {
        h.clear();
        h.resize(grid.ncells(), 0);
        for &x in &self.batch.x {
            h[grid.cell_of(x)] += 1;
        }
    }

    /// Append one particle into the half of its phase — an exchange
    /// arrival, an injection, or a failure-injection edit. The
    /// record-at-a-time door of [`Self::append_tail`].
    pub fn push_tail(&mut self, p: Particle) {
        self.batch.push(p);
        if phase(p.x, self.sweeps) == 0 {
            let last = self.batch.len() - 1;
            if self.split < last {
                self.batch.swap_blocks(self.split, last, 1);
            }
            self.split += 1;
        }
    }

    /// Append an exchange bucket drained as `[phase 0 | phase 1]`: its
    /// phase-0 run joins the end of this store's phase 0 by one block swap
    /// against the start of phase 1 (or, when phase 1 is shorter than the
    /// run, against the run's own tail), and its phase-1 run joins the end
    /// of the batch.
    pub fn append_tail(&mut self, arrivals: &ParticleBatch) {
        let sweeps = self.sweeps;
        let a0 = arrivals.x.partition_point(|&x| phase(x, sweeps) == 0);
        debug_assert!(
            arrivals.x[a0..].iter().all(|&x| phase(x, sweeps) == 1),
            "an arrival bucket not in [phase 0 | phase 1] order"
        );
        let n = self.batch.len();
        self.batch.extend_from_range(arrivals, 0..a0);
        let m = a0.min(n - self.split);
        if m > 0 {
            self.batch.swap_blocks(self.split, n + a0 - m, m);
        }
        self.split += a0;
        self.batch.extend_from_range(arrivals, a0..arrivals.len());
    }

    /// Drain every particle that `classifier` finds leaving into `out`, as
    /// AoS records in index order — the closure door of
    /// [`Self::drain_leavers_to_buckets`] for probes and tests. Returns the
    /// drain count.
    pub fn drain_leavers_into(
        &mut self,
        grid: &Grid,
        classifier: impl Classifier,
        mut out: impl FnMut(Particle),
    ) -> usize {
        self.drain_runs(
            grid,
            classifier,
            |_, _| 0,
            |batch, run, _| run.for_each(|i| out(batch.get(i))),
        )
    }

    /// Drain every particle that `classifier` finds leaving into
    /// `buckets[owner(col, row)]`, `(col, row)` its current cell — the
    /// exchange path, run every step without an AoS round-trip. Returns
    /// the drain count.
    ///
    /// The classifier ([`Classifier`]) answers a chunk of positions at a
    /// time as a bitmask: an [`OwnerMap`] eight lanes at a time, a keep
    /// closure one particle at a time. Which one answers changes nothing
    /// downstream — the leaver set is the same, so are the holes, the
    /// refill and the storage order.
    ///
    /// Leavers are staged by runs — consecutive indices of one phase bound
    /// for one bucket — phase 0 first, so each bucket receives
    /// `[phase 0 | phase 1]`, each in index order: a run of at least
    /// [`SLICE_RUN`] with one slice copy per field, a shorter one element
    /// by element.
    pub fn drain_leavers_to_buckets(
        &mut self,
        grid: &Grid,
        classifier: impl Classifier,
        owner: impl FnMut(usize, usize) -> usize,
        buckets: &mut [ParticleBatch],
    ) -> usize {
        self.drain_runs(grid, classifier, owner, |batch, run, dst| {
            let bucket = &mut buckets[dst];
            if run.len() >= SLICE_RUN {
                bucket.extend_from_range(batch, run);
            } else {
                run.for_each(|i| bucket.push_from(batch, i));
            }
        })
    }

    /// The one drain body behind both doors: classify each half chunk by
    /// chunk, record the leavers as runs of consecutive indices with one
    /// destination `dest(col, row)` each, hand every run to `stage` in
    /// index order, then close the holes (module docs).
    fn drain_runs(
        &mut self,
        grid: &Grid,
        mut classifier: impl Classifier,
        mut dest: impl FnMut(usize, usize) -> usize,
        mut stage: impl FnMut(&ParticleBatch, Range<usize>, usize),
    ) -> usize {
        /// Particles classified per call: the bitmask lives on the stack.
        const CHUNK: usize = 4096;
        let (n, split) = (self.batch.len(), self.split);
        assert!(n <= u32::MAX as usize, "leaver indices are u32");
        self.leavers.clear();
        if classifier.keeps_all(grid) {
            return 0;
        }
        let mut mask = [0u64; CHUNK / 64];
        let mut phase1_runs = 0;
        for span in [0..split, split..n] {
            // A run never grows across `split`.
            let floor = self.leavers.len();
            phase1_runs = floor;
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
                        push_leaver(&mut self.leavers, floor, i as u32, dest(c, r) as u32);
                    }
                }
            }
        }
        let mut removed = 0;
        for run in &self.leavers {
            stage(&self.batch, run.range(), run.dst as usize);
            removed += run.len as usize;
        }
        let (runs0, runs1) = self.leavers.split_at(phase1_runs);
        let end1 = fill_holes(&mut self.batch, runs1, n);
        let end0 = fill_holes(&mut self.batch, runs0, split);
        // Close the gap `end0..split` with the last phase-1 particles.
        let m = (split - end0).min(end1 - split);
        self.batch.copy_within(end1 - m..end1, end0);
        self.batch.truncate(n - removed);
        self.split = end0;
        removed
    }

    /// Remove every particle inside `region` whose id is at most `max_id`
    /// — a removal event, whose cutoff is the lowest-id selection agreed
    /// across the stores first ([`crate::events::EventLedger`]).
    /// Order-preserving, so both halves stay whole. Returns the number
    /// removed.
    pub fn remove_in_region_upto(&mut self, region: &Region, max_id: u64) -> usize {
        let (removed, split) = self.batch.remove_in_region_upto(region, max_id, self.split);
        self.split = split;
        removed
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
    /// tests *only*. The record moves to the half of its new phase.
    pub fn set(&mut self, idx: usize, p: Particle) {
        self.remove_at(self.physical_index(idx));
        self.push_tail(p);
    }

    /// Remove and return the particle with the largest id (the canonical
    /// tail, matching `Vec::pop` on an ascending-id AoS store) —
    /// failure-injection tests *only*.
    pub fn pop(&mut self) -> Option<Particle> {
        if self.batch.is_empty() {
            return None;
        }
        Some(self.remove_at(self.physical_index(self.batch.len() - 1)))
    }

    /// Remove the particle at physical index `i`: a phase-0 hole takes the
    /// last phase-0 particle and moves to the start of phase 1, whose hole
    /// takes the last particle of the batch.
    fn remove_at(&mut self, mut i: usize) -> Particle {
        let p = self.batch.get(i);
        if i < self.split {
            self.split -= 1;
            self.batch.copy_element(self.split, i);
            i = self.split;
        }
        self.batch.swap_remove(i);
        p
    }

    /// Sum of ids (checksum contribution) — order-independent.
    pub fn id_sum(&self) -> u128 {
        self.batch.id_sum()
    }
}

/// The phase of a particle at `x` after `sweeps` sweeps: its column's
/// parity, read by the kernel's truncation, offset by the sweep count.
#[inline]
fn phase(x: f64, sweeps: u32) -> usize {
    (x as usize ^ sweeps as usize) & 1
}

/// Refill the holes `runs` (ascending, all below `end`) that lie below
/// `end − holes` with the survivors at the end of `..end`, last first — one
/// reversed copy per stretch of holes against a stretch of survivors.
/// Returns `end − holes`, where the compacted range now ends.
fn fill_holes(batch: &mut ParticleBatch, runs: &[LeaverRun], end: usize) -> usize {
    let new_end = end - runs.iter().map(|r| r.len as usize).sum::<usize>();
    // `runs[f]` holds the next hole to fill, `h`; survivors are taken
    // below `src`, and `runs[t..]` are the hole runs `src` has stepped
    // over.
    let (mut f, mut t, mut src) = (0, runs.len(), end);
    let mut h = runs.first().map_or(end, |r| r.start as usize);
    while f < runs.len() && h < new_end {
        while src > new_end && t > f && runs[t - 1].range().end == src {
            src = new_end.max(runs[t - 1].start as usize);
            t -= 1;
        }
        let survivors_from = new_end.max(t.checked_sub(1).map_or(0, |j| runs[j].range().end));
        let holes_to = new_end.min(runs[f].range().end);
        let len = (src - survivors_from).min(holes_to - h);
        batch.copy_reversed(src - len..src, h);
        (src, h) = (src - len, h + len);
        if h == runs[f].range().end {
            f += 1;
            h = runs.get(f).map_or(end, |r| r.start as usize);
        }
    }
    new_end
}

/// The question a drain asks of a store: which particles leave.
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

    /// Whether no particle on `grid` can leave, so a drain need not scan.
    fn keeps_all(&self, _grid: &Grid) -> bool {
        false
    }
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

    /// A column interval spanning the grid keeps every `f64`: the cell
    /// index clamps into it.
    fn keeps_all(&self, grid: &Grid) -> bool {
        matches!(*self, OwnerMap::Columns { lo: 0, hi } if hi >= grid.ncells())
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
/// destination, unless it is one of the first `floor` runs.
#[inline(always)]
fn push_leaver(runs: &mut Vec<LeaverRun>, floor: usize, i: u32, dst: u32) {
    let grows = runs.len() > floor;
    match runs.last_mut() {
        Some(r) if grows && r.start + r.len == i && r.dst == dst => r.len += 1,
        _ => runs.push(LeaverRun {
            start: i,
            len: 1,
            dst,
        }),
    }
}

/// The force-and-integrate half of the parity-specialized sweep kernel
/// ([`advance_bin_span`]), exposed separately so the SIMD layer can run
/// span tails (`len mod 4`) through exactly this code. `q_left` is the
/// hoisted left-corner charge of the span's phase.
#[inline(always)]
pub(crate) fn force_span(
    consts: &SimConstants,
    q_left: f64,
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
        let q_right = -q_left;
        // The phase contract (module docs): every particle in the span
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
/// column) is one hoisted value shared by the span, whose particles are
/// of one phase. This is the scalar reference
/// the SIMD backends ([`crate::simd`]) are proven bit-identical against,
/// and the kernel the `Scalar` backend runs directly.
///
/// Per particle this is the *same operation sequence* as
/// `total_force` + [`crate::motion::advance_particle`]: the same four [`coulomb`]
/// corner evaluations in the same pairing, the same half-acceleration
/// integration, the same wrap. What the phase split removes is per-particle
/// work that is invariant across the span: the `mesh_charge` parity
/// branches are gone (hoisted to `q_left`), and the force/integrate loop
/// ([`force_span`]) is split from the (branchy) wrap pass so the hot loop
/// is branch-free — `coulomb`'s zero-distance guard is a value select —
/// and eligible for autovectorization. Splitting is bit-neutral:
/// particles are independent and each particle's own operation order is
/// unchanged.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn advance_bin_span(
    grid: &Grid,
    consts: &SimConstants,
    q_left: f64,
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
    force_span(consts, q_left, x, y, vx, vy, q);
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
    use crate::rng::SplitMix64;
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

    /// The phase contract: `batch[..split]` is phase 0 and the rest phase
    /// 1 under the store's sweep count.
    fn assert_phases(store: &BinnedStore, when: &str) {
        for (i, &x) in store.batch.x.iter().enumerate() {
            let want = usize::from(i >= store.split);
            assert_eq!(
                phase(x, store.sweeps),
                want,
                "{when}: index {i} of split {}",
                store.split
            );
        }
    }

    /// Ids sorted, for comparing populations as multisets.
    fn sorted(mut ps: Vec<Particle>) -> Vec<Particle> {
        ps.sort_unstable_by_key(|p| p.id);
        ps
    }

    /// Construction is a stable partition by phase — the filter, convert
    /// and sort by the one-bit phase key it replaced — for a store that
    /// keeps nothing, one that keeps everything, column slabs and 2-D
    /// ownership, over a population that has drifted.
    #[test]
    fn owned_scatter_matches_filter_convert_and_sort() {
        let (grid, mut ps) = population(700, Distribution::Geometric { r: 0.9 });
        for _ in 0..3 {
            advance_all(&grid, &SimConstants::CANONICAL, &mut ps);
        }
        let (n, half) = (grid.ncells(), grid.ncells() / 2);
        type Owns = Box<dyn Fn(usize, usize) -> bool>;
        let cases: [(&str, Owns); 6] = [
            ("keeps nothing", Box::new(|_, _| false)),
            ("keeps everything", Box::new(|_, _| true)),
            ("left slab", Box::new(move |c, _| c < half)),
            ("right slab", Box::new(move |c, _| c >= half)),
            ("2-D block", Box::new(move |c, r| c >= half && r < half)),
            ("VP tiles", Box::new(|c, r| (c / 4 + r / 4) % 3 == 1)),
        ];
        for (name, owns) in cases {
            let got = BinnedStore::new_owned(&ps, &grid, &owns);
            let mut mine: Vec<Particle> = (ps.iter().copied())
                .filter(|p| {
                    let (c, r) = grid.cell_of_point(p.x, p.y);
                    owns(c, r)
                })
                .collect();
            mine.sort_by_key(|p| grid.cell_of(p.x) & 1);
            let want: ParticleBatch = mine.into_iter().collect();
            assert_eq!(got.batch, want, "{name}: storage order");
            assert_phases(&got, name);
            assert_eq!(got.len() == ps.len(), name == "keeps everything");
            assert_eq!(got.is_empty(), name == "keeps nothing", "{name}");
        }
        assert!(n > half);
    }

    #[test]
    fn take_batch_moves_the_particles_out_and_leaves_an_empty_store() {
        let (grid, ps) = population(300, Distribution::Geometric { r: 0.9 });
        let consts = SimConstants::CANONICAL;
        let mut store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        store.sweep(&grid, &consts);
        let before = store.batch().clone();
        assert_eq!(store.take_batch(), before, "storage order, no copy-sort");
        assert!(store.is_empty());
        assert_eq!(store.split, 0);
        let mut h = Vec::new();
        store.column_histogram_into(&grid, &mut h);
        assert!(h.iter().all(|&c| c == 0));
        store.advance_all(&grid, &consts, DEFAULT_CHUNK);
        assert!(store.is_empty());
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
        // `rebin` is a no-op kept for the benchmark: calling it at any
        // cadence (or never) changes nothing, and both sweep doors are
        // exact at any store age.
        let (grid, ps) = population(400, Distribution::Geometric { r: 0.9 });
        let consts = SimConstants::CANONICAL;
        for rebin in [1u32, 3, 16, u32::MAX] {
            let mut reference = ps.clone();
            let mut binned = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
            for step in 1..=40u32 {
                advance_all(&grid, &consts, &mut reference);
                if step % 2 == 0 {
                    binned.advance_all(&grid, &consts, DEFAULT_CHUNK);
                } else {
                    binned.sweep(&grid, &consts);
                }
                if step % rebin == 0 {
                    binned.rebin(&grid);
                }
                assert_phases(&binned, "after a sweep");
            }
            assert_eq!(
                sorted(reference),
                binned.to_particles(),
                "rebin={rebin} diverged"
            );
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
        // The histogram is a scan of the current positions: after a sweep
        // it no longer matches the population the store was built from.
        let (grid, ps) = population(200, Distribution::Uniform);
        let consts = SimConstants::CANONICAL;
        let mut store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        let mut built = Vec::new();
        store.column_histogram_into(&grid, &mut built);
        store.advance_all(&grid, &consts, DEFAULT_CHUNK);
        let mut h = Vec::new();
        store.column_histogram_into(&grid, &mut h);
        assert_eq!(h.iter().sum::<u64>(), 200);
        assert_ne!(h, built, "a k = 1 sweep moves every particle three columns");
        let mut scan = vec![0u64; grid.ncells()];
        for &x in &store.batch().x {
            scan[grid.cell_of(x)] += 1;
        }
        assert_eq!(h, scan);
    }

    #[test]
    fn edits_keep_the_phase_halves_and_the_next_sweep_exact() {
        let (grid, ps) = population(100, Distribution::Uniform);
        let consts = SimConstants::CANONICAL;
        let mut store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        store.sweep(&grid, &consts);
        let doomed = store.remove_in_region_upto(&Region::whole(32), 10);
        assert_eq!(doomed, 10);
        assert_phases(&store, "after a removal");
        // An edit that moves a particle one column flips its phase.
        let mut p = store.particle_at(20);
        p.x = grid.wrap_coord(p.x + 1.0);
        let split = store.split;
        store.set(20, p);
        assert_phases(&store, "after a set");
        assert_ne!(store.split, split, "the edited particle changed halves");
        let mut reference = store.to_particles();
        store.sweep(&grid, &consts);
        advance_all(&grid, &consts, &mut reference);
        assert_eq!(store.len(), 90);
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
            left.sweep(&grid, &consts);
            right.sweep(&grid, &consts);
            let (mut to_right, mut to_left) = (Vec::new(), Vec::new());
            left.drain_leavers_into(&grid, |c, _| c < mid, |p| to_right.push(p));
            right.drain_leavers_into(&grid, |c, _| c >= mid, |p| to_left.push(p));
            to_right.into_iter().for_each(|p| right.push_tail(p));
            to_left.into_iter().for_each(|p| left.push_tail(p));
            assert_phases(&left, "left");
            assert_phases(&right, "right");
        }
        let got = sorted([left.to_particles(), right.to_particles()].concat());
        (sorted(reference), got)
    }

    #[test]
    fn subdomain_stores_with_drain_match_unbinned_sweep() {
        let (want, got) = run_split_stores(40, 600, Distribution::Geometric { r: 0.9 });
        assert_eq!(want, got, "diverged");
    }

    #[test]
    fn construction_splits_by_phase_and_is_stable() {
        let (grid, ps) = population(500, Distribution::Geometric { r: 0.9 });
        let store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        assert_phases(&store, "built");
        // Ascending id within each half (stability from canonical order).
        let b = store.batch();
        for half in [&b.id[..store.split], &b.id[store.split..]] {
            assert!(half.windows(2).all(|w| w[0] < w[1]), "unstable");
        }
        assert!(store.split > 0 && store.split < store.len());
    }

    #[test]
    fn drain_keeps_the_phase_halves_consistent() {
        let (grid, ps) = population(800, Distribution::Geometric { r: 0.85 });
        let mut store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        let mid = grid.ncells() / 2;
        let mut gone = Vec::new();
        let removed = store.drain_leavers_into(&grid, |c, _| c < mid, |p| gone.push(p));
        assert_eq!(removed, gone.len());
        assert_eq!(store.len() + removed, 800);
        let gone_sum: u128 = gone.iter().map(|p| p.id as u128).sum();
        assert_eq!(store.id_sum() + gone_sum, triangular_id_sum(800));
        assert_phases(&store, "drained");
        let mut hist = Vec::new();
        store.column_histogram_into(&grid, &mut hist);
        assert!(hist[mid..].iter().all(|&c| c == 0));
        // The leavers came out phase 0 first, each phase in index order.
        let phases: Vec<usize> = gone.iter().map(|p| phase(p.x, 0)).collect();
        assert!(phases.windows(2).all(|w| w[0] <= w[1]), "{phases:?}");
    }

    /// One randomized two-store run against the unbinned reference: every
    /// step both stores sweep, drain into buckets and append the other's
    /// bucket; the union must equal [`advance_all`] of the whole
    /// population bit for bit after every step (so every particle was
    /// advanced exactly once, and none was lost, duplicated or dropped by
    /// a hole refill), and both stores keep their phase halves. `cut`
    /// picks the column the stores split at each step; `pooled` sweeps
    /// through the pool with a small chunk.
    fn check_drain_sequence(n: u64, k: u32, dir: i8, steps: u32, cut: u64, pooled: bool) {
        let grid = Grid::new(32).unwrap();
        let consts = SimConstants::CANONICAL;
        let ps = InitConfig::new(grid, n, Distribution::Geometric { r: 0.9 })
            .with_k(k)
            .with_m(1)
            .with_dir(dir)
            .build()
            .unwrap()
            .particles;
        let ncells = grid.ncells();
        let mut reference = ps.clone();
        let mut mid = ncells / 2;
        let mut halves = [(0, mid), (mid, ncells)].map(|(lo, hi)| {
            let mine: Vec<Particle> = (ps.iter().copied())
                .filter(|p| (lo..hi).contains(&grid.cell_of(p.x)))
                .collect();
            BinnedStore::new(&mine, &grid, DEFAULT_REBIN)
        });
        for step in 0..steps {
            advance_all(&grid, &consts, &mut reference);
            mid = 1 + ((cut >> (step % 60)) as usize) % (ncells - 1);
            let mut moved = [ParticleBatch::new(), ParticleBatch::new()];
            for (h, store) in halves.iter_mut().enumerate() {
                if pooled {
                    store.advance_all(&grid, &consts, 7);
                } else {
                    store.sweep(&grid, &consts);
                }
                let side = |c: usize| usize::from(c >= mid);
                let keep = |c: usize, _| side(c) == h;
                let mut buckets = [ParticleBatch::new(), ParticleBatch::new()];
                store.drain_leavers_to_buckets(&grid, keep, |c, _| side(c), &mut buckets);
                moved[1 - h] = std::mem::take(&mut buckets[1 - h]);
                assert!(buckets[h].is_empty());
            }
            for (store, arrivals) in halves.iter_mut().zip(&moved) {
                store.append_tail(arrivals);
                assert_phases(store, &format!("step {step}"));
            }
            let got = sorted([halves[0].to_particles(), halves[1].to_particles()].concat());
            assert_eq!(sorted(reference.clone()), got, "diverged at step {step}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn drain_sequences_keep_the_reference_multiset_and_sweep_once(
            n in 100u64..500,
            k in 0u32..2,
            leftwards in proptest::prelude::prop::bool::ANY,
            steps in 10u32..40,
            cut in proptest::prelude::any::<u64>(),
            pooled in proptest::prelude::prop::bool::ANY,
        ) {
            let dir = if leftwards { -1 } else { 1 };
            check_drain_sequence(n, k, dir, steps, cut, pooled);
        }
    }

    /// Drive one store through `ops` random operations — sweeps through
    /// both doors, drains under random keep rules whose buckets come back
    /// in either order (including into a store drained empty, so a
    /// phase-0 run outgrows the receiver's phase 1), record arrivals of
    /// both phases, injections, removals, and `set` / `pop` — holding it
    /// after each one to the phase contract and to a plain `Vec` of the
    /// same population, per id, bit for bit.
    fn check_random_edits(n: u64, k: u32, m: i32, seed: u64, ops: &[u8]) {
        let grid = Grid::new(32).unwrap();
        let consts = SimConstants::CANONICAL;
        let ps = InitConfig::new(grid, n, Distribution::Sinusoidal)
            .with_k(k)
            .with_m(m)
            .build()
            .unwrap()
            .particles;
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        let mut reference = ps.clone();
        let mut next_id = n + 1;
        for (j, &op) in ops.iter().enumerate() {
            match op {
                0 => {
                    store.sweep(&grid, &consts);
                    advance_all(&grid, &consts, &mut reference);
                }
                1 => {
                    store.advance_all(&grid, &consts, 13);
                    advance_all(&grid, &consts, &mut reference);
                }
                2 => {
                    // Keep each column with probability 1/4 to 1, or none.
                    let (bits, keep_none) =
                        (rng.next_u64() | rng.next_u64(), rng.gen_range(0..4) == 0);
                    let keep =
                        |c: usize, r: usize| !keep_none && (bits >> ((c * 7 + r) % 64)) & 1 == 1;
                    let mut buckets = [ParticleBatch::new(), ParticleBatch::new()];
                    let owner = |c: usize, r: usize| (c + r) % 2;
                    store.drain_leavers_to_buckets(&grid, keep, owner, &mut buckets);
                    assert_phases(&store, "drained");
                    if rng.gen_range(0..2) == 0 {
                        buckets.swap(0, 1);
                    }
                    for bucket in &buckets {
                        store.append_tail(bucket);
                        assert_phases(&store, "appended");
                    }
                }
                3 => {
                    // Record arrivals: copies of residents under fresh ids,
                    // some shifted one column (the other phase).
                    for _ in 0..rng.gen_range(1..6) {
                        if reference.is_empty() {
                            break;
                        }
                        let mut p = reference[rng.gen_range(0..reference.len())];
                        if rng.gen_range(0..2) == 0 {
                            p.x = grid.wrap_coord(p.x + 1.0);
                        }
                        p.id = next_id;
                        next_id += 1;
                        store.push_tail(p);
                        reference.push(p);
                    }
                }
                4 => {
                    let region = Region {
                        x0: rng.gen_range(0..16),
                        x1: rng.gen_range(16..33),
                        y0: 0,
                        y1: 32,
                    };
                    let cutoff = rng.gen_range(0..next_id as usize) as u64;
                    let removed = store.remove_in_region_upto(&region, cutoff);
                    let before = reference.len();
                    reference.retain(|p| p.id > cutoff || !region.contains_point(p.x, p.y));
                    assert_eq!(removed, before - reference.len());
                }
                5 if !reference.is_empty() => {
                    let mut want = sorted(reference);
                    let idx = rng.gen_range(0..want.len());
                    let mut p = want[idx];
                    p.x = grid.wrap_coord(p.x + rng.gen_range(0..3) as f64);
                    store.set(idx, p);
                    want[idx] = p;
                    reference = want;
                }
                _ => {
                    let want = sorted(reference);
                    assert_eq!(store.pop(), want.last().copied());
                    reference = want;
                    reference.pop();
                }
            }
            assert_phases(&store, &format!("op {j} ({op})"));
            assert_eq!(
                store.to_particles(),
                sorted(reference.clone()),
                "op {j} ({op})"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn random_edits_keep_the_phase_halves_and_the_reference_multiset(
            n in 1u64..300,
            k in 0u32..2,
            m in -1i32..2,
            seed in proptest::prelude::any::<u64>(),
            ops in proptest::prelude::prop::collection::vec(0u8..7, 10..40),
        ) {
            check_random_edits(n, k, m, seed, &ops);
        }
    }

    /// A store of a rightward `k = 0` population (stride 1) that starts in
    /// columns `8..20`, swept `age` steps: particles keep canonical order
    /// within each half, so a column run is contiguous in its half.
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
            store.sweep(&grid, &SimConstants::CANONICAL);
        }
        (grid, store)
    }

    /// The element-by-element drain the run-based body replaced, on AoS
    /// records: `holes` ascending, phase 1 from `split`. Each half's holes
    /// are refilled from the end of that half, last first, and the gap at
    /// `split` takes the last phase-1 records. Returns the storage order
    /// it leaves and the new split.
    fn element_drain(
        mut ps: Vec<Particle>,
        holes: &[usize],
        split: usize,
    ) -> (Vec<Particle>, usize) {
        let fill = |ps: &mut Vec<Particle>, holes: &[usize], end: usize| {
            let new_end = end - holes.len();
            let (mut src, mut top) = (end, holes.len());
            for (filled, &h) in holes.iter().enumerate() {
                if h >= new_end {
                    break;
                }
                while top > filled && holes[top - 1] == src - 1 {
                    src -= 1;
                    top -= 1;
                }
                src -= 1;
                ps[h] = ps[src];
            }
            new_end
        };
        let n = ps.len();
        let (h0, h1) = holes.split_at(holes.partition_point(|&h| h < split));
        let end1 = fill(&mut ps, h1, n);
        let end0 = fill(&mut ps, h0, split);
        let m = (split - end0).min(end1 - split);
        for j in 0..m {
            ps[end0 + j] = ps[end1 - m + j];
        }
        ps.truncate(n - holes.len());
        (ps, end0)
    }

    /// What one drain of a store did: its leaver runs and whether phase 1
    /// ran dry before the gap at `split` closed.
    struct DrainShape {
        runs: Vec<LeaverRun>,
        dry: bool,
    }

    /// Drain two clones of `store` — one into `ndst` buckets through
    /// [`BinnedStore::drain_leavers_to_buckets`] under `owner`, one through
    /// the record door — and check that the buckets hold each
    /// destination's records in the record door's order, that both leave
    /// the same count, storage order and split, and that this is what the
    /// element-by-element drain leaves.
    fn check_doors<C: Classifier + Copy>(
        store: &BinnedStore,
        grid: &Grid,
        classifier: C,
        owner: impl Fn(usize, usize) -> usize + Copy,
        ndst: usize,
    ) -> DrainShape {
        let (mut by_bucket, mut by_record) = (store.clone(), store.clone());
        let mut buckets = vec![ParticleBatch::new(); ndst];
        let sent = by_bucket.drain_leavers_to_buckets(grid, classifier, owner, &mut buckets);
        let mut records = vec![Vec::new(); ndst];
        let emitted = by_record.drain_leavers_into(grid, classifier, |p| {
            let (c, r) = grid.cell_of_point(p.x, p.y);
            records[owner(c, r)].push(p);
        });
        assert_eq!(sent, emitted, "leaver counts differ");
        for (d, (bucket, want)) in buckets.iter().zip(&records).enumerate() {
            assert_eq!(&bucket.to_particles(), want, "destination {d}");
        }
        assert_eq!(by_bucket.batch, by_record.batch, "storage order differs");
        assert_eq!(by_bucket.split, by_record.split);
        assert_phases(&by_bucket, "drained");

        let position: std::collections::HashMap<u64, usize> = (store.batch.id.iter().enumerate())
            .map(|(i, &id)| (id, i))
            .collect();
        let mut holes: Vec<usize> = (records.iter().flatten())
            .map(|p| position[&p.id])
            .collect();
        holes.sort_unstable();
        let (want, split) = element_drain(store.batch.to_particles(), &holes, store.split);
        assert_eq!(
            by_bucket.batch.to_particles(),
            want,
            "not the element drain's order"
        );
        assert_eq!(by_bucket.split, split);
        let gap = holes.partition_point(|&h| h < store.split);
        let phase1 = store.len() - store.split - (holes.len() - gap);
        DrainShape {
            runs: by_bucket.leavers.clone(),
            dry: phase1 < gap,
        }
    }

    #[test]
    fn batch_door_matches_record_door_for_one_contiguous_run_under_cuts() {
        // A cut moved left to column 16: columns 16..20 of a fresh store
        // leave whole, one run at the end of each half.
        let (grid, store) = drifted_store(0);
        let owner = |c: usize, _| usize::from(c >= 16);
        let keep = OwnerMap::Columns { lo: 8, hi: 16 };
        let shape = check_doors(&store, &grid, keep, owner, 2);
        assert_eq!(shape.runs.len(), 2, "{:?}", shape.runs);
        assert!(shape.runs.iter().all(|r| r.len as usize >= SLICE_RUN));
        assert_eq!(shape.runs[0].range().end, store.split, "the end of phase 0");
        assert_eq!(shape.runs[1].range().end, store.len(), "the end of phase 1");
        assert!(!shape.dry);
    }

    #[test]
    fn batch_door_matches_record_door_for_scattered_vp_leavers() {
        // A whole-grid store under a VP-style table: leavers scattered
        // through each column by row.
        let (grid, ps) = population(900, Distribution::Geometric { r: 0.9 });
        let store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        let (col, row, owner) = tile_table(&grid);
        let table = CellTable::new(&grid, &col, &row, &owner, 0);
        let owner_of = |c, r| table.owner_of_cell(c, r);
        let shape = check_doors(&store, &grid, OwnerMap::Cells(table), owner_of, 3);
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
        let shape = check_doors(&store, &grid, keep, owner, 4);
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
        // Column 6 leaves whole (a long run, refilled by one reversed
        // copy); column 10 loses its even rows (runs of one or two, copied
        // element by element).
        let (grid, ps) = population(600, Distribution::Uniform);
        let store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        let keep = |c: usize, r: usize| c != 6 && !(c == 10 && r.is_multiple_of(2));
        let owner = |c: usize, r: usize| match (keep(c, r), c) {
            (true, _) => 0,
            (false, 6) => 1,
            _ => 2,
        };
        let shape = check_doors(&store, &grid, keep, owner, 3);
        let long = |r: &&LeaverRun| r.len as usize >= SLICE_RUN;
        assert!(shape.runs.iter().any(|r| long(&r) && r.dst == 1));
        assert!(shape.runs.iter().any(|r| !long(&r) && r.dst == 2));
    }

    #[test]
    fn batch_door_matches_record_door_when_the_refill_runs_dry() {
        // Only columns 8 and 9 stay: phase 0 loses far more than phase 1
        // keeps, so all of phase 1 moves down into the gap at `split`.
        // With three record arrivals the gap is still wider.
        for arrivals in [0u64, 3] {
            let (grid, mut store) = drifted_store(0);
            for id in 0..arrivals {
                let p = store.particle_at(store.len() - 1 - id as usize);
                store.push_tail(Particle {
                    id: 10_000 + id,
                    ..p
                });
            }
            let keep = OwnerMap::Columns { lo: 8, hi: 10 };
            let owner = |c: usize, _| usize::from(!(8..10).contains(&c));
            let shape = check_doors(&store, &grid, keep, owner, 2);
            assert!(shape.dry, "{arrivals} arrivals: phase 1 outlasted the gap");
        }
    }

    /// A map that gives the store every cell drains nothing without
    /// asking, and one that gives it every cell but one still scans.
    #[test]
    fn a_map_spanning_the_grid_drains_nothing() {
        let (grid, ps) = population(300, Distribution::Uniform);
        let mut store = BinnedStore::new(&ps, &grid, DEFAULT_REBIN);
        let whole = OwnerMap::Columns { lo: 0, hi: 32 };
        assert!(whole.keeps_all(&grid));
        assert!(!OwnerMap::Columns { lo: 1, hi: 32 }.keeps_all(&grid));
        assert!(!OwnerMap::Columns { lo: 0, hi: 31 }.keeps_all(&grid));
        let before = store.batch().clone();
        assert_eq!(store.drain_leavers_into(&grid, whole, |_| ()), 0);
        assert_eq!(store.batch(), &before);
        let one_less = OwnerMap::Columns { lo: 0, hi: 31 };
        assert!(store.drain_leavers_into(&grid, one_less, |_| ()) > 0);
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
