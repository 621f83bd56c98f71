//! Steady-state allocation audit for the single-process engine.
//!
//! The perf contract (see `DESIGN.md`, "The serial engine and the memory
//! layout contract") is that once the simulation is warmed up — events
//! exhausted, sweep pool spawned, histogram scratch sized — the per-step
//! loop performs **zero heap allocations** on every kernel backend. This
//! test installs a counting `#[global_allocator]` and asserts exactly that.
//!
//! The counter is scoped to the test's own thread (const-initialized TLS
//! flag, so reading it never allocates): the libtest harness's main thread
//! allocates while parked waiting for results, and must not pollute the
//! audit.
//!
//! Scope: the counted region is the engine step + histogram readback
//! loop. `verify()` materializes a particle vector by design and is not part of
//! the steady-state loop.
//!
//! The same allocator also keeps a per-thread balance of live bytes and its
//! high-water mark, so the footprint contract of the store — one resident
//! copy of each particle and no scratch (DESIGN.md §9) — is pinned by
//! bytes, not by reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use pic_core::bin::{BinnedStore, DEFAULT_REBIN};
use pic_core::dist::Distribution;
use pic_core::engine::Simulation;
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_core::simd::SimdBackend;

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True only on the auditing thread, only inside the counted region.
    static IN_SCOPE: Cell<bool> = const { Cell::new(false) };
    /// True only on the thread measuring a footprint (a separate region,
    /// so the two audits can run on parallel test threads).
    static IN_FOOTPRINT: Cell<bool> = const { Cell::new(false) };
    /// Bytes allocated minus bytes freed inside the footprint region.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The high-water mark of `LIVE`.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note_alloc() {
    let counted = IN_SCOPE.try_with(Cell::get).unwrap_or(false);
    if counted {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

fn note_bytes(delta: isize) {
    if IN_FOOTPRINT.try_with(Cell::get).unwrap_or(false) {
        let live = LIVE.with(|l| {
            l.set(l.get() + delta);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        note_bytes(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        note_bytes(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        note_bytes(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_bytes(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

/// Run `f` on this thread and return its result with the peak of live
/// heap bytes it reached above the level at entry.
fn peak_bytes<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    IN_FOOTPRINT.with(|s| s.set(true));
    let r = f();
    IN_FOOTPRINT.with(|s| s.set(false));
    (r, PEAK.with(Cell::get) as usize)
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn warmed_sim(backend: Option<SimdBackend>) -> Simulation {
    let grid = Grid::new(32).unwrap();
    let setup = InitConfig::new(grid, 3_000, Distribution::Geometric { r: 0.9 })
        .with_m(1)
        .build()
        .unwrap()
        // Events exercise the injection/removal paths during warm-up and
        // are exhausted before the counted region begins.
        .with_event(Event::inject(
            2,
            Region {
                x0: 0,
                x1: 8,
                y0: 0,
                y1: 8,
            },
            64,
            0,
            0,
            1,
        ))
        .with_event(Event::remove(
            4,
            Region {
                x0: 0,
                x1: 32,
                y0: 0,
                y1: 16,
            },
            32,
        ));
    let mut sim = Simulation::new(setup).with_chunk_size(256);
    if let Some(b) = backend {
        sim = sim.with_simd_backend(b);
    }
    sim.run(8); // past all events; pool spawned; binned scratch warmed
    sim
}

#[test]
fn steady_state_step_loop_allocates_nothing() {
    // Once on the detected SIMD backend and once with the vector path
    // forced off: the quartet body, the scalar remainder loop, and the
    // forced-scalar kernel must all stay allocation-free.
    for backend in [None, Some(SimdBackend::Scalar)] {
        let mut sim = warmed_sim(backend);
        let mut cols = Vec::new();
        // Size the histogram scratch once, then go quiet.
        sim.column_histogram_into(&mut cols);

        let before = ALLOC_CALLS.load(Ordering::SeqCst);
        IN_SCOPE.with(|s| s.set(true));
        for _ in 0..50 {
            sim.step();
            sim.column_histogram_into(&mut cols);
        }
        IN_SCOPE.with(|s| s.set(false));
        let after = ALLOC_CALLS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "{backend:?}: steady-state loop must not allocate ({} allocations in 50 steps)",
            after - before
        );
        // The loop actually did work: the histograms account for every
        // particle.
        assert_eq!(cols.iter().sum::<u64>(), 3_000 + 64 - 32);
    }
}

/// Bytes of one particle in the SoA batch: `id`, seven `f64` fields,
/// `k`, `m`, `born_at`.
const BATCH_BYTES: usize = 8 + 7 * 8 + 3 * 4;
#[test]
fn store_build_and_sweep_hold_one_batch_and_no_scratch() {
    // Building straight from the records keeps no intermediate copy, and
    // nothing sorts: the peak beyond the input is the batch and a few
    // fixed-size words — no scratch column, no per-column bookkeeping.
    let grid = Grid::new(64).unwrap();
    let n = 20_000;
    let setup = InitConfig::new(grid, n as u64, Distribution::Geometric { r: 0.95 })
        .with_k(1)
        .with_m(1)
        .build()
        .unwrap();
    let (len, peak) = peak_bytes(|| {
        let mut store = BinnedStore::new(&setup.particles, &grid, DEFAULT_REBIN);
        for _ in 0..2 {
            store.sweep(&grid, &setup.consts);
        }
        store.len()
    });
    assert_eq!(len, n);
    assert!(
        peak <= BATCH_BYTES * n + 4096,
        "peak {peak} B for {n} particles: {:.1} B per particle",
        peak as f64 / n as f64
    );
}
