//! Steady-state allocation audit for the single-process engine.
//!
//! The perf contract (see `DESIGN.md`, "Sweep modes and the memory layout
//! contract") is that once the simulation is warmed up — events exhausted,
//! sweep pool spawned, histogram scratch sized — the per-step loop performs
//! **zero heap allocations** in every sweep mode. This test installs a
//! counting `#[global_allocator]` and asserts exactly that.
//!
//! The counter is scoped to the test's own thread (const-initialized TLS
//! flag, so reading it never allocates): the libtest harness's main thread
//! allocates while parked waiting for results, and must not pollute the
//! audit.
//!
//! Scope: the counted region is the engine step + histogram readback loop.
//! `verify()` materializes a particle vector by design and is not part of
//! the steady-state loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use pic_core::dist::Distribution;
use pic_core::engine::{Simulation, SweepMode};
use pic_core::events::{Event, Region};
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_core::simd::SimdBackend;

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True only on the auditing thread, only inside the counted region.
    static IN_SCOPE: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc() {
    let counted = IN_SCOPE.try_with(Cell::get).unwrap_or(false);
    if counted {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn warmed_sim(mode: SweepMode, backend: Option<SimdBackend>) -> Simulation {
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
    let mut sim = Simulation::with_mode(setup, mode).with_chunk_size(256);
    if let Some(b) = backend {
        sim = sim.with_simd_backend(b);
    }
    sim.run(8); // past all events; pool spawned; binned scratch warmed
    sim
}

#[test]
fn steady_state_step_loop_allocates_nothing() {
    // The binned row runs once on the detected SIMD backend and once with
    // the vector path forced off: the quartet body, the scalar remainder
    // loop, and the forced-scalar kernel must all stay allocation-free.
    // (The serial engine sorts only after an event, so no counting sort
    // runs in the counted region; the rank path's timer sort is held to
    // the same bound by `pic-par/tests/alloc_steady_state.rs`.)
    for (mode, backend) in [
        (SweepMode::Serial, None),
        (SweepMode::SoaBinned, None),
        (SweepMode::SoaBinned, Some(SimdBackend::Scalar)),
    ] {
        let mut sim = warmed_sim(mode, backend);
        let mut cols = Vec::new();
        let mut rows = Vec::new();
        // Size the histogram scratch once, then go quiet.
        sim.column_histogram_into(&mut cols);
        sim.row_histogram_into(&mut rows);

        let before = ALLOC_CALLS.load(Ordering::SeqCst);
        IN_SCOPE.with(|s| s.set(true));
        for _ in 0..50 {
            sim.step();
            sim.column_histogram_into(&mut cols);
            sim.row_histogram_into(&mut rows);
        }
        IN_SCOPE.with(|s| s.set(false));
        let after = ALLOC_CALLS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "{mode:?}: steady-state loop must not allocate ({} allocations in 50 steps)",
            after - before
        );
        // The loop actually did work: the histograms account for every
        // particle.
        assert_eq!(cols.iter().sum::<u64>(), 3_000 + 64 - 32);
    }
}
