//! Zero-overhead audit for the disabled tracer.
//!
//! The contract (DESIGN.md, "Trace record schema"): `Tracer::disabled()`
//! on the hot path costs one null check — in particular, **zero heap
//! allocations** in the steady-state step loop. Same counting
//! `#[global_allocator]` pattern as `pic-core/tests/alloc_steady_state.rs`
//! (thread-scoped const-init TLS flag, so the libtest main thread can't
//! pollute the audit).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use pic_core::dist::Distribution;
use pic_core::engine::{Simulation, SweepMode};
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_trace::{trace_simulation, Counter, Phase, Tracer};

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

fn warmed_sim(mode: SweepMode) -> Simulation {
    let grid = Grid::new(32).unwrap();
    let setup = InitConfig::new(grid, 2_000, Distribution::Geometric { r: 0.9 })
        .with_m(1)
        .build()
        .unwrap();
    let mut sim = Simulation::with_mode(setup, mode).with_chunk_size(256);
    sim.run(8); // pool spawned
    sim
}

#[test]
fn disabled_tracer_step_loop_allocates_nothing() {
    for mode in [SweepMode::Serial, SweepMode::SoaBinned] {
        let mut sim = warmed_sim(mode);
        let mut tracer = Tracer::disabled();

        let before = ALLOC_CALLS.load(Ordering::SeqCst);
        IN_SCOPE.with(|s| s.set(true));
        trace_simulation(&mut sim, 50, &mut tracer);
        IN_SCOPE.with(|s| s.set(false));
        let after = ALLOC_CALLS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "{mode:?}: disabled-tracer loop must not allocate ({} allocations in 50 steps)",
            after - before
        );
        assert!(tracer.finish().is_none());
    }
}

#[test]
fn disabled_tracer_primitives_allocate_nothing() {
    let mut tracer = Tracer::disabled();
    let loads = [1.0f64, 2.0, 3.0];

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    IN_SCOPE.with(|s| s.set(true));
    for step in 0..10_000u64 {
        tracer.begin_step(step);
        tracer.phase_start(Phase::Exchange);
        tracer.phase_end(Phase::Exchange);
        tracer.add(Counter::Rehomed, 7);
        tracer.record_loads(&loads);
        tracer.record_cuts('x', &[0, 1], &[3, 4], &[0, 2]);
        tracer.end_step(3);
    }
    IN_SCOPE.with(|s| s.set(false));
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "disabled primitives must not allocate");
}
