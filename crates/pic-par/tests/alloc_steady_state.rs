//! Steady-state allocation audit for the distributed rank loop.
//!
//! The single-process engine promises zero per-step allocations
//! (`pic-core/tests/alloc_steady_state.rs`). The rank loop cannot promise
//! zero — message payloads surrender their ownership to the transport on
//! every send, like MPI eager buffers — but it does promise *steady state*:
//! once warmed, a step's staging side (per-destination buckets, the binned
//! store's bins and tail) reuses its capacity, and recycled arrival
//! buckets circulate back into the next staging pass. Before the
//! exchange-scratch rework, every step allocated fresh buffers per
//! destination and a `Vec<Particle>` per source; this audit pins the reworked behavior with a per-rank counting
//! allocator: a later measurement window must not allocate more than an
//! earlier one, and the absolute per-step budget stays small.
//!
//! Counters are thread-local, so each rank audits exactly its own work and
//! the harness threads cannot pollute the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_par::decomp::Decomp2d;
use pic_par::runner::{ExchangeMode, RankKernel, RankState};

struct CountingAlloc;

thread_local! {
    /// True only inside a rank's measurement window (const-initialized so
    /// reading it never allocates).
    static IN_SCOPE: Cell<bool> = const { Cell::new(false) };
    static LOCAL_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc() {
    let counted = IN_SCOPE.try_with(Cell::get).unwrap_or(false);
    if counted {
        let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
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

const RANKS: usize = 4;
const WARM_STEPS: u32 = 12;
const WINDOW_STEPS: u32 = 16;

/// Steps this rank through one measured window, returning its own
/// allocation count. Every rank runs identical loop trip counts, so the
/// collectives inside `step` stay in lockstep.
fn measured_window(st: &mut RankState, comm: &pic_comm::comm::Communicator) -> usize {
    LOCAL_ALLOCS.with(|c| c.set(0));
    IN_SCOPE.with(|s| s.set(true));
    for _ in 0..WINDOW_STEPS {
        st.step(comm);
    }
    IN_SCOPE.with(|s| s.set(false));
    LOCAL_ALLOCS.with(Cell::get)
}

fn audit(kernel: RankKernel) -> Vec<(usize, usize)> {
    // A *uniform* drifting cloud: per-rank populations are stationary (what
    // leaves a subdomain each step is replaced from the neighbor), so any
    // allocation in a warmed window is staging churn, not workload growth.
    // Boundary-cell residents still cross a cut every step, keeping the
    // exchange path busy.
    let setup = InitConfig::new(Grid::new(32).unwrap(), 3_000, Distribution::Uniform)
        .with_m(1)
        .build()
        .unwrap();
    run_threads(RANKS, |comm| {
        let decomp = Decomp2d::uniform(32, RANKS);
        let mut st = RankState::with_kernel(&setup, decomp, comm.rank(), kernel);
        for _ in 0..WARM_STEPS {
            st.step(&comm);
        }
        let first = measured_window(&mut st, &comm);
        let second = measured_window(&mut st, &comm);
        // The run did real cross-rank work while we counted.
        assert!(st.local_count() > 0, "rank {} went empty", comm.rank());
        (first, second)
    })
}

#[test]
fn rank_step_loop_reaches_allocation_steady_state() {
    // The drifting uniform cloud keeps the exchange busy: every step moves
    // boundary particles across at least one cut. Audit the binned default
    // (the overlapped sparse exchange — escape dissemination,
    // per-neighbor counts, the split-phase handle, and the spare-bucket
    // free-list must all run off pooled buffers), the dense synchronous
    // reference, and a rebin on every step.
    for kernel in [
        RankKernel::default(),
        RankKernel::default().with_exchange(ExchangeMode::DenseSync),
        RankKernel::default().with_rebin_interval(1),
    ] {
        let windows = audit(kernel);
        for (rank, &(first, second)) in windows.iter().enumerate() {
            // Steady state: a later warmed window allocates no more than
            // the one before it, modulo transport-queue jitter (channel
            // queue depth — and thus its rare capacity growth — depends on
            // thread interleaving, not on the staging code under audit).
            assert!(
                second <= first + 2,
                "{kernel:?} rank {rank}: allocation growth between warmed \
                 windows ({first} then {second})"
            );
            // Absolute budget: the old per-step staging path allocated at
            // least one buffer per active destination plus one
            // vector per source every step (≥ 2 per step per rank
            // even with a single active neighbor). The reworked path's
            // residue is occasional capacity growth only — far under one
            // allocation per step.
            assert!(
                second as u32 <= WINDOW_STEPS / 2,
                "{kernel:?} rank {rank}: {second} allocations in a \
                 {WINDOW_STEPS}-step warmed window"
            );
        }
    }
}
