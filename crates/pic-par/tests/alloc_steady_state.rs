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
//! the harness threads cannot pollute the numbers. The same allocator
//! records the largest single request in the window, which pins that a
//! finishing rank hands its store to the outcome rather than copying it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_par::decomp::{Decomp2d, VpGrid};
use pic_par::runner::{RankKernel, RankState};

struct CountingAlloc;

thread_local! {
    /// True only inside a rank's measurement window (const-initialized so
    /// reading it never allocates).
    static IN_SCOPE: Cell<bool> = const { Cell::new(false) };
    static LOCAL_ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// The largest single allocation request of the window, in bytes.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let counted = IN_SCOPE.try_with(Cell::get).unwrap_or(false);
    if counted {
        let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
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

/// Which ownership map the audited ranks are built with.
#[derive(Debug, Clone, Copy)]
enum Owners {
    /// The Cartesian cuts of the uniform (2 × 2) decomposition: with
    /// `m = 1` every step's interior is empty and the drain tests every bin.
    Cuts,
    /// One processor row of columns: every step sweeps an interior while
    /// its exchange is in flight.
    Columns,
    /// The VP runtime's map at over-decomposition 4.
    Vps,
}

fn audit(owners: Owners, k: u32) -> Vec<(usize, usize)> {
    // A *uniform* drifting cloud: per-rank populations are stationary (what
    // leaves a subdomain each step is replaced from the neighbor), so any
    // allocation in a warmed window is staging churn, not workload growth.
    // Boundary-cell residents still cross a cut every step, keeping the
    // exchange path busy; with `k = 2` every step moves five whole columns
    // of the rank's eight.
    let setup = InitConfig::new(Grid::new(32).unwrap(), 3_000, Distribution::Uniform)
        .with_k(k)
        .with_m(1)
        .build()
        .unwrap();
    run_threads(RANKS, |comm| {
        let rank = comm.rank();
        let mut st = match owners {
            Owners::Cuts => RankState::new(&setup, Decomp2d::uniform(32, RANKS), rank),
            Owners::Columns => RankState::new(&setup, Decomp2d::columns(32, RANKS), rank),
            Owners::Vps => {
                let vps = VpGrid::new(32, RANKS, 4);
                RankState::with_vps(&setup, vps, rank, RankKernel::default())
            }
        };
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
    // boundary particles across at least one cut. Audit the step with an
    // empty interior on a 2 × 2 grid, with an interior on a column world
    // (the split-phase handle and the spare-bucket free-list must run off
    // recycled buffers), and a VP-owned rank (every bin drained). Those
    // three move a `k = 0` cloud, whose leaver runs are short and staged
    // element by element; the fourth moves `k = 2` across one row of
    // columns, where a leaving bin is a run far over `SLICE_RUN`, so the
    // slice copies fill the recycled buckets — eleven arrays each — under
    // bulk traffic.
    for (owners, k) in [
        (Owners::Cuts, 0),
        (Owners::Columns, 0),
        (Owners::Vps, 0),
        (Owners::Columns, 2),
    ] {
        let windows = audit(owners, k);
        for (rank, &(first, second)) in windows.iter().enumerate() {
            // Steady state: a later warmed window allocates no more than
            // the one before it, modulo transport-queue jitter (channel
            // queue depth — and thus its rare capacity growth — depends on
            // thread interleaving, not on the staging code under audit).
            assert!(
                second <= first + 2,
                "{owners:?} k={k} rank {rank}: allocation growth \
                 between warmed windows ({first} then {second})"
            );
            // Absolute budget: the old per-step staging path allocated at
            // least one buffer per active destination plus one
            // vector per source every step (≥ 2 per step per rank
            // even with a single active neighbor). The reworked path's
            // residue is occasional capacity growth only — far under one
            // allocation per step.
            assert!(
                second as u32 <= WINDOW_STEPS / 2,
                "{owners:?} k={k} rank {rank}: {second} allocations \
                 in a {WINDOW_STEPS}-step warmed window"
            );
        }
    }
}

#[test]
fn finish_moves_the_store_into_the_outcome() {
    // The rank loop `run_config` runs under the static balancer — build,
    // step, finish — on 2 ranks, with the window around `finish` alone:
    // verification streams over the store and the outcome takes the
    // store's batch, so no request is as large as one 8-byte column of the
    // rank's particles (an AoS copy would be ten of them).
    let setup = InitConfig::new(Grid::new(32).unwrap(), 3_000, Distribution::Uniform)
        .with_m(1)
        .build()
        .unwrap();
    run_threads(2, |comm| {
        let mut st = RankState::new(&setup, Decomp2d::uniform(32, 2), comm.rank());
        for _ in 0..WARM_STEPS {
            st.step(&comm);
        }
        let local = st.local_count();
        LARGEST.with(|c| c.set(0));
        IN_SCOPE.with(|s| s.set(true));
        let out = st.finish(&comm);
        IN_SCOPE.with(|s| s.set(false));
        let largest = LARGEST.with(Cell::get);
        assert!(out.verify.passed(), "{:?}", out.verify);
        assert_eq!((out.local_count, out.particles.len()), (local, local));
        assert!(
            largest < 8 * local,
            "rank {}: a {largest} B allocation inside finish ({local} particles)",
            comm.rank()
        );
        assert!(st.store.is_empty(), "finish leaves the store empty");
    });
}
