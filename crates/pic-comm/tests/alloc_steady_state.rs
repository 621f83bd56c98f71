//! Steady-state allocation audit for the exchange fabric itself, on both
//! zero-copy particle lanes — `Vec<Particle>` records and `ParticleBatch`
//! columns, the lane the rank step moves (DESIGN.md §15).
//!
//! The rank-loop audit (`pic-par/tests/alloc_steady_state.rs`) covers the
//! full step; this one isolates the transport: a warmed split-phase
//! alltoallv iteration, with each arrival bucket becoming the staging
//! bucket for the rank it came from, as the runtime's exchange does, must
//! not allocate. Typed payload buffers circulate by ownership (send
//! surrenders them, arrivals come back with capacity) and the channels
//! reuse their queue capacity, so a later measurement window must not
//! allocate more than an earlier one and the absolute budget stays far
//! under one allocation per iteration.
//!
//! Counters are thread-local, so each rank audits exactly its own work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pic_comm::collective::alltoallv_take_into;
use pic_comm::comm::Communicator;
use pic_comm::payload::WirePayload;
use pic_comm::world::run_threads;
use pic_core::particle::Particle;
use pic_core::soa::ParticleBatch;

struct CountingAlloc;

thread_local! {
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
const NP: usize = 50;
const WARM_ITERS: u32 = 12;
const WINDOW_ITERS: u32 = 16;

fn particle(id: u64) -> Particle {
    Particle {
        id,
        x: 1.5 + id as f64,
        y: 2.5,
        vx: 3.0,
        vy: -1.0,
        q: 0.3535533905932738,
        x0: 1.5,
        y0: 2.5,
        k: 1,
        m: 1,
        born_at: 0,
    }
}

/// A particle bucket of one of the two particle lanes.
trait Bucket: WirePayload {
    /// Empty the bucket (capacity kept), then stage `n` particles.
    fn refill(&mut self, first_id: u64, n: usize);
    fn count(&self) -> usize;
}

impl Bucket for Vec<Particle> {
    fn refill(&mut self, first_id: u64, n: usize) {
        self.clear();
        self.extend((first_id..).take(n).map(particle));
    }

    fn count(&self) -> usize {
        self.len()
    }
}

impl Bucket for ParticleBatch {
    fn refill(&mut self, first_id: u64, n: usize) {
        self.clear();
        (first_id..).take(n).for_each(|id| self.push(particle(id)));
    }

    fn count(&self) -> usize {
        self.len()
    }
}

/// One exchange iteration on ring traffic: stage `NP` particles for each
/// ring neighbor, move the buckets through the fabric, recycle every
/// arrival buffer (capacity included) into the next iteration's staging
/// slots, each to the slot of its sender — the same circulation the
/// runtime's exchange performs.
fn ring_iter<B: Bucket>(comm: &Communicator, outgoing: &mut [B], incoming: &mut Vec<B>, it: u64) {
    let size = comm.size();
    let rank = comm.rank();
    let (left, right) = ((rank + size - 1) % size, (rank + 1) % size);
    for (d, bucket) in outgoing.iter_mut().enumerate() {
        let n = if d == left || d == right { NP } else { 0 };
        bucket.refill(it, n);
    }
    alltoallv_take_into(comm, outgoing, incoming);
    let arrived: usize = incoming.iter().map(B::count).sum();
    assert_eq!(arrived, 2 * NP, "rank {rank}: lost particles");
    for (slot, buf) in outgoing.iter_mut().zip(incoming.drain(..)) {
        *slot = buf;
    }
}

/// Warm a ring on lane `B`, then count each rank's allocations over two
/// windows, and check them.
fn audit<B: Bucket>() {
    let windows = run_threads(RANKS, |comm| {
        let mut outgoing: Vec<B> = (0..RANKS).map(|_| B::empty()).collect();
        let mut incoming: Vec<B> = Vec::new();
        let mut it = 0u64;
        let mut window = |n: u32, outgoing: &mut _, incoming: &mut _| {
            LOCAL_ALLOCS.with(|c| c.set(0));
            IN_SCOPE.with(|s| s.set(true));
            for _ in 0..n {
                ring_iter::<B>(&comm, outgoing, incoming, it);
                it += 1;
            }
            IN_SCOPE.with(|s| s.set(false));
            LOCAL_ALLOCS.with(Cell::get)
        };
        let _ = window(WARM_ITERS, &mut outgoing, &mut incoming);
        let first = window(WINDOW_ITERS, &mut outgoing, &mut incoming);
        let second = window(WINDOW_ITERS, &mut outgoing, &mut incoming);
        (first, second)
    });
    let lane = B::NAME;
    for (rank, &(first, second)) in windows.iter().enumerate() {
        // Steady state: no growth between warmed windows, modulo
        // transport-queue jitter (channel queue depth depends on thread
        // interleaving, not on the lane under audit).
        assert!(
            second <= first + 2,
            "{lane} lane, rank {rank}: allocation growth between warmed windows \
             ({first} then {second})"
        );
        // Absolute budget: a serializing lane would pay at least one
        // encode buffer and one decode vector per iteration; a particle
        // lane's residue is rare capacity growth only.
        assert!(
            second as u32 <= WINDOW_ITERS / 2,
            "{lane} lane, rank {rank}: {second} allocations in a \
             {WINDOW_ITERS}-iteration warmed window"
        );
    }
}

#[test]
fn typed_wire_exchange_reaches_allocation_steady_state() {
    audit::<Vec<Particle>>();
}

/// The column lane: each bucket is eleven arrays, so a bucket that did not
/// circulate would cost eleven allocations per iteration, not one.
#[test]
fn batch_wire_exchange_reaches_allocation_steady_state() {
    audit::<ParticleBatch>();
}
