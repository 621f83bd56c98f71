//! Process-global chunked worker pool for the particle sweep.
//!
//! This is the kernel's shared-memory parallel substrate: a fixed set of
//! worker threads (spawned once, on first use) that execute a *parallel
//! for* over index ranges. Work is divided into fixed-size chunks and
//! claimed dynamically with a single `fetch_add` per chunk — the classic
//! self-scheduling loop, which is exactly the granularity knob the paper's
//! load-balancing analysis cares about (small chunks = fine-grained
//! balance + more claim traffic, large chunks = the reverse).
//!
//! Properties the engine relies on:
//!
//! * **Determinism of results.** Chunks may execute on any thread in any
//!   order, but each index is processed exactly once and particles are
//!   independent within a step, so the produced state is bit-identical to
//!   a serial sweep regardless of scheduling (asserted by the cross-layout
//!   equivalence tests).
//! * **Zero allocation per dispatch.** Publishing a job takes one mutex
//!   round-trip and two atomic stores; claiming a chunk is one
//!   `fetch_add`. Nothing is heap-allocated after pool construction, which
//!   is what keeps the steady-state step loop allocation-free.
//! * **Caller participation.** The submitting thread claims chunks too, so
//!   a 1-core machine (pool size 0) degenerates to an ordinary inlined
//!   loop with no synchronization at all.
//!
//! Safety model: `run_chunked` publishes a borrowed closure to the workers
//! as a raw pointer and does not return until every worker has finished
//! with it (the drain handshake below), so the borrow never escapes the
//! call. Worker panics are caught, recorded, and re-raised on the
//! submitting thread after the sweep completes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Default sweep chunk size: big enough that the claim `fetch_add` is
/// amortized to noise, small enough that a skewed tail still spreads over
/// the pool.
/// This is also the *floor* of [`adaptive_chunk`] — the engine's default
/// when no explicit chunk size is configured.
pub const DEFAULT_CHUNK: usize = 4096;

/// Chunks-per-thread target of [`adaptive_chunk`]. More than one chunk per
/// thread keeps dynamic self-scheduling meaningful (a late thread can pick
/// up slack); too many re-introduces the per-chunk dispatch overhead the
/// adaptive size exists to amortize.
pub const CHUNK_OVERSUBSCRIPTION: usize = 4;

/// Adaptive default chunk size for a sweep over `len` indices on `threads`
/// participating threads: `max(DEFAULT_CHUNK, len / (threads ·
/// CHUNK_OVERSUBSCRIPTION))`.
///
/// A fixed chunk size couples dispatch overhead to the population size:
/// at `len = 1e5` a 4096-element chunk means ~25 dyn-dispatched closure
/// calls per sweep whether or not there are threads to feed, which is what
/// made the fixed-chunk `soa-chunked` rows trail `soa-serial` in the PR 2
/// baseline. Scaling the chunk with `len / threads` caps the dispatch
/// count at `CHUNK_OVERSUBSCRIPTION` chunks per thread while the
/// `DEFAULT_CHUNK` floor keeps small populations from degenerating into
/// per-particle dispatch. Chunk size never affects results — only
/// scheduling — so the adaptive choice preserves bit-identity trivially.
pub fn adaptive_chunk(len: usize, threads: usize) -> usize {
    let slots = threads.max(1).saturating_mul(CHUNK_OVERSUBSCRIPTION);
    (len / slots).max(DEFAULT_CHUNK)
}

/// A `*mut T` that may be shared across the pool's threads. The pool's
/// drain handshake guarantees exclusive, disjoint use: each chunk of the
/// index space is claimed by exactly one thread.
///
/// The pointer is reachable only through [`SyncMutPtr::get`] so closures
/// capture the whole wrapper (which is `Sync`) rather than the raw
/// pointer field (which is not, under edition-2021 disjoint capture).
pub struct SyncMutPtr<T>(*mut T);

unsafe impl<T> Send for SyncMutPtr<T> {}
unsafe impl<T> Sync for SyncMutPtr<T> {}

impl<T> SyncMutPtr<T> {
    pub fn new(ptr: *mut T) -> SyncMutPtr<T> {
        SyncMutPtr(ptr)
    }

    #[inline]
    pub fn get(&self) -> *mut T {
        self.0
    }
}

/// One published job: body + index space + chunk size, copied by each
/// worker under the state mutex while the submitter is known to be alive.
#[derive(Clone, Copy)]
struct JobPtr {
    body: *const (dyn Fn(usize, usize) + Sync),
    len: usize,
    chunk: usize,
    /// Workers allowed to join this job (the submitter participates on
    /// top); the scaling harness caps this below the spawned count.
    max_workers: usize,
}

unsafe impl Send for JobPtr {}

struct State {
    /// Bumped per job so a worker never re-joins a job it already left.
    epoch: u64,
    job: Option<JobPtr>,
    /// Workers currently inside the published job's claim loop.
    running: usize,
    /// Workers that joined the current job — never decremented while the
    /// job is live, so the `max_workers` cap is strict even when an early
    /// finisher leaves before a late riser looks at the job.
    joined: usize,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Next unclaimed index; chunks are `[fetch_add(chunk), +chunk)`.
    cursor: AtomicUsize,
    panicked: AtomicBool,
}

pub struct Pool {
    shared: Arc<Shared>,
    workers: usize,
    /// Workers allowed to join the next job (≤ `workers`); adjusted by
    /// [`Pool::set_active_threads`] for thread-scaling measurements.
    active_cap: AtomicUsize,
    /// Serializes submitters (one job in flight at a time).
    submit: Mutex<()>,
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-global pool, spawned on first use with
/// `available_parallelism() - 1` workers (the submitter is the +1). The
/// `PIC_THREADS` environment variable, when set to a positive integer,
/// overrides the hardware count — it both caps a big machine and lets a
/// small one oversubscribe for scaling sanity runs.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(Pool::new)
}

impl Pool {
    fn new() -> Pool {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let threads = std::env::var("PIC_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or(hw);
        let workers = threads.saturating_sub(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                running: 0,
                joined: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cursor: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("pic-sweep-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn sweep worker");
        }
        Pool {
            shared,
            workers,
            active_cap: AtomicUsize::new(workers),
            submit: Mutex::new(()),
        }
    }

    /// Total threads that can participate in a sweep (workers + submitter).
    pub fn threads(&self) -> usize {
        self.workers + 1
    }

    /// Cap the number of threads (including the submitter) that take part
    /// in subsequent sweeps, without tearing down workers. Clamped to
    /// `[1, threads()]`; returns the effective value. Results are
    /// bit-identical at any setting — only scheduling changes — which is
    /// what lets the scaling harness scan thread counts in one process.
    pub fn set_active_threads(&self, t: usize) -> usize {
        let t = t.clamp(1, self.workers + 1);
        self.active_cap.store(t - 1, Ordering::SeqCst);
        t
    }

    /// Threads (including the submitter) the next sweep will use.
    pub fn active_threads(&self) -> usize {
        self.active_cap.load(Ordering::SeqCst).min(self.workers) + 1
    }

    /// Run `body(start, end)` over every fixed-size chunk of `0..len`.
    /// Chunks are disjoint, cover the range exactly, and each runs on
    /// exactly one thread. Returns after all chunks complete; panics if
    /// any chunk panicked.
    pub fn run_chunked(&self, len: usize, chunk: usize, body: &(dyn Fn(usize, usize) + Sync)) {
        let chunk = chunk.max(1);
        if len == 0 {
            return;
        }
        let cap = self.active_cap.load(Ordering::SeqCst).min(self.workers);
        // Single chunk, no workers, or capped to the submitter alone:
        // run inline, no synchronization.
        if cap == 0 || len <= chunk {
            let mut start = 0;
            while start < len {
                let end = (start + chunk).min(len);
                body(start, end);
                start = end;
            }
            return;
        }

        let token = self
            .submit
            .lock()
            .expect("submit token is released before a panic is re-raised");
        // Publish. The lifetime erasure is sound because this function
        // drains every worker out of the job before returning.
        let job = JobPtr {
            body: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize, usize) + Sync + '_),
                    *const (dyn Fn(usize, usize) + Sync + 'static),
                >(body)
            },
            len,
            chunk,
            max_workers: cap,
        };
        {
            let mut st = self.shared.state.lock().unwrap();
            self.shared.cursor.store(0, Ordering::SeqCst);
            self.shared.panicked.store(false, Ordering::SeqCst);
            st.epoch += 1;
            st.joined = 0;
            st.job = Some(job);
        }
        self.shared.work_cv.notify_all();

        // Participate from the submitting thread.
        claim_chunks(&self.shared, body, len, chunk);

        // Drain: unpublish so no new worker joins, then wait for the ones
        // already inside to leave. After this, `body` is unreferenced.
        {
            let mut st = self.shared.state.lock().unwrap();
            st.job = None;
            while st.running > 0 {
                st = self.shared.done_cv.wait(st).unwrap();
            }
        }
        // Release the submit token *before* re-raising: unwinding with the
        // guard alive would poison the mutex and kill every later sweep.
        let panicked = self.shared.panicked.load(Ordering::SeqCst);
        drop(token);
        if panicked {
            panic!("a sweep chunk panicked on a pool worker");
        }
    }
}

/// The self-scheduling claim loop, shared by workers and the submitter.
fn claim_chunks(shared: &Shared, body: &(dyn Fn(usize, usize) + Sync), len: usize, chunk: usize) {
    loop {
        let start = shared.cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= len {
            return;
        }
        let end = (start + chunk).min(len);
        if catch_unwind(AssertUnwindSafe(|| body(start, end))).is_err() {
            shared.panicked.store(true, Ordering::SeqCst);
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                match st.job {
                    Some(j) if st.epoch != seen_epoch => {
                        // Mark the epoch seen whether or not we join, so a
                        // capped-out worker doesn't spin on the same job.
                        seen_epoch = st.epoch;
                        if st.joined < j.max_workers {
                            st.joined += 1;
                            st.running += 1;
                            break j;
                        }
                        st = shared.work_cv.wait(st).unwrap();
                    }
                    _ => st = shared.work_cv.wait(st).unwrap(),
                }
            }
        };
        // The submitter cannot return (and invalidate `body`) until
        // `running` drops back to zero.
        let body = unsafe { &*job.body };
        claim_chunks(shared, body, job.len, job.chunk);
        let mut st = shared.state.lock().unwrap();
        st.running -= 1;
        if st.running == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_index_exactly_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        for chunk in [1, 7, 64, 1000, n, n + 5] {
            hits.iter().for_each(|h| h.store(0, Ordering::SeqCst));
            global().run_chunked(n, chunk, &|s, e| {
                for h in &hits[s..e] {
                    h.fetch_add(1, Ordering::SeqCst);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "chunk={chunk}: some index not covered exactly once"
            );
        }
    }

    #[test]
    fn adaptive_chunk_floors_and_scales() {
        // Small populations stay at the floor…
        assert_eq!(adaptive_chunk(0, 4), DEFAULT_CHUNK);
        assert_eq!(adaptive_chunk(10_000, 1), DEFAULT_CHUNK);
        // …large ones scale to CHUNK_OVERSUBSCRIPTION chunks per thread…
        assert_eq!(adaptive_chunk(1_000_000, 1), 250_000);
        assert_eq!(adaptive_chunk(1_000_000, 4), 62_500);
        // …and a degenerate thread count is treated as one thread.
        assert_eq!(adaptive_chunk(1_000_000, 0), 250_000);
    }

    #[test]
    fn zero_len_is_a_no_op() {
        global().run_chunked(0, 64, &|_, _| panic!("must not run"));
    }

    #[test]
    fn chunks_are_aligned_and_sized() {
        let n = 1003;
        let chunk = 64;
        let spans = Mutex::new(Vec::new());
        global().run_chunked(n, chunk, &|s, e| {
            spans.lock().unwrap().push((s, e));
        });
        let mut spans = spans.into_inner().unwrap();
        spans.sort_unstable();
        let mut expect = 0;
        for (s, e) in spans {
            assert_eq!(s, expect);
            assert_eq!(s % chunk, 0);
            assert!(e - s <= chunk);
            expect = e;
        }
        assert_eq!(expect, n);
    }

    #[test]
    fn panic_in_chunk_propagates() {
        let result = std::panic::catch_unwind(|| {
            global().run_chunked(100, 10, &|s, _| {
                if s == 50 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
        // Pool must remain usable after a panicked sweep.
        global().run_chunked(10, 2, &|_, _| {});
    }

    #[test]
    fn active_thread_cap_clamps_and_restores() {
        let pool = global();
        let full = pool.threads();
        assert_eq!(pool.set_active_threads(1), 1);
        assert_eq!(pool.active_threads(), 1);
        // Capped to the submitter alone the sweep still covers everything.
        let total = AtomicUsize::new(0);
        pool.run_chunked(1000, 16, &|s, e| {
            total.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::SeqCst), 1000);
        // Out-of-range requests clamp instead of panicking.
        assert_eq!(pool.set_active_threads(0), 1);
        assert_eq!(pool.set_active_threads(usize::MAX), full);
        assert_eq!(pool.active_threads(), full);
    }

    #[test]
    fn reentrant_use_from_many_sweeps() {
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            global().run_chunked(257, 16, &|s, e| {
                total.fetch_add(e - s, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 257 * 50);
    }
}
