//! The world of ranks: its mailboxes, and spawning it as OS threads.

use crate::chan::Mailbox;
use crate::comm::Communicator;
use crate::payload::Payload;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// How the panic of a rank that pulled the poison ends — what
/// `run_threads` tells a collateral panic from the original by.
pub(crate) const WORLD_ABORTED: &str = "panicked; world aborted";

/// The wire of a `size`-rank world: one FIFO mailbox per ordered rank
/// pair, `boxes[src * size + dst]` holding what `src` sent `dst` in send
/// order. `None` is the poison a panicked `src` leaves behind its last
/// message.
pub(crate) struct World {
    size: usize,
    boxes: Vec<Mailbox<Option<Payload>>>,
}

impl World {
    pub(crate) fn new(size: usize) -> Arc<World> {
        assert!(size > 0, "world must have at least one rank");
        Arc::new(World {
            size,
            boxes: (0..size * size).map(|_| Mailbox::new()).collect(),
        })
    }

    pub(crate) fn size(&self) -> usize {
        self.size
    }

    pub(crate) fn mailbox(&self, src: usize, dst: usize) -> &Mailbox<Option<Payload>> {
        &self.boxes[src * self.size + dst]
    }

    /// Called for a rank whose closure panicked: poison every mailbox it
    /// sends on, so a peer blocked in (or later entering) a receive from it
    /// panics too instead of waiting forever.
    fn poison(&self, rank: usize) {
        for dst in 0..self.size {
            self.mailbox(rank, dst).push(None);
        }
    }
}

/// Run `f(comm)` on `size` rank threads and return the per-rank results in
/// rank order. This is the substrate's `mpiexec`.
///
/// A rank that panics brings the world down instead of hanging it: it
/// poisons the mailboxes it sends on, a peer blocked in (or later
/// entering) a receive from it panics in turn and poisons its own, and so
/// on down every chain of waiting ranks — which is why *every* caught
/// panic poisons, collateral ones included. Every rank is joined, and the
/// panic is re-raised naming the lowest rank that failed on its own
/// account.
pub fn run_threads<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Communicator) -> R + Send + Sync,
{
    // The world outlives every rank thread, so a send to a rank that is
    // already gone still finds its mailbox.
    let world = World::new(size);
    let results: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..size)
            .map(|rank| {
                let (f, world) = (&f, &world);
                scope.spawn(move || {
                    let comm = Communicator::new(Arc::clone(world), rank);
                    catch_unwind(AssertUnwindSafe(|| f(comm))).inspect_err(|_| world.poison(rank))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panics are caught inside the thread"))
            .collect()
    });
    let failed = results
        .iter()
        .enumerate()
        .filter_map(|(rank, r)| Some((rank, panic_message(r.as_ref().err()?.as_ref()))))
        .find(|(_, msg)| !msg.ends_with(WORLD_ABORTED));
    if let Some((rank, msg)) = failed {
        panic!("rank {rank} panicked: {msg}");
    }
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|cause| resume_unwind(cause)))
        .collect()
}

/// The message of a caught panic (`panic!` payloads are `&str` or `String`).
fn panic_message(cause: &(dyn Any + Send)) -> &str {
    cause
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| cause.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic payload>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{allreduce_u64, alltoallv_take_into};
    use crate::comm::ReduceOp;
    use std::time::Duration;

    /// Run a world that is expected to panic on a helper thread, under a
    /// 10 s watchdog: a hang fails the test instead of stalling the suite.
    /// Returns the message the world went down with.
    fn panic_of(world: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(catch_unwind(AssertUnwindSafe(world))));
        let ended = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a rank panicked and the world hung");
        let cause = ended.expect_err("the world must not survive a panicked rank");
        panic_message(&*cause).to_string()
    }

    #[test]
    fn panicking_rank_aborts_the_world() {
        for p in [2usize, 4] {
            // Before any collective: the peers are already in their receive.
            let msg = panic_of(move || {
                run_threads(p, |comm| {
                    if comm.rank() == 1 {
                        panic!("boom before");
                    }
                    allreduce_u64(&comm, 1, ReduceOp::Sum)
                });
            });
            assert_eq!(msg, "rank 1 panicked: boom before", "{p} ranks");
            // Between two collectives, on the last rank.
            let msg = panic_of(move || {
                run_threads(p, |comm| {
                    let n = allreduce_u64(&comm, 1, ReduceOp::Sum);
                    if comm.rank() == p - 1 {
                        panic!("boom between");
                    }
                    allreduce_u64(&comm, n, ReduceOp::Sum)
                });
            });
            assert_eq!(
                msg,
                format!("rank {} panicked: boom between", p - 1),
                "{p} ranks"
            );
        }
    }

    #[test]
    fn collateral_panics_poison_in_turn() {
        // Rank 0 never receives from rank 2: it waits on rank 1, and rank 1
        // waits on rank 2. Only rank 1's own collateral panic, poisoning in
        // turn, can wake rank 0.
        let msg = panic_of(|| {
            run_threads(3, |comm| match comm.rank() {
                0 => comm.recv::<Vec<u8>>(1),
                1 => comm.recv::<Vec<u8>>(2),
                _ => panic!("boom in the leaf"),
            });
        });
        assert_eq!(msg, "rank 2 panicked: boom in the leaf");
    }

    #[test]
    fn run_threads_returns_in_rank_order() {
        let got = run_threads(6, |comm| comm.rank() * 10);
        assert_eq!(got, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn ranks_know_their_world() {
        let got = run_threads(3, |comm| (comm.rank(), comm.size()));
        assert_eq!(got, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn pingpong_through_world() {
        let got = run_threads(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, vec![7u8]);
                comm.recv::<Vec<u8>>(1)
            } else {
                let v: Vec<u8> = comm.recv(0);
                comm.send(0, v.iter().map(|x| x + 1).collect::<Vec<u8>>());
                vec![]
            }
        });
        assert_eq!(got[0], vec![8]);
    }

    #[test]
    fn single_rank_world_works() {
        let got = run_threads(1, |comm| {
            comm.send(0, vec![42u8]);
            comm.recv::<Vec<u8>>(0)
        });
        assert_eq!(got, vec![vec![42]]);
    }

    #[test]
    fn heavy_traffic_no_loss() {
        // 500 messages to every peer all in flight at once before the
        // first receive: every mailbox queues 500 deep, and each receive
        // must still take its own round's payload. Then 500 all-to-alls
        // back to back.
        let n = 500usize;
        let got = run_threads(4, |comm| {
            for i in 0..n {
                for dst in 0..comm.size() {
                    comm.send(dst, vec![(i % 251) as u8, comm.rank() as u8]);
                }
            }
            let mut sum = 0u64;
            for i in 0..n {
                for src in 0..comm.size() {
                    let v: Vec<u8> = comm.recv(src);
                    assert_eq!(v, vec![(i % 251) as u8, src as u8]);
                    sum += v[0] as u64;
                }
            }
            let mut incoming: Vec<Vec<u8>> = Vec::new();
            for i in 0..n {
                let mut outgoing = vec![vec![(i % 251) as u8, comm.rank() as u8]; comm.size()];
                alltoallv_take_into(&comm, &mut outgoing, &mut incoming);
                for (src, v) in incoming.iter().enumerate() {
                    assert_eq!(v, &vec![(i % 251) as u8, src as u8]);
                    sum += v[0] as u64;
                }
            }
            sum
        });
        let expected: u64 = (0..n as u64).map(|i| (i % 251) * 4 * 2).sum();
        assert!(got.iter().all(|&g| g == expected));
    }
}
