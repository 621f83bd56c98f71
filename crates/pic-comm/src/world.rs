//! Spawning a world of ranks as OS threads.

use crate::comm::Communicator;
use crate::endpoint::{Endpoint, WORLD_ABORTED};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Run `f(comm)` on `size` rank threads and return the per-rank results in
/// rank order. This is the substrate's `mpiexec`.
///
/// A rank that panics brings the world down instead of hanging it: its
/// endpoint poisons every inbox, a peer blocked in (or later
/// entering) a receive that can no longer be satisfied panics in turn,
/// every rank is joined, and the panic is re-raised naming the lowest rank
/// that failed on its own account.
pub fn run_threads<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Communicator) -> R + Send + Sync,
{
    // The endpoints outlive every rank thread, so a send to a rank that is
    // already gone still finds its inbox.
    let endpoints = Endpoint::world(size);
    let results: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .iter()
            .map(|ep| {
                let f = &f;
                scope.spawn(move || {
                    let comm = Communicator::world(ep.clone());
                    catch_unwind(AssertUnwindSafe(|| f(comm))).inspect_err(|_| ep.poison_world())
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
    use crate::collective::allreduce_u64;
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
                comm.send(1, 1, vec![7]);
                comm.recv(1, 2)
            } else {
                let v = comm.recv(0, 1);
                comm.send(0, 2, v.iter().map(|x| x + 1).collect());
                vec![]
            }
        });
        assert_eq!(got[0], vec![8]);
    }

    #[test]
    fn metrics_accumulate() {
        let comms: Vec<Communicator> = Endpoint::world(2)
            .into_iter()
            .map(Communicator::world)
            .collect();
        comms[0].send(1, 3, vec![0; 100]);
        let _ = comms[1].recv(0, 3);
        let (m0, m1) = (comms[0].metrics(), comms[1].metrics());
        assert_eq!((m0.messages_sent, m0.bytes_sent), (1, 100));
        assert_eq!((m1.messages_received, m1.bytes_received), (1, 100));
    }

    #[test]
    fn single_rank_world_works() {
        let got = run_threads(1, |comm| {
            comm.send(0, 1, vec![42]);
            comm.recv(0, 1)
        });
        assert_eq!(got, vec![vec![42]]);
    }

    #[test]
    fn heavy_traffic_no_loss() {
        let got = run_threads(4, |comm| {
            let n = 500usize;
            for i in 0..n {
                for dst in 0..comm.size() {
                    comm.send(dst, (i % 7) as u64, vec![(i % 251) as u8]);
                }
            }
            let mut sum = 0u64;
            for i in 0..n {
                for src in 0..comm.size() {
                    let v = comm.recv(src, (i % 7) as u64);
                    sum += v[0] as u64;
                }
            }
            sum
        });
        let expected: u64 = (0..500u64).map(|i| (i % 251) * 4).sum();
        assert!(got.iter().all(|&g| g == expected));
    }
}
