//! Collective operations over a [`Communicator`].
//!
//! Implemented with the classic binomial-tree algorithms on top of
//! point-to-point messages — the same structure an MPI
//! implementation uses — so message counts scale as `O(P log P)` per
//! collective and the substrate exercises realistic traffic patterns.
//!
//! All collectives must be called by **every** member of the communicator
//! in the same order (the usual MPI rule; for the split-phase all-to-all,
//! the start and the finish each count). Messages carry no tag: each
//! collective has a fixed message pattern, so under that rule the k-th
//! message a rank takes from a peer is the k-th one the peer sent it.

use crate::comm::{Communicator, ReduceOp};
use crate::payload::{PayloadKind, WirePayload};

// ---------------------------------------------------------------------------
// byte codecs
// ---------------------------------------------------------------------------

/// Encode a slice of `u64` little-endian.
pub fn encode_u64s(v: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Decode a buffer of `u64`s; panics on misaligned input (protocol bug).
pub fn decode_u64s(buf: &[u8]) -> Vec<u64> {
    let mut out = Vec::new();
    decode_u64s_into(buf, &mut out);
    out
}

/// [`decode_u64s`] into a caller-owned vector (cleared, capacity retained)
/// — the hot collective paths use this to avoid a per-call allocation.
pub fn decode_u64s_into(buf: &[u8], out: &mut Vec<u64>) {
    assert_eq!(buf.len() % 8, 0, "u64 buffer misaligned");
    out.clear();
    out.extend(
        buf.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
    );
}

// ---------------------------------------------------------------------------
// broadcast
// ---------------------------------------------------------------------------

/// Binomial-tree broadcast from `root`. Every rank returns the payload.
pub fn broadcast(comm: &Communicator, root: usize, data: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::new();
    broadcast_visit(comm, root, data, |b| out = b.to_vec());
    out
}

/// Binomial-tree broadcast from `root` where each rank consumes the
/// payload **by reference** via `visit` instead of keeping it: receive
/// leg, visit, send leg. Because the buffer is dead after the forwarding
/// sends, the last child send *moves* it instead of cloning. The hot
/// allreduce paths pair this with the `_into` decoders.
pub fn broadcast_visit<F: FnOnce(&[u8])>(
    comm: &Communicator,
    root: usize,
    data: Vec<u8>,
    visit: F,
) {
    let size = comm.size();
    let rank = comm.rank();
    let vrank = (rank + size - root) % size;
    let to_real = |v: usize| (v + root) % size;

    let mut payload = data;
    let mut mask = 1usize;
    while mask < size {
        if vrank & mask != 0 {
            payload = comm.recv(to_real(vrank - mask));
            break;
        }
        mask <<= 1;
    }
    visit(&payload);
    let mut m = mask >> 1;
    while m > 0 {
        if vrank + m < size {
            // If any child exists, a child at m == 1 exists too, so the
            // m == 1 send is always the last one.
            if m == 1 {
                comm.send(to_real(vrank + 1), payload);
                return;
            }
            comm.send(to_real(vrank + m), payload.clone());
        }
        m >>= 1;
    }
}

// ---------------------------------------------------------------------------
// gather / allgather
// ---------------------------------------------------------------------------

/// Gather variable-length byte payloads to `root`. Returns `Some(vec of
/// per-rank payloads in rank order)` at root, `None` elsewhere.
pub fn gatherv(comm: &Communicator, root: usize, data: Vec<u8>) -> Option<Vec<Vec<u8>>> {
    let rank = comm.rank();
    let size = comm.size();
    if rank == root {
        let mut own = Some(data);
        let mut out = Vec::with_capacity(size);
        for src in 0..size {
            if src == root {
                out.push(own.take().unwrap());
            } else {
                out.push(comm.recv(src));
            }
        }
        Some(out)
    } else {
        comm.send(root, data);
        None
    }
}

/// All ranks receive every rank's payload, in rank order.
pub fn allgatherv(comm: &Communicator, data: Vec<u8>) -> Vec<Vec<u8>> {
    let gathered = gatherv(comm, 0, data);
    // Flatten with length prefixes for the broadcast leg.
    let packed = if comm.rank() == 0 {
        let parts = gathered.unwrap();
        let mut buf = Vec::new();
        for p in &parts {
            buf.extend_from_slice(&(p.len() as u64).to_le_bytes());
            buf.extend_from_slice(p);
        }
        buf
    } else {
        Vec::new()
    };
    let mut out = Vec::with_capacity(comm.size());
    broadcast_visit(comm, 0, packed, |buf| {
        let mut off = 0usize;
        while off < buf.len() {
            let len = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap()) as usize;
            off += 8;
            out.push(buf[off..off + len].to_vec());
            off += len;
        }
    });
    assert_eq!(out.len(), comm.size(), "allgatherv framing corrupt");
    out
}

// ---------------------------------------------------------------------------
// reductions
// ---------------------------------------------------------------------------

fn reduce_bytes<F>(comm: &Communicator, root: usize, mine: Vec<u8>, mut fold: F) -> Option<Vec<u8>>
where
    F: FnMut(Vec<u8>, Vec<u8>) -> Vec<u8>,
{
    let size = comm.size();
    let rank = comm.rank();
    let vrank = (rank + size - root) % size;
    let to_real = |v: usize| (v + root) % size;

    let mut acc = mine;
    let mut mask = 1usize;
    while mask < size {
        if vrank & mask == 0 {
            let peer = vrank | mask;
            if peer < size {
                let theirs = comm.recv(to_real(peer));
                acc = fold(acc, theirs);
            }
        } else {
            comm.send(to_real(vrank & !mask), acc);
            return None;
        }
        mask <<= 1;
    }
    Some(acc)
}

/// Element-wise reduction of equal-length `u64` vectors to `root`. The
/// fold rewrites the accumulator's byte buffer in place — no per-fold
/// decode/encode allocations.
pub fn reduce_vec_u64(
    comm: &Communicator,
    root: usize,
    mine: &[u64],
    op: ReduceOp,
) -> Option<Vec<u64>> {
    let n = mine.len();
    let mut bv: Vec<u64> = Vec::new();
    reduce_bytes(comm, root, encode_u64s(mine), move |mut a, b| {
        decode_u64s_into(&b, &mut bv);
        assert_eq!(a.len(), n * 8, "reduce_vec_u64 length mismatch");
        assert_eq!(bv.len(), n, "reduce_vec_u64 length mismatch");
        for (chunk, y) in a.chunks_exact_mut(8).zip(&bv) {
            let x = u64::from_le_bytes(chunk.try_into().unwrap());
            chunk.copy_from_slice(&op.fold_u64(x, *y).to_le_bytes());
        }
        a
    })
    .map(|b| decode_u64s(&b))
}

/// Element-wise allreduce of equal-length `u64` vectors.
pub fn allreduce_vec_u64(comm: &Communicator, mine: &[u64], op: ReduceOp) -> Vec<u64> {
    let mut out = Vec::new();
    allreduce_vec_u64_into(comm, mine, op, &mut out);
    out
}

/// [`allreduce_vec_u64`] into a caller-owned vector (cleared, capacity
/// retained) — the per-step load aggregations use this to stay
/// allocation-free in steady state.
pub fn allreduce_vec_u64_into(comm: &Communicator, mine: &[u64], op: ReduceOp, out: &mut Vec<u64>) {
    let reduced = reduce_vec_u64(comm, 0, mine, op);
    let packed = reduced.map(|v| encode_u64s(&v)).unwrap_or_default();
    broadcast_visit(comm, 0, packed, |b| decode_u64s_into(b, out));
}

/// Scalar u64 allreduce.
pub fn allreduce_u64(comm: &Communicator, mine: u64, op: ReduceOp) -> u64 {
    allreduce_vec_u64(comm, &[mine], op)[0]
}

/// Scalar f64 allreduce (deterministic fold order: fixed binomial tree).
pub fn allreduce_f64(comm: &Communicator, mine: f64, op: ReduceOp) -> f64 {
    let reduced = reduce_bytes(comm, 0, mine.to_le_bytes().to_vec(), move |a, b| {
        let x = f64::from_le_bytes(a.try_into().unwrap());
        let y = f64::from_le_bytes(b.try_into().unwrap());
        op.fold_f64(x, y).to_le_bytes().to_vec()
    });
    let mut out = 0.0;
    broadcast_visit(comm, 0, reduced.unwrap_or_default(), |b| {
        out = f64::from_le_bytes(b.try_into().unwrap())
    });
    out
}

/// u128 allreduce (for the id checksum, which can exceed u64).
pub fn allreduce_u128(comm: &Communicator, mine: u128, op: ReduceOp) -> u128 {
    let reduced = reduce_bytes(comm, 0, mine.to_le_bytes().to_vec(), move |a, b| {
        let x = u128::from_le_bytes(a.try_into().unwrap());
        let y = u128::from_le_bytes(b.try_into().unwrap());
        op.fold_u128(x, y).to_le_bytes().to_vec()
    });
    let mut out = 0;
    broadcast_visit(comm, 0, reduced.unwrap_or_default(), |b| {
        out = u128::from_le_bytes(b.try_into().unwrap())
    });
    out
}

// ---------------------------------------------------------------------------
// alltoallv
// ---------------------------------------------------------------------------

/// Personalized all-to-all: `outgoing[d]` goes to rank `d`; returns the
/// payload received from every rank (in rank order). Zero-length payloads
/// are delivered too (they serve as "nothing for you" markers). Generic
/// over the wire lane — byte buffers or typed particle buffers.
pub fn alltoallv<P: WirePayload>(comm: &Communicator, outgoing: Vec<P>) -> Vec<P> {
    let mut outgoing = outgoing;
    let mut incoming = Vec::new();
    alltoallv_take_into(comm, &mut outgoing, &mut incoming);
    incoming
}

/// [`alltoallv`] with caller-owned scratch on both sides: each payload is
/// *taken* out of `outgoing` (replaced by an empty buffer, so the outer
/// vector and its slots survive for reuse) and arrivals land in
/// `incoming` (cleared, capacity retained). The payload buffers
/// themselves still move into the transport — channel ownership transfer,
/// like an MPI send buffer — but receivers can recycle the buffers they
/// get, so a steady-state exchange *circulates* capacity instead of
/// allocating it.
pub fn alltoallv_take_into<P: WirePayload>(
    comm: &Communicator,
    outgoing: &mut [P],
    incoming: &mut Vec<P>,
) {
    let handle = alltoallv_start(comm, outgoing);
    alltoallv_finish_into(comm, handle, incoming);
}

/// Completion handle for an in-flight (split-phase) all-to-all. All sends
/// have been posted when the handle exists; dropping it without calling
/// [`alltoallv_finish_into`] leaves its messages at the head of the
/// mailboxes, where the next collective would take them, so it is
/// `#[must_use]`.
#[derive(Debug)]
#[must_use = "an alltoallv start must be completed with alltoallv_finish_into"]
pub struct AlltoallvHandle {
    /// Wire lane the start call put on the wire; the finish call must
    /// claim the same lane (asserted) — the receives would otherwise
    /// panic deep in the payload layer or, worse, mis-deliver.
    payload_kind: PayloadKind,
}

/// Start a split-phase all-to-all: `outgoing[d]` is surrendered to the
/// transport (replaced by `P::empty()`) and sent to rank `d` — including
/// empty payloads, which serve as "nothing for you" markers. Sends never
/// block, so the call returns without waiting for any peer: the caller can
/// compute while the messages are in flight and complete the receives
/// later with [`alltoallv_finish_into`] naming the same lane.
pub fn alltoallv_start<P: WirePayload>(comm: &Communicator, outgoing: &mut [P]) -> AlltoallvHandle {
    assert_eq!(
        outgoing.len(),
        comm.size(),
        "alltoallv needs one payload per rank"
    );
    for (dst, payload) in outgoing.iter_mut().enumerate() {
        comm.send(dst, std::mem::replace(payload, P::empty()));
    }
    AlltoallvHandle {
        payload_kind: P::KIND,
    }
}

/// Complete a split-phase all-to-all: receives one payload from every
/// rank, in rank order, into `incoming` (cleared, capacity retained).
pub fn alltoallv_finish_into<P: WirePayload>(
    comm: &Communicator,
    handle: AlltoallvHandle,
    incoming: &mut Vec<P>,
) {
    assert_eq!(
        handle.payload_kind,
        P::KIND,
        "alltoallv started on the {} lane but finished on the {} lane",
        handle.payload_kind.name(),
        P::KIND.name()
    );
    incoming.clear();
    incoming.extend((0..comm.size()).map(|src| comm.recv::<P>(src)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run_threads;

    #[test]
    fn codec_roundtrip() {
        let v = vec![0u64, 1, u64::MAX, 42];
        assert_eq!(decode_u64s(&encode_u64s(&v)), v);
    }

    #[test]
    fn codec_into_reuses_capacity() {
        let v = vec![3u64, 4, 5];
        let mut out = Vec::with_capacity(8);
        let cap = out.capacity();
        decode_u64s_into(&encode_u64s(&v), &mut out);
        assert_eq!(out, v);
        assert_eq!(out.capacity(), cap, "no reallocation under capacity");
    }

    #[test]
    fn broadcast_visit_matches_broadcast() {
        for p in [1usize, 2, 3, 5, 8] {
            for root in 0..p {
                let got = run_threads(p, move |comm| {
                    let data = if comm.rank() == root {
                        vec![7, root as u8]
                    } else {
                        Vec::new()
                    };
                    let mut seen = Vec::new();
                    broadcast_visit(&comm, root, data, |b| seen.extend_from_slice(b));
                    seen
                });
                for g in got {
                    assert_eq!(g, vec![7, root as u8]);
                }
            }
        }
    }

    #[test]
    fn allreduce_vec_into_reuses_scratch() {
        let got = run_threads(3, |comm| {
            let mut out = Vec::new();
            for step in 0..3u64 {
                let mine = vec![comm.rank() as u64 + step, 1];
                allreduce_vec_u64_into(&comm, &mine, ReduceOp::Sum, &mut out);
            }
            out
        });
        for out in got {
            assert_eq!(out, vec![3 + 3 * 2, 3]);
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for p in [1usize, 2, 3, 5, 8] {
            for root in 0..p {
                let got = run_threads(p, move |comm| {
                    let data = if comm.rank() == root {
                        vec![9, 9, root as u8]
                    } else {
                        Vec::new()
                    };
                    broadcast(&comm, root, data)
                });
                for g in got {
                    assert_eq!(g, vec![9, 9, root as u8]);
                }
            }
        }
    }

    #[test]
    fn gatherv_collects_in_rank_order() {
        let got = run_threads(5, |comm| {
            gatherv(&comm, 2, vec![comm.rank() as u8; comm.rank()])
        });
        for (r, g) in got.into_iter().enumerate() {
            if r == 2 {
                let parts = g.unwrap();
                assert_eq!(parts.len(), 5);
                for (i, p) in parts.iter().enumerate() {
                    assert_eq!(p, &vec![i as u8; i]);
                }
            } else {
                assert!(g.is_none());
            }
        }
    }

    #[test]
    fn allgatherv_everyone_sees_everything() {
        let got = run_threads(4, |comm| allgatherv(&comm, vec![comm.rank() as u8 + 10]));
        for g in got {
            assert_eq!(g, vec![vec![10], vec![11], vec![12], vec![13]]);
        }
    }

    #[test]
    fn allreduce_scalar_ops() {
        for p in [1usize, 2, 3, 6, 9] {
            let sums = run_threads(p, |comm| {
                allreduce_u64(&comm, comm.rank() as u64 + 1, ReduceOp::Sum)
            });
            assert!(sums.iter().all(|&s| s == (p * (p + 1) / 2) as u64));
            let mins = run_threads(p, |comm| {
                allreduce_u64(&comm, comm.rank() as u64 + 5, ReduceOp::Min)
            });
            assert!(mins.iter().all(|&m| m == 5));
            let maxs = run_threads(p, |comm| {
                allreduce_f64(&comm, comm.rank() as f64, ReduceOp::Max)
            });
            assert!(maxs.iter().all(|&m| m == (p - 1) as f64));
        }
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let got = run_threads(3, |comm| {
            let mine = vec![comm.rank() as u64, 10 * comm.rank() as u64, 1];
            allreduce_vec_u64(&comm, &mine, ReduceOp::Sum)
        });
        for g in got {
            assert_eq!(g, vec![3, 30, 3]);
        }
    }

    #[test]
    fn allreduce_u128_checksums() {
        let big = (u64::MAX as u128) * 3;
        let got = run_threads(4, move |comm| {
            allreduce_u128(&comm, big / 4 + comm.rank() as u128, ReduceOp::Sum)
        });
        let want = (big / 4) * 4 + 6;
        assert!(got.iter().all(|&g| g == want));
    }

    #[test]
    fn alltoallv_personalized_exchange() {
        let got = run_threads(4, |comm| {
            let outgoing: Vec<Vec<u8>> =
                (0..4).map(|d| vec![(10 * comm.rank() + d) as u8]).collect();
            alltoallv(&comm, outgoing)
        });
        for (r, incoming) in got.into_iter().enumerate() {
            for (s, payload) in incoming.into_iter().enumerate() {
                assert_eq!(payload, vec![(10 * s + r) as u8]);
            }
        }
    }

    #[test]
    fn dense_split_phase_matches_alltoallv() {
        let got = run_threads(4, |comm| {
            let mut outgoing: Vec<Vec<u8>> =
                (0..4).map(|d| vec![(10 * comm.rank() + d) as u8]).collect();
            let mut incoming: Vec<Vec<u8>> = Vec::new();
            let h = alltoallv_start(&comm, &mut outgoing);
            alltoallv_finish_into(&comm, h, &mut incoming);
            assert!(outgoing.iter().all(|p| p.is_empty()), "payloads taken");
            incoming
        });
        for (r, incoming) in got.into_iter().enumerate() {
            let want: Vec<Vec<u8>> = (0..4).map(|s| vec![(10 * s + r) as u8]).collect();
            assert_eq!(incoming, want);
        }
    }

    #[test]
    fn dense_split_phase_single_rank_and_empty() {
        let got = run_threads(1, |comm| {
            let mut outgoing = vec![Vec::<u8>::new()];
            let mut incoming: Vec<Vec<u8>> = Vec::new();
            let h = alltoallv_start(&comm, &mut outgoing);
            alltoallv_finish_into(&comm, h, &mut incoming);
            incoming
        });
        assert_eq!(got[0], vec![Vec::<u8>::new()]);
    }

    #[test]
    fn fifo_across_collectives() {
        // Rank 0 holds its first exchange open while the others finish it
        // and post their messages of three more collectives: every
        // mailbox into rank 0 queues four collectives deep before rank 0
        // takes the first, and each must still land in its own collective.
        // The others run the rooted halves of an allreduce and an
        // allgatherv (`reduce_vec_u64`, `gatherv` to rank 0), which never
        // wait on rank 0. A barrier outside the communicator forces the
        // order; the world runs under a 10 s watchdog.
        let p = 4;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let posted = std::sync::Barrier::new(p);
            let got = run_threads(p, |comm| {
                let me = comm.rank() as u8;
                let msgs = |mark: u8| -> Vec<Vec<u8>> {
                    (0..p as u8).map(|d| vec![mark, me, d]).collect()
                };
                let mut first: Vec<Vec<u8>> = Vec::new();
                let mut second: Vec<Vec<u8>> = Vec::new();
                let h1 = alltoallv_start(&comm, &mut msgs(1));
                if me == 0 {
                    posted.wait();
                }
                alltoallv_finish_into(&comm, h1, &mut first);
                let sum = reduce_vec_u64(&comm, 0, &[me as u64, 1], ReduceOp::Sum);
                let gathered = gatherv(&comm, 0, vec![3, me]);
                let h2 = alltoallv_start(&comm, &mut msgs(2));
                if me != 0 {
                    posted.wait();
                }
                alltoallv_finish_into(&comm, h2, &mut second);
                (first, sum, gathered, second)
            });
            tx.send(got)
        });
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the world hung or a rank panicked");
        for (r, (first, sum, gathered, second)) in got.into_iter().enumerate() {
            let want = |mark: u8| -> Vec<Vec<u8>> {
                (0..p as u8).map(|s| vec![mark, s, r as u8]).collect()
            };
            assert_eq!(first, want(1), "rank {r}: first exchange");
            assert_eq!(second, want(2), "rank {r}: second exchange");
            if r == 0 {
                assert_eq!(sum, Some(vec![6, 4]));
                let parts: Vec<Vec<u8>> = (0..p as u8).map(|s| vec![3, s]).collect();
                assert_eq!(gathered, Some(parts));
            } else {
                assert_eq!((sum, gathered), (None, None));
            }
        }
    }

    #[test]
    #[should_panic(expected = "started on the typed lane but finished on the bytes lane")]
    fn lane_mismatch_between_start_and_finish_is_loud() {
        // Single-rank world on the test thread itself, so the panic is the
        // test's own (run_threads would wrap a rank-thread panic).
        let comm = Communicator::new(crate::world::World::new(1), 0);
        let mut outgoing: Vec<Vec<pic_core::particle::Particle>> = vec![Vec::new()];
        let mut incoming: Vec<Vec<u8>> = Vec::new();
        let h = alltoallv_start(&comm, &mut outgoing);
        alltoallv_finish_into(&comm, h, &mut incoming);
    }
}
