//! Collective operations over a [`Communicator`].
//!
//! Every collective is one all-to-all round: [`alltoallv_take_into`], the
//! primitive every step's exchange runs, sends exactly one message on every
//! ordered rank pair. [`allgatherv`] posts this rank's bytes to every rank;
//! a reduction is an allgather that every rank folds in rank order, so
//! every rank folds the same sequence and returns the same result. A round
//! costs `P²` messages; at the few thread-ranks of this in-process world
//! that is one hop where a tree would take `log P`.
//!
//! All collectives must be called by **every** member of the communicator
//! in the same order (the usual MPI rule). Messages carry no tag: every
//! collective sends one message per rank pair, so under that rule the k-th
//! message a rank takes from a peer is the k-th one the peer sent it.

use crate::comm::{Communicator, ReduceOp};
use crate::payload::WirePayload;

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
// allgather and reductions
// ---------------------------------------------------------------------------

/// All ranks receive every rank's payload, in rank order: one all-to-all
/// round that posts `data` to every rank. This rank's own message is
/// moved; the others are copies.
pub fn allgatherv(comm: &Communicator, data: Vec<u8>) -> Vec<Vec<u8>> {
    let mut outgoing = vec![data.clone(); comm.size() - 1];
    outgoing.insert(comm.rank(), data);
    let mut incoming = Vec::with_capacity(comm.size());
    alltoallv_take_into(comm, &mut outgoing, &mut incoming);
    incoming
}

/// Element-wise allreduce of equal-length `u64` vectors.
pub fn allreduce_vec_u64(comm: &Communicator, mine: &[u64], op: ReduceOp) -> Vec<u64> {
    let mut out = Vec::new();
    allreduce_vec_u64_into(comm, mine, op, &mut out);
    out
}

/// [`allreduce_vec_u64`] into a caller-owned vector (cleared, capacity
/// retained). The round's messages are allocated per call.
pub fn allreduce_vec_u64_into(comm: &Communicator, mine: &[u64], op: ReduceOp, out: &mut Vec<u64>) {
    let parts = allgatherv(comm, encode_u64s(mine));
    decode_u64s_into(&parts[0], out);
    for part in &parts[1..] {
        assert_eq!(
            part.len(),
            out.len() * 8,
            "allreduce_vec_u64 length mismatch"
        );
        for (x, c) in out.iter_mut().zip(part.chunks_exact(8)) {
            *x = op.fold_u64(*x, u64::from_le_bytes(c.try_into().unwrap()));
        }
    }
}

/// Scalar u64 allreduce.
pub fn allreduce_u64(comm: &Communicator, mine: u64, op: ReduceOp) -> u64 {
    allreduce_vec_u64(comm, &[mine], op)[0]
}

// ---------------------------------------------------------------------------
// alltoallv
// ---------------------------------------------------------------------------

/// Personalized all-to-all: `outgoing[d]` goes to rank `d`, and `incoming`
/// (cleared, capacity retained) receives the payload of every rank, in
/// rank order. Zero-length payloads are delivered too (they serve as
/// "nothing for you" markers). Generic over the wire lane — byte buffers
/// or typed particle buffers. Each payload is *taken* out of `outgoing`
/// (replaced by an empty buffer, so the outer vector and its slots survive
/// for reuse). The payload buffers themselves still move into the
/// transport — channel ownership transfer, like an MPI send buffer — but
/// receivers can recycle the buffers they get, so a steady-state exchange
/// *circulates* capacity instead of allocating it.
pub fn alltoallv_take_into<P: WirePayload>(
    comm: &Communicator,
    outgoing: &mut [P],
    incoming: &mut Vec<P>,
) {
    assert_eq!(
        outgoing.len(),
        comm.size(),
        "alltoallv needs one payload per rank"
    );
    // Sends never block: every message is posted before the first receive.
    for (dst, payload) in outgoing.iter_mut().enumerate() {
        comm.send(dst, std::mem::replace(payload, P::empty()));
    }
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
            let maxs = run_threads(p, |comm| {
                allreduce_u64(&comm, comm.rank() as u64 + 5, ReduceOp::Max)
            });
            assert!(maxs.iter().all(|&m| m == (p + 4) as u64));
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
    fn alltoallv_personalized_exchange() {
        let got = run_threads(4, |comm| {
            let mut outgoing: Vec<Vec<u8>> =
                (0..4).map(|d| vec![(10 * comm.rank() + d) as u8]).collect();
            let mut incoming = Vec::new();
            alltoallv_take_into(&comm, &mut outgoing, &mut incoming);
            incoming
        });
        for (r, incoming) in got.into_iter().enumerate() {
            for (s, payload) in incoming.into_iter().enumerate() {
                assert_eq!(payload, vec![(10 * s + r) as u8]);
            }
        }
    }

    #[test]
    fn take_into_matches_alltoallv_and_takes_the_payloads() {
        let got = run_threads(4, |comm| {
            let mut outgoing: Vec<Vec<u8>> =
                (0..4).map(|d| vec![(10 * comm.rank() + d) as u8]).collect();
            let mut incoming: Vec<Vec<u8>> = vec![vec![9; 3]];
            alltoallv_take_into(&comm, &mut outgoing, &mut incoming);
            assert!(outgoing.iter().all(|p| p.is_empty()), "payloads taken");
            incoming
        });
        for (r, incoming) in got.into_iter().enumerate() {
            let want: Vec<Vec<u8>> = (0..4).map(|s| vec![(10 * s + r) as u8]).collect();
            assert_eq!(incoming, want);
        }
        let single = run_threads(1, |comm| {
            let mut incoming: Vec<Vec<u8>> = Vec::new();
            alltoallv_take_into(&comm, &mut [Vec::<u8>::new()], &mut incoming);
            incoming
        });
        assert_eq!(single[0], vec![Vec::<u8>::new()]);
    }

    #[test]
    fn fifo_across_collectives() {
        // 200 mixed collectives back to back, each rank entering every one
        // after a delay of its own, so ranks run up to a round apart and a
        // mailbox can hold two collectives' messages at once. Each message
        // must still land in its own collective. The world runs under a
        // 10 s watchdog.
        let p = 4;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let got = run_threads(p, |comm| {
                let me = comm.rank();
                let mut incoming: Vec<Vec<u8>> = Vec::new();
                for i in 0..200usize {
                    let delay = (i + me) % p * 50;
                    std::thread::sleep(std::time::Duration::from_micros(delay as u64));
                    let mark = i as u64;
                    match i % 4 {
                        0 => {
                            let got = allreduce_vec_u64(&comm, &[mark, me as u64], ReduceOp::Sum);
                            assert_eq!(got, vec![p as u64 * mark, 6], "round {i}");
                        }
                        1 => {
                            let got = allgatherv(&comm, vec![i as u8, me as u8]);
                            let want: Vec<Vec<u8>> =
                                (0..p as u8).map(|s| vec![i as u8, s]).collect();
                            assert_eq!(got, want, "round {i}");
                        }
                        2 => {
                            let mut outgoing: Vec<Vec<u8>> =
                                (0..p as u8).map(|d| vec![i as u8, me as u8, d]).collect();
                            alltoallv_take_into(&comm, &mut outgoing, &mut incoming);
                            let want: Vec<Vec<u8>> =
                                (0..p as u8).map(|s| vec![i as u8, s, me as u8]).collect();
                            assert_eq!(incoming, want, "round {i}");
                        }
                        _ => {
                            let got = allreduce_u64(&comm, mark + me as u64, ReduceOp::Max);
                            assert_eq!(got, mark + p as u64 - 1, "round {i}");
                        }
                    }
                }
            });
            tx.send(got)
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the world hung or a rank panicked");
    }
}
