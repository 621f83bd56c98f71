//! Collective operations over a [`Communicator`].
//!
//! Implemented with the classic binomial-tree / dissemination algorithms on
//! top of point-to-point messages — the same structure an MPI
//! implementation uses — so message counts scale as `O(P log P)` per
//! collective and the substrate exercises realistic traffic patterns.
//!
//! All collectives must be called by **every** member of the communicator
//! in the same order (the usual MPI rule); tag-sequence bookkeeping relies
//! on it.

use crate::comm::{splitmix64, Communicator, ReduceOp};

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

/// Encode a slice of `f64` little-endian (bit-exact).
pub fn encode_f64s(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Decode a buffer of `f64`s.
pub fn decode_f64s(buf: &[u8]) -> Vec<f64> {
    let mut out = Vec::new();
    decode_f64s_into(buf, &mut out);
    out
}

/// [`decode_f64s`] into a caller-owned vector (cleared, capacity retained).
pub fn decode_f64s_into(buf: &[u8], out: &mut Vec<f64>) {
    assert_eq!(buf.len() % 8, 0, "f64 buffer misaligned");
    out.clear();
    out.extend(
        buf.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap())),
    );
}

// ---------------------------------------------------------------------------
// barrier
// ---------------------------------------------------------------------------

/// Dissemination barrier: `⌈log₂ P⌉` rounds of pairwise signals.
pub fn barrier(comm: &Communicator) {
    let base = comm.next_coll_base();
    let size = comm.size();
    let rank = comm.rank();
    if size == 1 {
        return;
    }
    let mut round = 0u64;
    let mut dist = 1usize;
    while dist < size {
        let dst = (rank + dist) % size;
        let src = (rank + size - dist) % size;
        comm.send_coll(dst, base + round, Vec::<u8>::new());
        let _: Vec<u8> = comm.recv_coll(src, base + round);
        dist <<= 1;
        round += 1;
    }
}

// ---------------------------------------------------------------------------
// broadcast
// ---------------------------------------------------------------------------

/// Binomial-tree broadcast from `root`. Every rank returns the payload.
pub fn broadcast(comm: &Communicator, root: usize, data: Vec<u8>) -> Vec<u8> {
    let mut payload = data;
    bcast_tree(comm, root, &mut payload, None::<fn(&[u8])>);
    payload
}

/// Broadcast where each rank consumes the payload **by reference** via
/// `visit` instead of keeping it. Because the buffer is dead after the
/// forwarding sends, the last child send *moves* it instead of cloning —
/// one fewer full-payload copy per forwarding rank than [`broadcast`].
/// The hot allreduce paths pair this with the `_into` decoders.
pub fn broadcast_visit<F: FnOnce(&[u8])>(
    comm: &Communicator,
    root: usize,
    data: Vec<u8>,
    visit: F,
) {
    let mut payload = data;
    bcast_tree(comm, root, &mut payload, Some(visit));
}

/// Shared binomial tree: receive leg, optional in-place consumption, send
/// leg. With a visitor the payload's last use is the final child send, so
/// that send takes the buffer by value; without one the payload must
/// survive for the caller, so every child send clones.
fn bcast_tree<F: FnOnce(&[u8])>(
    comm: &Communicator,
    root: usize,
    payload: &mut Vec<u8>,
    visit: Option<F>,
) {
    let base = comm.next_coll_base();
    let size = comm.size();
    let rank = comm.rank();
    if size == 1 {
        if let Some(v) = visit {
            v(payload);
        }
        return;
    }
    let vrank = (rank + size - root) % size;
    let to_real = |v: usize| (v + root) % size;

    let mut mask = 1usize;
    while mask < size {
        if vrank & mask != 0 {
            *payload = comm.recv_coll(to_real(vrank - mask), base);
            break;
        }
        mask <<= 1;
    }
    let retain = visit.is_none();
    if let Some(v) = visit {
        v(payload);
    }
    let mut m = mask >> 1;
    while m > 0 {
        if vrank + m < size {
            // If any child exists, a child at m == 1 exists too, so the
            // m == 1 send is always the last one.
            if m == 1 && !retain {
                comm.send_coll(to_real(vrank + 1), base, std::mem::take(payload));
                return;
            }
            comm.send_coll(to_real(vrank + m), base, payload.clone());
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
    let base = comm.next_coll_base();
    let rank = comm.rank();
    let size = comm.size();
    if rank == root {
        let mut own = Some(data);
        let mut out = Vec::with_capacity(size);
        for src in 0..size {
            if src == root {
                out.push(own.take().unwrap());
            } else {
                out.push(comm.recv_coll(src, base));
            }
        }
        Some(out)
    } else {
        comm.send_coll(root, base, data);
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
    let base = comm.next_coll_base();
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
                let theirs = comm.recv_coll(to_real(peer), base);
                acc = fold(acc, theirs);
            }
        } else {
            comm.send_coll(to_real(vrank & !mask), base, acc);
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

/// Element-wise allreduce of equal-length `f64` vectors (deterministic
/// fold order: fixed binomial tree).
pub fn allreduce_vec_f64(comm: &Communicator, mine: &[f64], op: ReduceOp) -> Vec<f64> {
    let mut out = Vec::new();
    allreduce_vec_f64_into(comm, mine, op, &mut out);
    out
}

/// [`allreduce_vec_f64`] into a caller-owned vector (cleared, capacity
/// retained). The fold rewrites the accumulator's bytes in place.
pub fn allreduce_vec_f64_into(comm: &Communicator, mine: &[f64], op: ReduceOp, out: &mut Vec<f64>) {
    let n = mine.len();
    let mut bv: Vec<f64> = Vec::new();
    let reduced = reduce_bytes(comm, 0, encode_f64s(mine), move |mut a, b| {
        decode_f64s_into(&b, &mut bv);
        assert_eq!(a.len(), n * 8);
        for (chunk, y) in a.chunks_exact_mut(8).zip(&bv) {
            let x = f64::from_le_bytes(chunk.try_into().unwrap());
            chunk.copy_from_slice(&op.fold_f64(x, *y).to_le_bytes());
        }
        a
    });
    let packed = reduced.unwrap_or_default();
    broadcast_visit(comm, 0, packed, |b| decode_f64s_into(b, out));
}

/// Scalar f64 allreduce.
pub fn allreduce_f64(comm: &Communicator, mine: f64, op: ReduceOp) -> f64 {
    allreduce_vec_f64(comm, &[mine], op)[0]
}

/// u128 allreduce (for the id checksum, which can exceed u64).
pub fn allreduce_u128(comm: &Communicator, mine: u128, op: ReduceOp) -> u128 {
    let reduced = reduce_bytes(comm, 0, mine.to_le_bytes().to_vec(), move |a, b| {
        let x = u128::from_le_bytes(a.try_into().unwrap());
        let y = u128::from_le_bytes(b.try_into().unwrap());
        op.fold_u128(x, y).to_le_bytes().to_vec()
    });
    let packed = reduced.unwrap_or_default();
    u128::from_le_bytes(broadcast(comm, 0, packed).try_into().unwrap())
}

/// Logical AND allreduce (verification merging).
pub fn allreduce_bool_and(comm: &Communicator, mine: bool) -> bool {
    allreduce_u64(comm, mine as u64, ReduceOp::Min) == 1
}

// ---------------------------------------------------------------------------
// scans
// ---------------------------------------------------------------------------

/// Inclusive prefix reduction: rank `r` receives `fold(v₀, …, v_r)`.
/// Linear-chain algorithm (deterministic order, O(P) latency — scans are
/// off the per-step critical path in this kernel).
pub fn scan_u64(comm: &Communicator, mine: u64, op: ReduceOp) -> u64 {
    let base = comm.next_coll_base();
    let rank = comm.rank();
    let mut acc = mine;
    if rank > 0 {
        let buf: Vec<u8> = comm.recv_coll(rank - 1, base);
        let upstream = u64::from_le_bytes(buf[..8].try_into().unwrap());
        acc = op.fold_u64(upstream, acc);
    }
    if rank + 1 < comm.size() {
        comm.send_coll(rank + 1, base, encode_u64s(&[acc]));
    }
    acc
}

/// Exclusive prefix sum: rank `r` receives `Σ_{q<r} v_q` (0 at rank 0).
/// The classic offset computation for ordered global ids.
pub fn exscan_sum_u64(comm: &Communicator, mine: u64) -> u64 {
    let inclusive = scan_u64(comm, mine, ReduceOp::Sum);
    inclusive - mine
}

// ---------------------------------------------------------------------------
// reduce_scatter
// ---------------------------------------------------------------------------

/// Element-wise sum of per-rank `u64` vectors of length `P`, scattering
/// element `r` to rank `r` — the one-call form of the diffusion balancer's
/// "every processor column learns its own aggregated count".
///
/// Pairwise recursive-halving algorithm: the exchanged data volume halves
/// every round, so no rank ever materializes the full reduced `P`-vector
/// (unlike the allreduce-based oracle,
/// [`reduce_scatter_sum_u64_via_allreduce`]). Non-power-of-two sizes fold
/// the top `P - 2^k` ranks into partners first and scatter their slots
/// back at the end.
pub fn reduce_scatter_sum_u64(comm: &Communicator, mine: &[u64]) -> u64 {
    let size = comm.size();
    assert_eq!(mine.len(), size, "one element per rank");
    if size == 1 {
        return mine[0];
    }
    let base = comm.next_coll_base();
    let rank = comm.rank();
    let pow2 = if size.is_power_of_two() {
        size
    } else {
        size.next_power_of_two() >> 1
    };
    let rem = size - pow2;
    // Tag layout: base for the pre-phase, base + 1 + round for the halving
    // rounds (round < 20), base + 30 for the post-phase scatter.
    const POST_TAG: u64 = 30;

    let mut acc: Vec<u64> = mine.to_vec();
    if rank >= pow2 {
        // Fold into the partner, then wait for our scattered slot.
        comm.send_coll(rank - pow2, base, encode_u64s(&acc));
        let buf: Vec<u8> = comm.recv_coll(rank - pow2, base + POST_TAG);
        return u64::from_le_bytes(buf[..8].try_into().unwrap());
    }
    if rank < rem {
        let theirs: Vec<u8> = comm.recv_coll(rank + pow2, base);
        assert_eq!(theirs.len(), size * 8, "reduce_scatter framing");
        for (x, chunk) in acc.iter_mut().zip(theirs.chunks_exact(8)) {
            *x += u64::from_le_bytes(chunk.try_into().unwrap());
        }
    }

    // Group range [a, b) owns final slots a..b plus the slots of the
    // pre-folded ranks a+pow2..min(b+pow2, size), serialized ascending.
    let push_slots = |a: usize, b: usize, acc: &[u64], out: &mut Vec<u8>| {
        for i in (a..b).chain(a + pow2..(b + pow2).min(size)) {
            out.extend_from_slice(&acc[i].to_le_bytes());
        }
    };
    let mut lo = 0usize;
    let mut len = pow2;
    let mut round = 1u64;
    while len > 1 {
        let half = len / 2;
        let lower = rank < lo + half;
        let (my_a, my_b, their_a, their_b) = if lower {
            (lo, lo + half, lo + half, lo + len)
        } else {
            (lo + half, lo + len, lo, lo + half)
        };
        let partner = if lower { rank + half } else { rank - half };
        let mut buf = Vec::new();
        push_slots(their_a, their_b, &acc, &mut buf);
        comm.send_coll(partner, base + round, buf);
        let got: Vec<u8> = comm.recv_coll(partner, base + round);
        let mut chunks = got.chunks_exact(8);
        for i in (my_a..my_b).chain(my_a + pow2..(my_b + pow2).min(size)) {
            let c = chunks.next().expect("reduce_scatter framing");
            acc[i] += u64::from_le_bytes(c.try_into().unwrap());
        }
        assert!(chunks.next().is_none(), "reduce_scatter framing");
        lo = my_a;
        len = half;
        round += 1;
    }
    debug_assert_eq!(lo, rank);
    if rank < rem {
        comm.send_coll(
            rank + pow2,
            base + POST_TAG,
            acc[rank + pow2].to_le_bytes().to_vec(),
        );
    }
    acc[rank]
}

/// The pre-PR-8 implementation — a full vector allreduce followed by
/// picking one's own slot. Kept as the test oracle for the pairwise
/// algorithm above.
pub fn reduce_scatter_sum_u64_via_allreduce(comm: &Communicator, mine: &[u64]) -> u64 {
    assert_eq!(mine.len(), comm.size(), "one element per rank");
    let all = allreduce_vec_u64(comm, mine, ReduceOp::Sum);
    all[comm.rank()]
}

// ---------------------------------------------------------------------------
// sendrecv
// ---------------------------------------------------------------------------

/// Combined send+receive (deadlock-free pairwise exchange): sends `data`
/// to `dst` and returns the message received from `src`, both with `tag`.
pub fn sendrecv(comm: &Communicator, dst: usize, src: usize, tag: u64, data: Vec<u8>) -> Vec<u8> {
    comm.send(dst, tag, data);
    comm.recv(src, tag)
}

// ---------------------------------------------------------------------------
// alltoallv
// ---------------------------------------------------------------------------

/// Personalized all-to-all: `outgoing[d]` goes to rank `d`; returns the
/// payload received from every rank (in rank order). Zero-length payloads
/// are delivered too (they serve as "nothing for you" markers). Generic
/// over the wire lane — byte buffers or typed particle buffers.
pub fn alltoallv<P: crate::payload::WirePayload>(comm: &Communicator, outgoing: Vec<P>) -> Vec<P> {
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
pub fn alltoallv_take_into<P: crate::payload::WirePayload>(
    comm: &Communicator,
    outgoing: &mut [P],
    incoming: &mut Vec<P>,
) {
    let handle = crate::sparse::alltoallv_start(comm, outgoing);
    crate::sparse::alltoallv_finish_into(comm, handle, incoming);
}

// ---------------------------------------------------------------------------
// split
// ---------------------------------------------------------------------------

/// Collective communicator split: ranks with equal `color` form a new
/// communicator, ordered by `(key, old rank)`. Analogous to
/// `MPI_Comm_split`.
pub fn split(comm: &Communicator, color: u64, key: u64) -> Communicator {
    let seq = comm.next_split_seq();
    let triple = [color, key, comm.rank() as u64];
    let all = allgatherv(comm, encode_u64s(&triple));
    let mut members: Vec<(u64, usize)> = all
        .iter()
        .map(|b| decode_u64s(b))
        .filter(|t| t[0] == color)
        .map(|t| (t[1], t[2] as usize))
        .collect();
    members.sort_unstable();
    let my_rank = members
        .iter()
        .position(|&(_, r)| r == comm.rank())
        .expect("split: caller missing from its own color group");
    let world_members: Vec<usize> = members
        .iter()
        .map(|&(_, r)| comm.world_rank_of(r))
        .collect();
    let ctx = splitmix64(splitmix64(comm.ctx() ^ (seq << 32)) ^ color);
    Communicator::from_parts(
        comm.endpoint().clone(),
        ctx,
        std::sync::Arc::new(world_members),
        my_rank,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run_threads;

    #[test]
    fn codec_roundtrip() {
        let v = vec![0u64, 1, u64::MAX, 42];
        assert_eq!(decode_u64s(&encode_u64s(&v)), v);
        let f = vec![0.0f64, -1.5, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(decode_f64s(&encode_f64s(&f)), f);
    }

    #[test]
    fn codec_into_reuses_capacity() {
        let v = vec![3u64, 4, 5];
        let mut out = Vec::with_capacity(8);
        let cap = out.capacity();
        decode_u64s_into(&encode_u64s(&v), &mut out);
        assert_eq!(out, v);
        assert_eq!(out.capacity(), cap, "no reallocation under capacity");
        let f = vec![1.5f64, -2.5];
        let mut fout = Vec::with_capacity(4);
        decode_f64s_into(&encode_f64s(&f), &mut fout);
        assert_eq!(fout, f);
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
            let mut fout = Vec::new();
            for step in 0..3u64 {
                let mine = vec![comm.rank() as u64 + step, 1];
                allreduce_vec_u64_into(&comm, &mine, ReduceOp::Sum, &mut out);
                let fmine = vec![comm.rank() as f64];
                allreduce_vec_f64_into(&comm, &fmine, ReduceOp::Max, &mut fout);
            }
            (out, fout)
        });
        for (out, fout) in got {
            assert_eq!(out, vec![3 + 3 * 2, 3]);
            assert_eq!(fout, vec![2.0]);
        }
    }

    #[test]
    fn reduce_scatter_matches_allreduce_oracle() {
        for p in [1usize, 2, 3, 4, 5, 6, 7, 8] {
            let got = run_threads(p, move |comm| {
                let mine: Vec<u64> = (0..p)
                    .map(|i| (comm.rank() * 31 + i * 7 + 1) as u64)
                    .collect();
                let pairwise = reduce_scatter_sum_u64(&comm, &mine);
                let oracle = reduce_scatter_sum_u64_via_allreduce(&comm, &mine);
                (pairwise, oracle)
            });
            for (r, (pairwise, oracle)) in got.into_iter().enumerate() {
                assert_eq!(pairwise, oracle, "size {p} rank {r}");
            }
        }
    }

    #[test]
    fn barrier_completes_all_sizes() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            run_threads(p, |comm| {
                for _ in 0..3 {
                    barrier(&comm);
                }
            });
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
    fn bool_and_detects_any_false() {
        let got = run_threads(4, |comm| allreduce_bool_and(&comm, comm.rank() != 2));
        assert!(got.iter().all(|&g| !g));
        let got = run_threads(4, |comm| allreduce_bool_and(&comm, true));
        assert!(got.iter().all(|&g| g));
    }

    #[test]
    fn scan_inclusive_prefixes() {
        let got = run_threads(5, |comm| {
            scan_u64(&comm, comm.rank() as u64 + 1, ReduceOp::Sum)
        });
        assert_eq!(got, vec![1, 3, 6, 10, 15]);
        let got = run_threads(4, |comm| {
            scan_u64(&comm, 10 - comm.rank() as u64, ReduceOp::Min)
        });
        assert_eq!(got, vec![10, 9, 8, 7]);
    }

    #[test]
    fn exscan_offsets() {
        let got = run_threads(4, |comm| {
            exscan_sum_u64(&comm, (comm.rank() as u64 + 1) * 100)
        });
        assert_eq!(got, vec![0, 100, 300, 600]);
    }

    #[test]
    fn scan_single_rank() {
        let got = run_threads(1, |comm| scan_u64(&comm, 7, ReduceOp::Sum));
        assert_eq!(got, vec![7]);
    }

    #[test]
    fn reduce_scatter_gives_own_slot() {
        let got = run_threads(3, |comm| {
            let mine: Vec<u64> = (0..3).map(|i| (comm.rank() * 10 + i) as u64).collect();
            reduce_scatter_sum_u64(&comm, &mine)
        });
        // Element i summed over ranks: (0+10+20) + 3i = 30 + 3i.
        assert_eq!(got, vec![30, 33, 36]);
    }

    #[test]
    fn sendrecv_ring_shift() {
        let got = run_threads(5, |comm| {
            let p = comm.size();
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let back = sendrecv(&comm, right, left, 9, vec![comm.rank() as u8]);
            back[0]
        });
        assert_eq!(got, vec![4, 0, 1, 2, 3]);
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
    fn split_into_rows_and_columns() {
        // 2×3 grid: color by row then by column, reduce within each.
        let got = run_threads(6, |comm| {
            let row = comm.rank() / 3;
            let col = comm.rank() % 3;
            let row_comm = split(&comm, row as u64, col as u64);
            let col_comm = split(&comm, 100 + col as u64, row as u64);
            let row_sum = allreduce_u64(&row_comm, comm.rank() as u64, ReduceOp::Sum);
            let col_sum = allreduce_u64(&col_comm, comm.rank() as u64, ReduceOp::Sum);
            (row_comm.size(), col_comm.size(), row_sum, col_sum)
        });
        for (r, (rs, cs, row_sum, col_sum)) in got.into_iter().enumerate() {
            assert_eq!(rs, 3);
            assert_eq!(cs, 2);
            let row = r / 3;
            let col = r % 3;
            assert_eq!(row_sum, (3 * row) as u64 * 3 + 3, "row {row}");
            assert_eq!(col_sum, (col + col + 3) as u64);
        }
    }

    #[test]
    fn split_orders_by_key() {
        let got = run_threads(4, |comm| {
            // Reverse order: key = size - rank.
            let sub = split(&comm, 0, (comm.size() - comm.rank()) as u64);
            sub.rank()
        });
        assert_eq!(got, vec![3, 2, 1, 0]);
    }

    #[test]
    fn subcomm_messages_do_not_leak_to_parent() {
        run_threads(2, |comm| {
            let sub = split(&comm, 0, comm.rank() as u64);
            if comm.rank() == 0 {
                sub.send(1, 5, vec![1]);
                comm.send(1, 5, vec![2]);
            } else {
                // Receive in the opposite order: context isolation must
                // route each message to the right receive.
                assert_eq!(comm.recv(0, 5), vec![2]);
                assert_eq!(sub.recv(0, 5), vec![1]);
            }
        });
    }
}
