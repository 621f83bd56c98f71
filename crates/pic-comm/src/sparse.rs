//! Split-phase and sparse neighbor-aware personalized all-to-all.
//!
//! The dense [`crate::collective::alltoallv`] sends `P` messages per rank
//! per call — most of them empty markers, because particles hop at most a
//! few cells per step and so almost all traffic goes to the Cartesian
//! neighbors of the sending rank. This module provides:
//!
//! * a **split-phase** pair ([`alltoallv_start`] / [`alltoallv_finish_into`])
//!   so callers can launch the exchange, overlap computation, and complete
//!   the receives later;
//! * a **sparse** variant ([`alltoallv_sparse_start`] /
//!   [`alltoallv_sparse_finish_into`]) that first runs a small escape-flag
//!   dissemination ("did *any* rank produce a payload for a non-neighbor?"),
//!   then exchanges per-destination counts only with the plan's neighbors so
//!   **only non-empty payloads travel**. If the global escape flag is set
//!   (a fast particle hopped past the neighbor stencil) the call degrades
//!   to the dense pattern for that step — correctness never depends on the
//!   neighbor plan being adequate.
//!
//! Protocol tags within one collective tag block (`base = next_coll_base()`):
//! `base + round` for the escape dissemination rounds (`round < 20`),
//! `base + TAG_COUNT` for the 8-byte per-neighbor count messages,
//! `base + TAG_PAYLOAD` for non-empty neighbor payloads, and
//! `base + TAG_FALLBACK` for the dense-fallback payloads. All ranks make
//! the same dense/sparse decision (the escape flag is a global OR), so no
//! message can leak across steps.
//!
//! Small message buffers (escape flags, counts) cycle through a spare pool
//! in [`SparsePlan`], so a steady-state exchange allocates nothing.

use crate::comm::Communicator;
use crate::payload::{Payload, PayloadKind, WirePayload};

/// Tag offset of the per-neighbor count messages.
const TAG_COUNT: u64 = 32;
/// Tag offset of the non-empty neighbor payload messages.
const TAG_PAYLOAD: u64 = 33;
/// Tag offset of the dense-fallback payload messages.
const TAG_FALLBACK: u64 = 34;
/// Cap on pooled small-message buffers.
const MAX_SMALL_SPARES: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HandleKind {
    /// Dense split-phase: every rank sent `P` payloads on `base`.
    Dense,
    /// Sparse call that hit the escape flag: dense payloads on
    /// `base + TAG_FALLBACK`.
    Fallback,
    /// Sparse: counts to neighbors, payloads only where non-empty.
    Sparse,
}

/// Completion handle for an in-flight (split-phase) all-to-all. All sends
/// have been posted when the handle exists; dropping it without calling a
/// finish function strands the matching receives, so it is `#[must_use]`.
#[derive(Debug)]
#[must_use = "an alltoallv start must be completed with a finish call"]
pub struct AlltoallvHandle {
    base: u64,
    kind: HandleKind,
    /// Wire lane the start call put on the wire; the finish call must
    /// claim the same lane (asserted) — the receives would otherwise
    /// panic deep in the payload layer or, worse, mis-deliver.
    payload_kind: PayloadKind,
    sent: u64,
    skipped: u64,
}

impl AlltoallvHandle {
    /// Payload messages this rank put on the wire (the dense exchange
    /// always sends `P`, counting the self-delivery).
    pub fn messages_sent(&self) -> u64 {
        self.sent
    }

    /// Payload messages a dense exchange would have sent that the sparse
    /// protocol elided (zero for dense and escaped calls).
    pub fn messages_skipped(&self) -> u64 {
        self.skipped
    }

    /// Did the sparse call fall back to the dense pattern because some
    /// rank had a payload for a non-neighbor?
    pub fn escaped(&self) -> bool {
        self.kind == HandleKind::Fallback
    }
}

/// Start a dense split-phase all-to-all: `outgoing[d]` is surrendered to
/// the transport (replaced by `P::empty()`) and sent to rank `d` —
/// including empty payloads, which serve as "nothing for you" markers.
/// Generic over the wire lane (`Vec<u8>` or `Vec<Particle>`); complete
/// with [`alltoallv_finish_into`] naming the same lane.
pub fn alltoallv_start<P: WirePayload>(comm: &Communicator, outgoing: &mut [P]) -> AlltoallvHandle {
    assert_eq!(
        outgoing.len(),
        comm.size(),
        "alltoallv needs one payload per rank"
    );
    let base = comm.next_coll_base();
    for (dst, payload) in outgoing.iter_mut().enumerate() {
        comm.send_coll(dst, base, std::mem::replace(payload, P::empty()));
    }
    AlltoallvHandle {
        base,
        kind: HandleKind::Dense,
        payload_kind: P::KIND,
        sent: comm.size() as u64,
        skipped: 0,
    }
}

/// Complete a dense split-phase all-to-all: receives one payload from every
/// rank, in rank order, into `incoming` (cleared, capacity retained).
/// Sparse handles carry plan state and must use
/// [`alltoallv_sparse_finish_into`].
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
    let tag = match handle.kind {
        HandleKind::Dense => handle.base,
        HandleKind::Fallback => handle.base + TAG_FALLBACK,
        HandleKind::Sparse => panic!("sparse handle requires alltoallv_sparse_finish_into"),
    };
    incoming.extend((0..comm.size()).map(|src| comm.recv_coll::<P>(src, tag)));
}

/// Reusable neighbor topology + scratch for the sparse exchange. Build it
/// once (or whenever the topology changes) and pass it to every
/// `alltoallv_sparse_start` / `finish` pair; in steady state it recycles
/// all of its small-message buffers instead of allocating.
///
/// The neighbor relation **must be symmetric across ranks** (if `a` lists
/// `b`, `b` lists `a`) — count messages are paired per edge and an
/// asymmetric plan would deadlock.
#[derive(Debug)]
pub struct SparsePlan {
    size: usize,
    my_rank: usize,
    neighbors: Vec<usize>,
    is_neighbor: Vec<bool>,
    /// Expected payload length (wire-equivalent bytes) per source for the
    /// in-flight exchange.
    counts: Vec<u64>,
    /// Self-destined payload stashed between start and finish (delivered
    /// without a message; either lane).
    self_payload: Payload,
    /// Recycled small (flag/count) message buffers.
    small_spares: Vec<Vec<u8>>,
}

impl SparsePlan {
    /// Build a plan for a `size`-rank communicator where this rank is
    /// `my_rank` and exchanges payloads with `neighbors` (communicator
    /// ranks; self entries and duplicates are dropped).
    pub fn new(size: usize, my_rank: usize, neighbors: impl IntoIterator<Item = usize>) -> Self {
        assert!(my_rank < size);
        let mut is_neighbor = vec![false; size];
        for n in neighbors {
            assert!(n < size, "neighbor {n} out of range for size {size}");
            if n != my_rank {
                is_neighbor[n] = true;
            }
        }
        let neighbors: Vec<usize> = (0..size).filter(|&r| is_neighbor[r]).collect();
        SparsePlan {
            size,
            my_rank,
            neighbors,
            is_neighbor,
            counts: Vec::new(),
            self_payload: Payload::default(),
            small_spares: Vec::new(),
        }
    }

    /// The neighbor ranks, sorted ascending, self excluded.
    pub fn neighbors(&self) -> &[usize] {
        &self.neighbors
    }

    /// Replace the neighbor set (topology change, e.g. after a VP
    /// rebalance) while keeping the recycled scratch.
    pub fn set_neighbors(&mut self, neighbors: impl IntoIterator<Item = usize>) {
        self.is_neighbor.clear();
        self.is_neighbor.resize(self.size, false);
        for n in neighbors {
            assert!(n < self.size, "neighbor {n} out of range");
            if n != self.my_rank {
                self.is_neighbor[n] = true;
            }
        }
        self.neighbors.clear();
        let is_neighbor = &self.is_neighbor;
        self.neighbors
            .extend((0..self.size).filter(|&r| is_neighbor[r]));
    }

    fn take_small(&mut self) -> Vec<u8> {
        self.small_spares.pop().unwrap_or_default()
    }

    fn recycle_small(&mut self, mut buf: Vec<u8>) {
        if self.small_spares.len() < MAX_SMALL_SPARES {
            buf.clear();
            self.small_spares.push(buf);
        }
    }
}

/// Dissemination all-reduce of a single boolean (logical OR): `⌈log₂ P⌉`
/// rounds of 1-byte pairwise exchanges on tags `base + round`.
fn escape_or(comm: &Communicator, plan: &mut SparsePlan, mut flag: bool, base: u64) -> bool {
    let size = comm.size();
    let rank = comm.rank();
    let mut round = 0u64;
    let mut dist = 1usize;
    while dist < size {
        let dst = (rank + dist) % size;
        let src = (rank + size - dist) % size;
        let mut buf = plan.take_small();
        buf.push(flag as u8);
        comm.send_coll(dst, base + round, buf);
        let got: Vec<u8> = comm.recv_coll(src, base + round);
        flag |= got[0] != 0;
        plan.recycle_small(got);
        dist <<= 1;
        round += 1;
    }
    flag
}

/// Start a sparse neighbor-aware all-to-all. Every rank must call this
/// with the same communicator state and a symmetric `plan`. Payloads for
/// non-neighbors raise a global escape flag (one small dissemination) and
/// degrade the call to the dense pattern; otherwise per-destination counts
/// go to each neighbor and only non-empty payloads travel. The
/// self-destined payload never touches the wire.
pub fn alltoallv_sparse_start<P: WirePayload>(
    comm: &Communicator,
    outgoing: &mut [P],
    plan: &mut SparsePlan,
) -> AlltoallvHandle {
    let size = comm.size();
    let rank = comm.rank();
    assert_eq!(outgoing.len(), size, "alltoallv needs one payload per rank");
    assert_eq!(plan.size, size, "plan built for a different world size");
    assert_eq!(plan.my_rank, rank, "plan built for a different rank");
    let base = comm.next_coll_base();

    let local_escape = outgoing
        .iter()
        .enumerate()
        .any(|(d, p)| !p.is_empty() && d != rank && !plan.is_neighbor[d]);
    if escape_or(comm, plan, local_escape, base) {
        for (dst, payload) in outgoing.iter_mut().enumerate() {
            comm.send_coll(
                dst,
                base + TAG_FALLBACK,
                std::mem::replace(payload, P::empty()),
            );
        }
        return AlltoallvHandle {
            base,
            kind: HandleKind::Fallback,
            payload_kind: P::KIND,
            sent: size as u64,
            skipped: 0,
        };
    }

    plan.self_payload = std::mem::replace(&mut outgoing[rank], P::empty()).into_payload();
    let mut sent = 0u64;
    for i in 0..plan.neighbors.len() {
        let dst = plan.neighbors[i];
        let len = outgoing[dst].len_bytes() as u64;
        let mut cbuf = plan.take_small();
        cbuf.extend_from_slice(&len.to_le_bytes());
        comm.send_coll(dst, base + TAG_COUNT, cbuf);
        if len > 0 {
            comm.send_coll(
                dst,
                base + TAG_PAYLOAD,
                std::mem::replace(&mut outgoing[dst], P::empty()),
            );
            sent += 1;
        }
    }
    AlltoallvHandle {
        base,
        kind: HandleKind::Sparse,
        payload_kind: P::KIND,
        sent,
        skipped: size as u64 - sent,
    }
}

/// Complete a sparse (or escaped) all-to-all started with
/// [`alltoallv_sparse_start`], with the same `plan`. `incoming` is cleared
/// and filled with one payload per source rank in rank order — `Vec::new()`
/// for sources that had nothing for us (no allocation).
pub fn alltoallv_sparse_finish_into<P: WirePayload>(
    comm: &Communicator,
    handle: AlltoallvHandle,
    plan: &mut SparsePlan,
    incoming: &mut Vec<P>,
) {
    assert_eq!(
        handle.payload_kind,
        P::KIND,
        "alltoallv started on the {} lane but finished on the {} lane",
        handle.payload_kind.name(),
        P::KIND.name()
    );
    let size = comm.size();
    incoming.clear();
    match handle.kind {
        HandleKind::Dense | HandleKind::Fallback => {
            let tag = if handle.kind == HandleKind::Dense {
                handle.base
            } else {
                handle.base + TAG_FALLBACK
            };
            incoming.extend((0..size).map(|src| comm.recv_coll::<P>(src, tag)));
        }
        HandleKind::Sparse => {
            plan.counts.clear();
            plan.counts.resize(size, 0);
            for i in 0..plan.neighbors.len() {
                let src = plan.neighbors[i];
                let cbuf: Vec<u8> = comm.recv_coll(src, handle.base + TAG_COUNT);
                plan.counts[src] = u64::from_le_bytes(cbuf[..8].try_into().unwrap());
                plan.recycle_small(cbuf);
            }
            for src in 0..size {
                if src == comm.rank() {
                    let stashed = std::mem::take(&mut plan.self_payload);
                    incoming.push(P::from_payload(stashed));
                } else if plan.counts[src] > 0 {
                    let payload: P = comm.recv_coll(src, handle.base + TAG_PAYLOAD);
                    debug_assert_eq!(payload.len_bytes() as u64, plan.counts[src]);
                    incoming.push(payload);
                } else {
                    incoming.push(P::empty());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run_threads;

    fn expected_incoming(
        rank: usize,
        size: usize,
        make: impl Fn(usize, usize) -> Vec<u8>,
    ) -> Vec<Vec<u8>> {
        (0..size).map(|src| make(src, rank)).collect()
    }

    #[test]
    fn dense_split_phase_matches_alltoallv() {
        let got = run_threads(4, |comm| {
            let mut outgoing: Vec<Vec<u8>> =
                (0..4).map(|d| vec![(10 * comm.rank() + d) as u8]).collect();
            let mut incoming: Vec<Vec<u8>> = Vec::new();
            let h = alltoallv_start(&comm, &mut outgoing);
            assert_eq!(h.messages_sent(), 4);
            assert_eq!(h.messages_skipped(), 0);
            alltoallv_finish_into(&comm, h, &mut incoming);
            assert!(outgoing.iter().all(|p| p.is_empty()), "payloads taken");
            incoming
        });
        for (r, incoming) in got.into_iter().enumerate() {
            assert_eq!(
                incoming,
                expected_incoming(r, 4, |s, d| vec![(10 * s + d) as u8])
            );
        }
    }

    #[test]
    fn sparse_ring_matches_dense() {
        let p = 5usize;
        let got = run_threads(p, move |comm| {
            let rank = comm.rank();
            let mut plan = SparsePlan::new(p, rank, [(rank + 1) % p, (rank + p - 1) % p]);
            let mut incoming: Vec<Vec<u8>> = Vec::new();
            // Payloads only to the ring neighbors and self.
            let mut outgoing: Vec<Vec<u8>> = (0..p)
                .map(|d| {
                    if d == rank || d == (rank + 1) % p || d == (rank + p - 1) % p {
                        vec![(10 * rank + d) as u8]
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            let h = alltoallv_sparse_start(&comm, &mut outgoing, &mut plan);
            assert!(!h.escaped());
            assert_eq!(h.messages_sent(), 2, "two non-empty neighbor payloads");
            assert_eq!(h.messages_skipped(), (p - 2) as u64);
            alltoallv_sparse_finish_into(&comm, h, &mut plan, &mut incoming);
            incoming
        });
        for (r, incoming) in got.into_iter().enumerate() {
            let want = expected_incoming(r, p, |s, d| {
                if s == d || d == (s + 1) % p || d == (s + p - 1) % p {
                    vec![(10 * s + d) as u8]
                } else {
                    Vec::new()
                }
            });
            assert_eq!(incoming, want);
        }
    }

    #[test]
    fn non_neighbor_payload_escapes_and_routes() {
        // Rank 0 targets rank 2, which is not in anyone's neighbor plan:
        // the escape flag must go global and the exchange must still
        // deliver everything.
        let p = 4usize;
        let got = run_threads(p, move |comm| {
            let rank = comm.rank();
            let mut plan = SparsePlan::new(p, rank, [(rank + 1) % p, (rank + p - 1) % p]);
            let mut outgoing: Vec<Vec<u8>> = vec![Vec::new(); p];
            if rank == 0 {
                outgoing[2] = vec![42];
            }
            let mut incoming: Vec<Vec<u8>> = Vec::new();
            let h = alltoallv_sparse_start(&comm, &mut outgoing, &mut plan);
            assert!(
                h.escaped(),
                "non-neighbor payload must raise the flag everywhere"
            );
            alltoallv_sparse_finish_into(&comm, h, &mut plan, &mut incoming);
            incoming
        });
        for (r, incoming) in got.into_iter().enumerate() {
            for (s, payload) in incoming.into_iter().enumerate() {
                if r == 2 && s == 0 {
                    assert_eq!(payload, vec![42]);
                } else {
                    assert!(payload.is_empty());
                }
            }
        }
    }

    #[test]
    fn sparse_single_rank_degenerate() {
        let got = run_threads(1, |comm| {
            let mut plan = SparsePlan::new(1, 0, 0..1);
            let mut outgoing = vec![vec![7u8, 8]];
            let mut incoming: Vec<Vec<u8>> = Vec::new();
            let h = alltoallv_sparse_start(&comm, &mut outgoing, &mut plan);
            assert_eq!(h.messages_sent(), 0);
            alltoallv_sparse_finish_into(&comm, h, &mut plan, &mut incoming);
            incoming
        });
        assert_eq!(got[0], vec![vec![7, 8]]);
    }

    #[test]
    fn sparse_empty_world_sends_no_payloads() {
        let p = 4usize;
        let got = run_threads(p, move |comm| {
            let mut plan = SparsePlan::new(p, comm.rank(), 0..p);
            let mut outgoing = vec![Vec::<u8>::new(); p];
            let mut incoming: Vec<Vec<u8>> = Vec::new();
            let before = comm.metrics();
            let h = alltoallv_sparse_start(&comm, &mut outgoing, &mut plan);
            assert_eq!(h.messages_sent(), 0);
            assert_eq!(h.messages_skipped(), p as u64);
            alltoallv_sparse_finish_into(&comm, h, &mut plan, &mut incoming);
            let after = comm.metrics();
            assert!(incoming.iter().all(|i| i.is_empty()));
            // Only escape rounds + count messages traveled, no payloads:
            // counts are 8-byte messages, payloads would be larger.
            (
                (after.messages_sent - before.messages_sent) as usize,
                incoming.len(),
            )
        });
        // 2 escape rounds + 3 neighbor counts per rank at P=4 (all-pairs).
        for (msgs, len) in got {
            assert_eq!(msgs, 2 + 3);
            assert_eq!(len, p);
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
    fn sparse_steady_state_recycles_small_buffers() {
        let p = 4usize;
        let got = run_threads(p, move |comm| {
            let rank = comm.rank();
            let mut plan = SparsePlan::new(p, rank, [(rank + 1) % p, (rank + p - 1) % p]);
            let mut incoming: Vec<Vec<u8>> = Vec::new();
            for step in 0..6 {
                let mut outgoing: Vec<Vec<u8>> = (0..p)
                    .map(|d| {
                        if d == (rank + 1) % p {
                            vec![step as u8; 3]
                        } else {
                            Vec::new()
                        }
                    })
                    .collect();
                let h = alltoallv_sparse_start(&comm, &mut outgoing, &mut plan);
                alltoallv_sparse_finish_into(&comm, h, &mut plan, &mut incoming);
            }
            plan.small_spares.len()
        });
        // Sends and receives are balanced per step, so the spare pool
        // reaches a fixed point instead of growing.
        for spares in got {
            assert!(spares <= MAX_SMALL_SPARES);
            assert!(spares >= 1, "pool should have recycled buffers");
        }
    }

    fn tp(id: u64) -> pic_core::particle::Particle {
        pic_core::particle::Particle {
            id,
            x: id as f64 * 0.25,
            y: 1.5,
            vx: -1.0,
            vy: 2.0,
            q: 0.5,
            x0: 0.5,
            y0: 1.5,
            k: 1,
            m: -1,
            born_at: 3,
        }
    }

    #[test]
    fn typed_sparse_ring_matches_bytes_lane_and_recycles() {
        use pic_core::particle::Particle;
        // The same ring traffic on both lanes must deliver the same ids in
        // the same order (the byte lane carries the id alone), the typed
        // lane every field intact; the typed lane must also reach a
        // small-spare fixed point (counts and escape flags stay byte
        // messages either way).
        let p = 4usize;
        let steps = 6;
        let run_typed = run_threads(p, move |comm| {
            let rank = comm.rank();
            let mut plan = SparsePlan::new(p, rank, [(rank + 1) % p, (rank + p - 1) % p]);
            let mut incoming: Vec<Vec<Particle>> = Vec::new();
            let mut all_got: Vec<Particle> = Vec::new();
            for step in 0..steps {
                let mut outgoing: Vec<Vec<Particle>> = (0..p)
                    .map(|d| {
                        if d == (rank + 1) % p {
                            vec![tp((100 * step + 10 * rank + d) as u64)]
                        } else {
                            Vec::new()
                        }
                    })
                    .collect();
                let h = alltoallv_sparse_start(&comm, &mut outgoing, &mut plan);
                assert!(!h.escaped());
                alltoallv_sparse_finish_into(&comm, h, &mut plan, &mut incoming);
                for buf in &mut incoming {
                    all_got.append(buf);
                }
            }
            assert!(
                !plan.small_spares.is_empty(),
                "typed lane must recycle count buffers"
            );
            all_got
        });
        let run_bytes = run_threads(p, move |comm| {
            let rank = comm.rank();
            let mut plan = SparsePlan::new(p, rank, [(rank + 1) % p, (rank + p - 1) % p]);
            let mut incoming: Vec<Vec<u8>> = Vec::new();
            let mut all_got: Vec<u64> = Vec::new();
            for step in 0..steps {
                let mut outgoing: Vec<Vec<u8>> = (0..p)
                    .map(|d| {
                        if d == (rank + 1) % p {
                            ((100 * step + 10 * rank + d) as u64).to_le_bytes().to_vec()
                        } else {
                            Vec::new()
                        }
                    })
                    .collect();
                let h = alltoallv_sparse_start(&comm, &mut outgoing, &mut plan);
                alltoallv_sparse_finish_into(&comm, h, &mut plan, &mut incoming);
                for buf in &incoming {
                    all_got.extend(
                        buf.chunks(8)
                            .map(|id| u64::from_le_bytes(id.try_into().expect("whole id"))),
                    );
                }
            }
            all_got
        });
        let want: Vec<Vec<Particle>> = run_bytes
            .iter()
            .map(|ids| ids.iter().map(|&id| tp(id)).collect())
            .collect();
        assert_eq!(run_typed, want, "typed lane diverged from byte lane");
    }

    #[test]
    fn typed_escape_fallback_delivers_with_self_payload() {
        use pic_core::particle::Particle;
        // Rank 0 targets non-neighbor rank 2 (escape → dense fallback) and
        // every rank also keeps a self-destined typed payload — both must
        // arrive intact on the typed lane.
        let p = 4usize;
        let got = run_threads(p, move |comm| {
            let rank = comm.rank();
            let mut plan = SparsePlan::new(p, rank, [(rank + 1) % p, (rank + p - 1) % p]);
            let mut outgoing: Vec<Vec<Particle>> = vec![Vec::new(); p];
            outgoing[rank] = vec![tp(1000 + rank as u64)];
            if rank == 0 {
                outgoing[2] = vec![tp(42)];
            }
            let mut incoming: Vec<Vec<Particle>> = Vec::new();
            let h = alltoallv_sparse_start(&comm, &mut outgoing, &mut plan);
            assert!(h.escaped());
            alltoallv_sparse_finish_into(&comm, h, &mut plan, &mut incoming);
            incoming
                .into_iter()
                .flatten()
                .map(|q| q.id)
                .collect::<Vec<_>>()
        });
        for (r, ids) in got.into_iter().enumerate() {
            let mut want = vec![1000 + r as u64];
            if r == 2 {
                want.push(42);
            }
            let mut ids = ids;
            ids.sort_unstable();
            want.sort_unstable();
            assert_eq!(ids, want, "rank {r}");
        }
    }

    #[test]
    #[should_panic(expected = "started on the typed lane but finished on the bytes lane")]
    fn lane_mismatch_between_start_and_finish_is_loud() {
        // Single-rank world on the test thread itself, so the panic is the
        // test's own (run_threads would wrap a rank-thread panic).
        let eps = crate::endpoint::Endpoint::world(1);
        let comm = Communicator::world(eps[0].clone());
        let mut outgoing: Vec<Vec<pic_core::particle::Particle>> = vec![Vec::new()];
        let mut incoming: Vec<Vec<u8>> = Vec::new();
        let h = alltoallv_start(&comm, &mut outgoing);
        alltoallv_finish_into(&comm, h, &mut incoming);
    }

    #[test]
    fn plan_set_neighbors_replaces_topology() {
        let mut plan = SparsePlan::new(4, 1, [0, 2]);
        assert_eq!(plan.neighbors(), &[0, 2]);
        plan.set_neighbors([3, 3, 1]);
        assert_eq!(plan.neighbors(), &[3], "self and duplicates dropped");
    }
}
