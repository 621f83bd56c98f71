//! The [`Communicator`] — a rank's handle on the world.

use crate::endpoint::{CommMetrics, Endpoint};
use crate::payload::WirePayload;
use std::cell::Cell;
use std::sync::Arc;

/// User-visible message tag. Must not exceed
/// [`Communicator::MAX_USER_TAG`]; larger values are reserved for
/// collectives.
pub type Tag = u64;

/// Reduction operators for the numeric collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

impl ReduceOp {
    #[inline]
    pub fn fold_u64(&self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    #[inline]
    pub fn fold_f64(&self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    #[inline]
    pub fn fold_u128(&self, a: u128, b: u128) -> u128 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

/// Highest tag bit flags a collective-internal message.
const COLLECTIVE_FLAG: u64 = 1 << 63;

/// A communicator: this rank's handle on the one world of ranks.
/// Clone-free by design — each rank holds exactly one `Communicator`.
pub struct Communicator {
    ep: Arc<Endpoint>,
    my_rank: usize,
    coll_seq: Cell<u64>,
}

impl Communicator {
    /// Maximum user tag value.
    pub const MAX_USER_TAG: u64 = (1 << 56) - 1;

    /// Wrap an endpoint as the world communicator.
    pub fn world(ep: Arc<Endpoint>) -> Communicator {
        let my_rank = ep.world_rank();
        Communicator {
            ep,
            my_rank,
            coll_seq: Cell::new(0),
        }
    }

    /// Rank of this process within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.ep.world_size()
    }

    /// Send a buffer to communicator rank `dst` with a user tag,
    /// surrendering its ownership to the transport. Generic over the wire
    /// lane — `Vec<u8>` (oracle) or `Vec<Particle>` (typed fast lane).
    pub fn send_payload<P: WirePayload>(&self, dst: usize, tag: Tag, data: P) {
        assert!(tag <= Self::MAX_USER_TAG, "tag {tag} exceeds MAX_USER_TAG");
        self.ep.send_payload(dst, tag, data);
    }

    /// Blocking receive of a `P` buffer from communicator rank `src` with
    /// a user tag. A matching message of the wrong payload kind panics.
    pub fn recv_payload<P: WirePayload>(&self, src: usize, tag: Tag) -> P {
        assert!(tag <= Self::MAX_USER_TAG, "tag {tag} exceeds MAX_USER_TAG");
        self.ep.recv_payload(src, tag)
    }

    /// Send `data` to communicator rank `dst` with a user tag.
    pub fn send(&self, dst: usize, tag: Tag, data: Vec<u8>) {
        self.send_payload(dst, tag, data);
    }

    /// Blocking receive from communicator rank `src` with a user tag.
    pub fn recv(&self, src: usize, tag: Tag) -> Vec<u8> {
        self.recv_payload(src, tag)
    }

    /// Internal: send/recv with a collective-reserved tag. Generic over
    /// the wire lane so the alltoallv family can route typed buffers.
    pub(crate) fn send_coll<P: WirePayload>(&self, dst: usize, tag: u64, data: P) {
        self.ep.send_payload(dst, COLLECTIVE_FLAG | tag, data);
    }

    pub(crate) fn recv_coll<P: WirePayload>(&self, src: usize, tag: u64) -> P {
        self.ep.recv_payload(src, COLLECTIVE_FLAG | tag)
    }

    /// Allocate a fresh tag block for one collective operation. All members
    /// call collectives in the same order (an MPI requirement), so the
    /// sequence numbers agree across ranks.
    pub(crate) fn next_coll_base(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        seq << 20 // up to 2^20 sub-messages per collective
    }

    /// Traffic counters of this rank's endpoint.
    pub fn metrics(&self) -> CommMetrics {
        self.ep.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_identity_mapping() {
        let eps = Endpoint::world(3);
        let c = Communicator::world(eps[1].clone());
        assert_eq!(c.rank(), 1);
        assert_eq!(c.size(), 3);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_USER_TAG")]
    fn oversized_tag_rejected() {
        let eps = Endpoint::world(1);
        let c = Communicator::world(eps[0].clone());
        c.send(0, u64::MAX, vec![]);
    }

    #[test]
    fn reduce_ops() {
        assert_eq!(ReduceOp::Sum.fold_u64(2, 3), 5);
        assert_eq!(ReduceOp::Min.fold_u64(2, 3), 2);
        assert_eq!(ReduceOp::Max.fold_u64(2, 3), 3);
        assert_eq!(ReduceOp::Sum.fold_f64(0.5, 0.25), 0.75);
        assert_eq!(ReduceOp::Max.fold_u128(7, 9), 9);
    }
}
