//! The [`Communicator`] — a rank's handle on the world.

use crate::payload::WirePayload;
use crate::world::{World, WORLD_ABORTED};
use std::sync::Arc;

/// Reduction operators for the numeric collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
}

impl ReduceOp {
    #[inline]
    pub(crate) fn fold_u64(&self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
        }
    }
}

/// A communicator: this rank's handle on the one world of ranks.
/// Clone-free by design — each rank holds exactly one `Communicator`.
///
/// It has no tags: every rank calls the collectives, its only public
/// surface, in the same order, and each sends one message per rank pair, so
/// the k-th message this rank takes from `src` is the k-th one `src` sent
/// it — MPI's non-overtaking rule, kept by one FIFO mailbox per rank pair.
pub struct Communicator {
    world: Arc<World>,
    rank: usize,
}

impl Communicator {
    pub(crate) fn new(world: Arc<World>, rank: usize) -> Communicator {
        Communicator { world, rank }
    }

    /// Rank of this process within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// Send a buffer to rank `dst`, surrendering its ownership to the
    /// transport. Never blocks (unbounded mailboxes, like an eager-protocol
    /// MPI for the message sizes this kernel uses).
    pub(crate) fn send<P: WirePayload>(&self, dst: usize, data: P) {
        self.world
            .mailbox(self.rank, dst)
            .push(Some(data.into_payload()));
    }

    /// Blocking receive of the next buffer from rank `src`, claimed as `P`;
    /// a message of the other payload kind panics (see
    /// [`WirePayload::from_payload`]). Pulling `src`'s poison panics: that
    /// rank is gone and so is the world.
    pub(crate) fn recv<P: WirePayload>(&self, src: usize) -> P {
        match self.world.mailbox(src, self.rank).pop() {
            Some(payload) => P::from_payload(payload),
            None => panic!("rank {src} {WORLD_ABORTED}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_core::particle::Particle;

    /// One communicator per rank of a fresh world, on the calling thread.
    fn comms(size: usize) -> Vec<Communicator> {
        let world = World::new(size);
        (0..size)
            .map(|rank| Communicator::new(Arc::clone(&world), rank))
            .collect()
    }

    #[test]
    fn world_identity_mapping() {
        let c = comms(3).swap_remove(1);
        assert_eq!(c.rank(), 1);
        assert_eq!(c.size(), 3);
    }

    #[test]
    fn fifo_per_rank_pair() {
        // Messages on one pair arrive in send order, whatever the traffic
        // on the other pairs into the same rank.
        let c = comms(3);
        for i in 0..5u64 {
            c[0].send(2, vec![i]);
            c[1].send(2, vec![10 + i]);
        }
        for i in 0..5u64 {
            assert_eq!(c[2].recv::<Vec<u64>>(1), vec![10 + i]);
        }
        for i in 0..5u64 {
            assert_eq!(c[2].recv::<Vec<u64>>(0), vec![i]);
        }
    }

    #[test]
    #[should_panic(expected = "payload kind mismatch")]
    fn typed_message_claimed_as_words_panics() {
        let c = comms(1);
        c[0].send(0, Vec::<Particle>::new());
        let _ = c[0].recv::<Vec<u64>>(0);
    }

    #[test]
    fn reduce_ops() {
        assert_eq!(ReduceOp::Sum.fold_u64(2, 3), 5);
        assert_eq!(ReduceOp::Max.fold_u64(2, 3), 3);
    }
}
