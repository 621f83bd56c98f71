//! Per-rank communication endpoint: channels + tag matching + counters.

use crate::chan::{unbounded, Receiver, Sender};
use crate::payload::{Payload, WirePayload};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A raw wire message. `src` is the sender's rank, `tag` is the
/// user/collective tag. The body is a [`Payload`] — matching is on
/// `(src, tag)` only; the *receiver* names the type it expects and a kind
/// mismatch panics at claim time.
#[derive(Debug)]
pub struct RawMsg {
    pub src: usize,
    pub tag: u64,
    pub data: Payload,
}

/// Tag of the poison message a panicking rank leaves in every inbox (see
/// [`Endpoint::poison_world`]). No user tag (≤ `MAX_USER_TAG`) and no
/// collective tag (bit 63 + a sequence number that would have to reach
/// 2⁴³) can equal it.
const POISON_TAG: u64 = u64::MAX;

/// How the panic of a rank that pulled the poison ends — what
/// `run_threads` tells a collateral panic from the original by.
pub(crate) const WORLD_ABORTED: &str = "panicked; world aborted";

/// Snapshot of an endpoint's traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommMetrics {
    pub messages_sent: u64,
    pub bytes_sent: u64,
    pub messages_received: u64,
    pub bytes_received: u64,
}

/// One rank's attachment to the world: senders to every rank (including
/// itself) and its own inbox. Unmatched messages park in `pending` until a
/// matching receive is posted — MPI's unexpected-message queue.
pub struct Endpoint {
    world_rank: usize,
    senders: Vec<Sender<RawMsg>>,
    inbox: Receiver<RawMsg>,
    pending: Mutex<VecDeque<RawMsg>>,
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_recv: AtomicU64,
    bytes_recv: AtomicU64,
}

impl Endpoint {
    /// Build all endpoints of a `size`-rank world.
    pub fn world(size: usize) -> Vec<Arc<Endpoint>> {
        assert!(size > 0, "world must have at least one rank");
        let mut txs = Vec::with_capacity(size);
        let mut rxs = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        rxs.into_iter()
            .enumerate()
            .map(|(rank, inbox)| {
                Arc::new(Endpoint {
                    world_rank: rank,
                    senders: txs.clone(),
                    inbox,
                    pending: Mutex::new(VecDeque::new()),
                    msgs_sent: AtomicU64::new(0),
                    bytes_sent: AtomicU64::new(0),
                    msgs_recv: AtomicU64::new(0),
                    bytes_recv: AtomicU64::new(0),
                })
            })
            .collect()
    }

    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    pub fn world_size(&self) -> usize {
        self.senders.len()
    }

    /// Send a buffer to a world rank, surrendering its ownership to the
    /// transport. Never blocks (unbounded channels, like an eager-protocol
    /// MPI for the message sizes this kernel uses).
    pub fn send_payload<P: WirePayload>(&self, dst_world: usize, tag: u64, data: P) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent
            .fetch_add(data.len_bytes() as u64, Ordering::Relaxed);
        self.senders[dst_world]
            .send(RawMsg {
                src: self.world_rank,
                tag,
                data: data.into_payload(),
            })
            .expect("receiver endpoint dropped while ranks still sending");
    }

    /// [`Endpoint::send_payload`] on the byte lane.
    pub fn send(&self, dst_world: usize, tag: u64, data: Vec<u8>) {
        self.send_payload(dst_world, tag, data);
    }

    /// Called for a rank whose closure panicked: leave one poison message
    /// in every inbox, so that a peer blocked in (or later entering) a
    /// receive this rank will never satisfy panics too instead of waiting
    /// forever. An inbox whose rank is already gone is skipped.
    pub(crate) fn poison_world(&self) {
        for tx in &self.senders {
            let _ = tx.send(RawMsg {
                src: self.world_rank,
                tag: POISON_TAG,
                data: Vec::<u8>::new().into_payload(),
            });
        }
    }

    /// Blocking receive matching `(src_world, tag)`, claiming the
    /// message as buffer type `P`. Non-matching arrivals are parked for
    /// later receives; a matching message of the wrong payload kind panics
    /// (see [`WirePayload::from_payload`]). Pulling another rank's poison
    /// off the wire panics: that rank is gone and so is the world.
    pub fn recv_payload<P: WirePayload>(&self, src_world: usize, tag: u64) -> P {
        // First scan the unexpected-message queue.
        {
            let mut pending = self.pending.lock().unwrap();
            if let Some(pos) = pending
                .iter()
                .position(|m| m.src == src_world && m.tag == tag)
            {
                let m = pending.remove(pos).unwrap();
                self.note_recv(&m);
                return P::from_payload(m.data);
            }
        }
        // Then pull from the wire until the match arrives.
        loop {
            let m = self
                .inbox
                .recv()
                .expect("all senders dropped while a receive was outstanding");
            if m.src == src_world && m.tag == tag {
                self.note_recv(&m);
                return P::from_payload(m.data);
            }
            if m.tag == POISON_TAG {
                panic!("rank {} {WORLD_ABORTED}", m.src);
            }
            self.pending.lock().unwrap().push_back(m);
        }
    }

    /// [`Endpoint::recv_payload`] on the byte lane.
    pub fn recv(&self, src_world: usize, tag: u64) -> Vec<u8> {
        self.recv_payload(src_world, tag)
    }

    fn note_recv(&self, m: &RawMsg) {
        self.msgs_recv.fetch_add(1, Ordering::Relaxed);
        self.bytes_recv
            .fetch_add(m.data.len_bytes() as u64, Ordering::Relaxed);
    }

    /// Traffic counters so far.
    pub fn metrics(&self) -> CommMetrics {
        CommMetrics {
            messages_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            messages_received: self.msgs_recv.load(Ordering::Relaxed),
            bytes_received: self.bytes_recv.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn self_send_and_recv() {
        let eps = Endpoint::world(1);
        eps[0].send(0, 42, vec![1, 2, 3]);
        assert_eq!(eps[0].recv(0, 42), vec![1, 2, 3]);
        let m = eps[0].metrics();
        assert_eq!(m.messages_sent, 1);
        assert_eq!(m.bytes_sent, 3);
        assert_eq!(m.messages_received, 1);
    }

    #[test]
    fn out_of_order_matching() {
        let eps = Endpoint::world(1);
        eps[0].send(0, 10, vec![10]);
        eps[0].send(0, 20, vec![20]);
        eps[0].send(0, 30, vec![30]);
        assert_eq!(eps[0].recv(0, 30), vec![30]);
        assert_eq!(eps[0].recv(0, 10), vec![10]);
        assert_eq!(eps[0].recv(0, 20), vec![20]);
        assert!(eps[0].pending.lock().unwrap().is_empty());
    }

    #[test]
    fn cross_thread_pingpong() {
        let eps = Endpoint::world(2);
        let a = eps[0].clone();
        let b = eps[1].clone();
        let t = thread::spawn(move || {
            let got = b.recv(0, 1);
            b.send(0, 2, got.iter().map(|x| x * 2).collect());
        });
        a.send(1, 1, vec![5, 6]);
        assert_eq!(a.recv(1, 2), vec![10, 12]);
        t.join().unwrap();
    }

    #[test]
    fn typed_lane_moves_buffers_and_accounts_bytes() {
        use pic_core::particle::Particle;
        let p = Particle {
            id: 9,
            x: 0.5,
            y: 0.5,
            vx: 1.0,
            vy: -1.0,
            q: 0.25,
            x0: 0.5,
            y0: 0.5,
            k: 0,
            m: 0,
            born_at: 0,
        };
        let eps = Endpoint::world(1);
        eps[0].send_payload(0, 11, vec![p, p]);
        let got: Vec<Particle> = eps[0].recv_payload(0, 11);
        assert_eq!(got, vec![p, p]);
        let m = eps[0].metrics();
        assert_eq!(m.bytes_sent, 2 * Particle::WIRE_SIZE as u64);
        assert_eq!(m.bytes_received, 2 * Particle::WIRE_SIZE as u64);
    }

    #[test]
    #[should_panic(expected = "payload kind mismatch")]
    fn typed_message_claimed_as_bytes_panics() {
        use pic_core::particle::Particle;
        let eps = Endpoint::world(1);
        eps[0].send_payload(0, 1, Vec::<Particle>::new());
        let _ = eps[0].recv(0, 1);
    }

    #[test]
    fn fifo_per_same_signature() {
        // Two messages with identical (src, tag) are received in send
        // order (MPI non-overtaking rule).
        let eps = Endpoint::world(1);
        eps[0].send(0, 9, vec![1]);
        eps[0].send(0, 9, vec![2]);
        assert_eq!(eps[0].recv(0, 9), vec![1]);
        assert_eq!(eps[0].recv(0, 9), vec![2]);
    }
}
