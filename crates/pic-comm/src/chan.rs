//! The mailbox: an unbounded FIFO queue on `Mutex` + `Condvar`, std-only.
//!
//! This is the wire under [`Communicator`](crate::comm::Communicator): the
//! world holds one mailbox per ordered rank pair. The substrate needs
//! exactly two things from it: unbounded buffering (eager-protocol sends
//! never block) and a blocking receive, both in send order. A
//! mutex-guarded `VecDeque` provides them; per-message lock traffic is
//! irrelevant next to the simulated work per message, and the kernel's
//! *hot* path (the particle sweep) does not touch mailboxes at all.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// No code panics while holding a mailbox lock: the critical sections are
/// a `VecDeque` push or pop.
const POISONED: &str = "mailbox lock poisoned";

pub(crate) struct Mailbox<T> {
    queue: Mutex<VecDeque<T>>,
    ready: Condvar,
}

impl<T> Mailbox<T> {
    pub(crate) fn new() -> Self {
        Mailbox {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    /// Enqueue a message. Never blocks.
    pub(crate) fn push(&self, value: T) {
        self.queue.lock().expect(POISONED).push_back(value);
        self.ready.notify_one();
    }

    /// Blocking receive: the oldest message, waiting for one if the queue
    /// is empty.
    pub(crate) fn pop(&self) -> T {
        let mut queue = self.queue.lock().expect(POISONED);
        loop {
            if let Some(v) = queue.pop_front() {
                return v;
            }
            queue = self.ready.wait(queue).expect(POISONED);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order() {
        let mb = Mailbox::new();
        for i in 0..10 {
            mb.push(i);
        }
        for i in 0..10 {
            assert_eq!(mb.pop(), i);
        }
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let mb = Mailbox::new();
        thread::scope(|s| {
            let t = s.spawn(|| mb.pop());
            thread::sleep(std::time::Duration::from_millis(20));
            mb.push(123u32);
            assert_eq!(t.join().unwrap(), 123);
        });
    }

    #[test]
    fn many_producers_one_consumer() {
        let mb = Mailbox::new();
        let mut got = thread::scope(|s| {
            for p in 0..4u64 {
                let mb = &mb;
                s.spawn(move || {
                    for i in 0..250u64 {
                        mb.push(p * 1000 + i);
                    }
                });
            }
            (0..1000).map(|_| mb.pop()).collect::<Vec<_>>()
        });
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 1000, "no message lost or duplicated");
    }
}
