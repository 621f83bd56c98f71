//! An unbounded MPMC channel on `Mutex` + `Condvar`, std-only.
//!
//! This is the wire under [`Endpoint`](crate::endpoint::Endpoint). The
//! message-passing substrate needs exactly three things from a channel:
//! unbounded buffering (eager-protocol sends never block), blocking
//! receive, and disconnect detection so a dropped world turns into a clear
//! panic instead of a deadlock. A mutex-guarded `VecDeque` provides all
//! three; per-message lock traffic is irrelevant next to the simulated
//! work per message, and the kernel's *hot* path (the particle sweep) does
//! not touch channels at all.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

struct Inner<T> {
    queue: Mutex<VecDeque<T>>,
    ready: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

/// Error returned by [`Sender::send`] when every receiver is gone; carries
/// the unsent message back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`] when the queue is empty and every
/// sender is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Enqueue a message. Never blocks; fails only if every receiver has
    /// been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        if self.inner.receivers.load(Ordering::Acquire) == 0 {
            return Err(SendError(value));
        }
        self.inner.queue.lock().unwrap().push_back(value);
        self.inner.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender gone: wake blocked receivers so they can error
            // out instead of waiting forever.
            let _guard = self.inner.queue.lock().unwrap();
            self.inner.ready.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocking receive: returns the next message, or [`RecvError`] once
    /// the queue is drained and no sender remains.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut queue = self.inner.queue.lock().unwrap();
        loop {
            if let Some(v) = queue.pop_front() {
                return Ok(v);
            }
            if self.inner.senders.load(Ordering::Acquire) == 0 {
                return Err(RecvError);
            }
            queue = self.inner.ready.wait(queue).unwrap();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.receivers.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn recv_errors_after_all_senders_drop() {
        let (tx, rx) = unbounded();
        tx.send(1u8).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_errors_after_receiver_drops() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(9u8), Err(SendError(9)));
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = unbounded();
        let t = thread::spawn(move || rx.recv().unwrap());
        thread::sleep(std::time::Duration::from_millis(20));
        tx.send(123u32).unwrap();
        assert_eq!(t.join().unwrap(), 123);
    }

    #[test]
    fn blocking_recv_wakes_on_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        let t = thread::spawn(move || rx.recv());
        thread::sleep(std::time::Duration::from_millis(20));
        drop(tx);
        assert_eq!(t.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn many_producers_one_consumer() {
        let (tx, rx) = unbounded();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..250u64 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(got.len(), 1000);
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 1000, "no message lost or duplicated");
    }
}
