//! # pic-comm — an MPI-like message-passing substrate
//!
//! The paper's reference implementations are MPI programs. This crate
//! provides the subset of MPI semantics they call, with a **threads
//! backend**: each rank is an OS thread of one world ([`run_threads`]),
//! every ordered rank pair has one FIFO mailbox, and every collective
//! (allgatherv, `u64` vector and scalar allreduce) is one round of the
//! personalized all-to-all that every step's exchange runs
//! ([`alltoallv_take_into`]). A message is `u64` words (every collective)
//! or a particle buffer (the exchange), moved through the mailbox by
//! ownership.
//!
//! Key MPI semantics preserved:
//!
//! * **Non-overtaking without tags** — every rank calls the collectives in
//!   the same order and each sends one message per rank pair, so the k-th
//!   message a rank takes from a peer is the k-th one that peer sent it.
//! * **Deterministic collectives** — every rank folds every rank's
//!   contribution in rank order, so every rank returns the same bits.
//! * **Sends never block** — [`alltoallv_take_into`] posts every message
//!   before its first receive, so no rank waits on a peer to send.
//! * **A failed rank fails the job** — a rank that panics aborts the world
//!   with an error naming it; no peer is left blocked in a receive.
//!
//! ```
//! use pic_comm::world::run_threads;
//! use pic_comm::collective::allreduce_u64;
//! use pic_comm::comm::ReduceOp;
//!
//! let sums = run_threads(4, |comm| {
//!     allreduce_u64(&comm, comm.rank() as u64, ReduceOp::Sum)
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

mod chan;
pub mod collective;
pub mod comm;
pub mod payload;
pub mod world;

pub use collective::*;
pub use comm::{Communicator, ReduceOp};
pub use payload::{Payload, WirePayload};
pub use world::run_threads;
