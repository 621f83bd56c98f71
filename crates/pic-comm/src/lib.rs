//! # pic-comm — an MPI-like message-passing substrate
//!
//! The paper's reference implementations are MPI programs. This crate
//! provides the subset of MPI semantics they call, with a **threads
//! backend**: each rank is an OS thread of one world ([`run_threads`]),
//! point-to-point messages are tag-matched payloads over in-process
//! channels, and the collectives (broadcast, gatherv/allgatherv, `u64`
//! vector reduce/allreduce, scalar `u64`/`f64`/`u128` allreduce, and the
//! personalized alltoallv, synchronous or split-phase) are built on top of
//! point-to-point exactly as a textbook MPI would build them — so the
//! communication *structure* of the ported kernels is faithful even though
//! the transport is shared memory.
//!
//! Key MPI semantics preserved:
//!
//! * **Tag + source matching with out-of-order delivery tolerance** — a
//!   receive for `(src, tag)` skips over and queues non-matching messages;
//!   collective-internal tags live apart from user tags.
//! * **Deterministic collectives** — reductions fold along a fixed
//!   binomial tree, so floating-point results are reproducible run to run.
//! * **Sends never block** — a split-phase start
//!   ([`alltoallv_start`]) posts every message and returns without waiting
//!   for a peer, so a rank can compute while its messages are in flight.
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

pub mod chan;
pub mod collective;
pub mod comm;
pub mod endpoint;
pub mod payload;
pub mod world;

pub use collective::*;
pub use comm::{Communicator, ReduceOp, Tag};
pub use payload::{Payload, PayloadKind, WirePayload};
pub use world::run_threads;
