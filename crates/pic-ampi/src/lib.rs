//! # pic-ampi — Adaptive-MPI-style virtualization
//!
//! The paper's third implementation (§IV-C) runs the unmodified baseline
//! algorithm over-decomposed onto `d · P` **virtual processors** (VPs) and
//! delegates balancing to the runtime: every `F` steps a load balancer
//! migrates VPs between cores, oblivious of the application's spatial
//! locality. This crate reproduces those mechanics:
//!
//! * [`vp`] — the VP grid (an over-decomposed Cartesian decomposition) and
//!   the locality-preserving initial VP→core placement;
//! * [`Balancer`] — the runtime strategy selector (decision logic in
//!   [`pic_cluster::balancer`]): [`Balancer::Refine`] ("migrates VPs from
//!   the most loaded to the least loaded core", the strategy the paper
//!   selected), [`Balancer::Greedy`] (full Charm++-GreedyLB-style remap)
//!   and `None`. Object-migration strategies in the Charm++ mold, and
//!   deliberately locality-oblivious — the property the paper's
//!   experiments probe;
//! * [`runtime`] — a functional threaded execution: each `pic-comm` rank
//!   plays a core driving its assigned VPs, with VP migration, particle
//!   routing through the VP ownership map, and full verification;
//! * [`model`] — the same mechanics against the analytic load model for
//!   full-scale modeled runs (Figures 5–7), including the runtime's
//!   invocation overhead, migration volume, and the post-migration
//!   fragmentation penalty (interior VP traffic turning remote).

pub mod model;
pub mod runtime;
pub mod vp;

pub use model::{model_ampi, AmpiParams};
/// Strategy selector of the VP runtime.
pub use pic_cluster::balancer::VpStrategy as Balancer;
pub use runtime::run_ampi;
pub use vp::VpGrid;
