//! # pic-ampi — Adaptive-MPI-style virtualization
//!
//! The paper's third implementation (§IV-C) runs the unmodified baseline
//! algorithm over-decomposed onto `d · P` **virtual processors** (VPs) and
//! delegates balancing to the runtime: every `F` steps a load balancer
//! migrates VPs between cores, oblivious of the application's spatial
//! locality. The functional runtime is `pic-par`'s one rank loop under a
//! VP ownership map (`BalancerSpec::Vp`); this crate holds what is AMPI's
//! own:
//!
//! * [`VpGrid`] — the VP grid (an over-decomposed Cartesian decomposition)
//!   and the locality-preserving initial VP→core placement, re-exported
//!   from [`pic_par::decomp`];
//! * [`Balancer`] — the runtime strategy selector (decision logic in
//!   [`pic_cluster::balancer`]): [`Balancer::Refine`] ("migrates VPs from
//!   the most loaded to the least loaded core", the strategy the paper
//!   selected), [`Balancer::Greedy`] (full Charm++-GreedyLB-style remap)
//!   and `None` (over-decomposition alone, the ablation). A run keeps
//!   one strategy, as the paper's runs do: there is no switching ladder
//!   over them. Object-migration strategies in the Charm++ mold, and
//!   deliberately locality-oblivious — the property the paper's
//!   experiments probe;
//! * [`runtime`] — [`run_ampi`], the [`AmpiParams`] door into that loop
//!   (the parameters are re-exported from [`pic_par`]): each `pic-comm`
//!   rank plays a core driving its assigned VPs, with VP migration,
//!   particle routing through the VP ownership map, and full verification.
//!
//! The same mechanics against the analytic load model, for the full-scale
//! Figures 5–7, are `pic_par::model_impl::model_ampi`.

pub mod runtime;

/// Strategy selector of the VP runtime.
pub use pic_cluster::balancer::VpStrategy as Balancer;
pub use pic_par::decomp::VpGrid;
pub use pic_par::AmpiParams;
pub use runtime::run_ampi;
