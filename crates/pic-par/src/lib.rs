//! # pic-par — parallel PIC PRK implementations
//!
//! The paper's three distributed implementations, ported onto the
//! `pic-comm` substrate. One door, [`run_config`] (traced form
//! [`run_config_traced`]), runs whichever [`BalancerSpec`] the
//! [`ParConfig`] names through the one trait-driven rank loop, whose rank
//! state owns cells through one [`pic_core::owner::OwnerTable`]: the
//! Cartesian cuts, one unit per rank, or the virtual processors of a
//! [`decomp::VpGrid`] on the cores a VP→core table names:
//!
//! * `BalancerSpec::Static` — **`mpi-2d`** (paper §IV-A): static 2D block
//!   decomposition, no load balancing. Each rank advances the particles in
//!   its subdomain and exchanges leavers with the owners of their new
//!   cells every step.
//! * `BalancerSpec::Diffusion` — **`mpi-2d-LB`** (paper §IV-B, parameters
//!   in [`diffusion`]): the same, plus a diffusion-based
//!   application-specific balancer: every `interval` steps
//!   the per-processor-column particle counts are aggregated; adjacent
//!   columns whose counts differ by more than the threshold `τ` shift the
//!   cut between them by `border_w` cells toward the heavy side, and the
//!   affected cells' particles migrate to the horizontal neighbor. The
//!   decomposition stays a Cartesian product (rectangular subdomains,
//!   regular neighbor communication) exactly as the paper argues for.
//! * `BalancerSpec::Adaptive` — online switching over the cut ladder
//!   static → diffusion → wide diffusion.
//! * `BalancerSpec::Vp` — **`ampi`** (paper §IV-C): the baseline
//!   over-decomposed onto `d · P` virtual processors, with a runtime
//!   balancer migrating VPs between cores every `interval` steps
//!   ([`AmpiParams`] names the same run; `pic-ampi` holds its door).
//!   One [`pic_cluster::balancer::VpStrategy`] serves the whole run, as in the paper.
//!
//! All are *verified*: each rank checks its final particles against the
//! analytic trajectories and the world reduces the id checksum.
//!
//! [`model_impl`] re-expresses the three strategies against the analytic
//! load model for full-scale modeled runs (Figures 5–7): one step loop
//! over the same two ownership maps.

pub mod balance;
pub mod decomp;
pub mod diffusion;
pub mod exchange;
pub mod model_impl;
pub mod runner;

pub use balance::{run_config, run_config_traced, run_spec_traced, AmpiParams, BalancerSpec};
pub use decomp::Decomp2d;
pub use diffusion::{DiffusionMode, DiffusionParams};
pub use runner::{ParConfig, ParOutcome};
