//! # pic-core — the PIC Parallel Research Kernel specification
//!
//! This crate implements the paper-and-pencil specification of the PIC
//! Parallel Research Kernel (Georganas, Van der Wijngaart, Mattson,
//! *"Design and Implementation of a Parallel Research Kernel for Assessing
//! Dynamic Load-Balancing Capabilities"*, IPDPS 2016):
//!
//! * a 2D periodic `L×L` mesh with fixed charges of alternating sign on the
//!   columns of mesh points ([`geometry`], [`charge`]);
//! * free particles whose charges are chosen (paper eq. 3) such that every
//!   particle travels **exactly `2k+1` cells in x per time step** and `m`
//!   cells in y, making the whole simulation analytically verifiable
//!   ([`init`], [`verify`]);
//! * the leapfrog-style equations of motion (paper eqs. 1–2) ([`motion`]);
//! * the initial particle distributions that control the induced load
//!   imbalance — geometric, sinusoidal, linear, patch, uniform ([`dist`]);
//! * dynamic particle injection/removal events (paper §III-E5) ([`events`]);
//! * a serial (and shared-memory parallel) reference engine ([`engine`]).
//!
//! The kernel is deliberately *unphysical*: mesh charges never change and the
//! force on a particle is constant within a macroscopic step. What it is
//! instead is a **workload with exactly controllable load imbalance** and an
//! O(1)-per-particle verification test sensitive to a single miscalculated
//! force or a single lost particle.
//!
//! ## Quick start
//!
//! ```
//! use pic_core::prelude::*;
//!
//! let grid = Grid::new(64).unwrap();
//! let dist = Distribution::Geometric { r: 0.99 };
//! let setup = InitConfig::new(grid, 1_000, dist).with_k(0).with_m(1);
//! let mut sim = Simulation::new(setup.build().unwrap());
//! sim.run(100);
//! let report = sim.verify();
//! assert!(report.passed());
//! ```

pub mod bin;
pub mod charge;
pub mod dist;
pub mod engine;
pub mod events;
pub mod geometry;
pub mod init;
pub mod motion;
pub mod particle;
pub mod pool;
pub mod rng;
pub mod simd;
pub mod soa;
pub mod trajectory;
pub mod verify;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::bin::BinnedStore;
    pub use crate::charge::{mesh_charge, total_force, SimConstants};
    pub use crate::dist::Distribution;
    pub use crate::engine::{Simulation, SweepMode};
    pub use crate::events::{Event, EventKind, Region};
    pub use crate::geometry::Grid;
    pub use crate::init::SimulationSetup;
    pub use crate::init::{InitConfig, InitError, RowSpread, SkewAxis};
    pub use crate::particle::Particle;
    pub use crate::simd::SimdBackend;
    pub use crate::soa::ParticleBatch;
    pub use crate::verify::{verify_particle, VerifyReport};
}

pub use prelude::*;
