//! # pic-cluster — machine model, cost model, and the analytic load model
//!
//! The paper's experiments ran on NERSC's Edison (Cray XC30: 2×12-core
//! Xeon E5-2695 v2 per node, Aries Dragonfly interconnect) at up to 3,072
//! cores. This host has 2 vCPUs, so the scaling figures are reproduced
//! through a deterministic **performance model**:
//!
//! * [`machine`] — a node/socket/core hierarchy with distance classes;
//! * [`cost`] — calibrated per-particle compute cost and per-distance
//!   message latency/bandwidth, Edison-era defaults;
//! * [`bsp`] — a bulk-synchronous phase simulator: per step, the step time
//!   is the maximum over cores of (compute + communication) plus a
//!   synchronization term; totals and imbalance statistics accumulate;
//! * [`loadmodel`] — the key enabler: the PIC PRK's drift is deterministic
//!   (the whole particle distribution shifts `2k+1` cells per step), so the
//!   particle count inside **any** rectangle at **any** step is an O(1)
//!   prefix-sum query. Full-scale runs never move individual particles.
//!
//! Functional correctness of the implementations is established separately
//! at small scale on the `pic-comm` threads backend; this crate only
//! answers "how long would this decomposition/balancing strategy take on a
//! big machine", which is exactly what the paper's figures compare.

pub mod balancer;
pub mod bsp;
pub mod cost;
pub mod loadmodel;
pub mod machine;
pub mod noise;
pub mod stats;
