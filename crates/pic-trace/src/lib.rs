//! # pic-trace — load-balance observability
//!
//! The paper's subject is *assessing* dynamic load balancing; this crate
//! is the instrument. A [`Tracer`] rides along any of the kernel's
//! execution loops and records, per step:
//!
//! * **phase timers** — advance / exchange / balance / verify wall time,
//! * **counters** — particles rehomed, border cells handed over by cut
//!   movement, bytes through collectives, wire messages,
//! * **load snapshots** — a per-rank (or per-column, serially) load
//!   vector reduced into [`pic_cluster::stats::BalanceStats`].
//!
//! Output is newline-delimited JSON (one record per line) plus an
//! end-of-run summary; [`validate_ndjson`] and the [`Json`] parser let
//! tests and the CI smoke check read it back without serde.
//!
//! The disabled tracer ([`Tracer::disabled`]) is free: every hot-path
//! method inlines to a null check, verified by a counting-allocator test.
//! See DESIGN.md ("Trace record schema").

pub mod json;
pub mod serial;
pub mod tracer;

pub use json::{validate_ndjson, Json, NdjsonCheck, ParseError};
pub use serial::trace_simulation;
pub use tracer::{
    Counter, CutRecord, Phase, StepRecord, SwitchRecord, TraceReport, TraceSummary, Tracer,
    COUNTER_COUNT, PHASE_COUNT, SCHEMA_VERSION,
};
