//! Spans recorded by the benchmark's own code around calls into each
//! layer's public functions. Nothing inside the program is instrumented.
//!
//! Every thread (the main thread, or one rank) owns a [`Recorder`]; spans
//! stay in memory and are reduced across ranks once the run has ended.

use crate::host::thread_cpu_ns;
use std::time::Instant;

/// One timed layer boundary, named after the crate behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    CoreInit,
    CommWorld,
    ParRankInit,
    ParStep,
    ParBalanceGather,
    ClusterDecide,
    ParBalanceApply,
    ParVerify,
    AmpiRun,
    CoreStoreBuild,
    CoreStep,
    CoreVerify,
}

impl Span {
    pub const ALL: [Span; 12] = [
        Span::CoreInit,
        Span::CommWorld,
        Span::ParRankInit,
        Span::ParStep,
        Span::ParBalanceGather,
        Span::ClusterDecide,
        Span::ParBalanceApply,
        Span::ParVerify,
        Span::AmpiRun,
        Span::CoreStoreBuild,
        Span::CoreStep,
        Span::CoreVerify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::CoreInit => "core.init",
            Span::CommWorld => "comm.world",
            Span::ParRankInit => "par.rank_init",
            Span::ParStep => "par.step",
            Span::ParBalanceGather => "par.balance.gather",
            Span::ClusterDecide => "cluster.decide",
            Span::ParBalanceApply => "par.balance.apply",
            Span::ParVerify => "par.verify",
            Span::AmpiRun => "ampi.run",
            Span::CoreStoreBuild => "core.store_build",
            Span::CoreStep => "core.step",
            Span::CoreVerify => "core.verify",
        }
    }
}

/// The spans of one thread: wall time of every call, and CPU time per span.
#[derive(Debug, Clone)]
pub struct Recorder {
    wall_ns: Vec<Vec<u64>>,
    cpu_ns: Vec<u64>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            wall_ns: vec![Vec::new(); Span::ALL.len()],
            cpu_ns: vec![0; Span::ALL.len()],
        }
    }
}

impl Recorder {
    /// Run `f` as one call of `span` on the calling thread.
    pub fn time<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        let (cpu0, t0) = (thread_cpu_ns(), Instant::now());
        let out = f();
        let wall = t0.elapsed().as_nanos() as u64;
        self.record(span, wall, thread_cpu_ns().saturating_sub(cpu0));
        out
    }

    /// Record a call that was timed by other means.
    pub fn record(&mut self, span: Span, wall_ns: u64, cpu_ns: u64) {
        self.wall_ns[span as usize].push(wall_ns);
        self.cpu_ns[span as usize] += cpu_ns;
    }

    /// Wall time of each call of `span`, in call order.
    pub fn calls(&self, span: Span) -> &[u64] {
        &self.wall_ns[span as usize]
    }

    pub fn wall_total_ns(&self, span: Span) -> u64 {
        self.calls(span).iter().sum()
    }

    pub fn cpu_total_ns(&self, span: Span) -> u64 {
        self.cpu_ns[span as usize]
    }

    /// Wall time of all spans together.
    pub fn covered_ns(&self) -> u64 {
        Span::ALL.iter().map(|&s| self.wall_total_ns(s)).sum()
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> u64 {
        self.wall_ns.iter().map(|calls| calls.len() as u64).sum()
    }
}

/// What recording one span costs on this host, in ns: two reads of each
/// clock and a push. Measured, because the thread-CPU clock is a system
/// call whose price depends on the kernel and the hypervisor.
pub fn cost_per_span_ns() -> f64 {
    const SPANS: u32 = 20_000;
    let mut rec = Recorder::default();
    let t0 = Instant::now();
    for _ in 0..SPANS {
        rec.time(Span::CoreInit, || ());
    }
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(&rec);
    ns / SPANS as f64
}

/// One span reduced over the threads that recorded it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Largest per-thread wall total: the result waits for the slowest.
    pub wall_ms: f64,
    /// CPU time summed over threads: the work done.
    pub cpu_ms: f64,
    /// Largest per-thread `wall − cpu`: time blocked, not working.
    pub wait_ms: f64,
    /// Calls on one thread (every rank makes the same calls).
    pub calls: u64,
}

pub fn reduce(span: Span, recorders: &[&Recorder]) -> SpanStats {
    let mut out = SpanStats::default();
    for r in recorders {
        let (wall, cpu) = (r.wall_total_ns(span), r.cpu_total_ns(span));
        out.wall_ms = out.wall_ms.max(wall as f64 / 1e6);
        out.cpu_ms += cpu as f64 / 1e6;
        out.wait_ms = out.wait_ms.max(wall.saturating_sub(cpu) as f64 / 1e6);
        out.calls = out.calls.max(r.calls(span).len() as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_indexed_in_order() {
        for (i, s) in Span::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert_eq!(Span::ALL.iter().filter(|o| o.name() == s.name()).count(), 1);
        }
    }

    #[test]
    fn reduce_takes_max_wall_sum_cpu_max_wait() {
        let mut a = Recorder::default();
        a.record(Span::ParStep, 4_000_000, 3_000_000);
        a.record(Span::ParStep, 2_000_000, 2_000_000);
        let mut b = Recorder::default();
        b.record(Span::ParStep, 5_000_000, 1_000_000);
        let s = reduce(Span::ParStep, &[&a, &b]);
        assert_eq!(s.wall_ms, 6.0);
        assert_eq!(s.cpu_ms, 6.0);
        assert_eq!(s.wait_ms, 4.0);
        assert_eq!(s.calls, 2);
        assert_eq!(a.covered_ns(), 6_000_000);
        assert_eq!(a.span_count(), 2);
        assert_eq!(reduce(Span::CoreStep, &[&a, &b]), SpanStats::default());
    }

    #[test]
    fn time_records_one_call_and_returns_the_value() {
        let mut r = Recorder::default();
        let v = r.time(Span::CoreInit, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(r.calls(Span::CoreInit).len(), 1);
    }
}
