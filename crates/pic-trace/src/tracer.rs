//! The [`Tracer`]: step-scoped phase timers, migration counters, and
//! per-step load snapshots, emitted as newline-delimited JSON.
//!
//! # Zero overhead when disabled
//!
//! [`Tracer::disabled()`] is a `None` behind a single pointer-sized
//! option; every hot-path method is `#[inline]` and reduces to one null
//! check — no clock reads, no allocation, no branching on record
//! contents. `tests/disabled_overhead.rs` pins this with the workspace
//! counting-allocator pattern, and `benches/trace_overhead.rs` guards the
//! sweep loop.
//!
//! # Record stream
//!
//! An enabled tracer writes one JSON object per line:
//!
//! * `{"type":"run", ...}` — once, at [`Tracer::emit_run_header`].
//! * `{"type":"step", ...}` — at every step where `step % every == 0`.
//!   Phase times and counters cover the window since the previous step
//!   record (per-step values when `every == 1`).
//! * `{"type":"cuts", ...}` — one per cut-movement decision, unsampled.
//! * `{"type":"switch", ...}` — one per adaptive strategy switch, unsampled.
//! * `{"type":"summary", ...}` — once, from [`Tracer::finish`].
//!
//! Non-finite floats have no JSON representation and are emitted as
//! `null`; the CI smoke check treats that as a failure, which is the
//! point. See DESIGN.md ("Trace record schema") for the full field list.

use pic_cluster::stats::BalanceStats;
use std::fmt::Write as _;
use std::io::Write;
use std::time::Instant;

/// Trace schema version, stamped into run-header and summary records.
pub const SCHEMA_VERSION: u64 = 1;

/// Nanoseconds of CPU time consumed by the calling thread.
///
/// Unlike a wall clock, this does not advance while the thread is
/// blocked (channel receives, condvar waits), so phase *CPU* totals
/// measure work where phase *wall* totals measure work plus waiting —
/// the late-sender separation: a rank stalled in an exchange receive
/// accrues exchange wall time but no exchange CPU time. On non-Linux
/// targets this falls back to a monotonic wall clock (CPU == wall).
#[inline]
pub fn thread_cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    {
        // CLOCK_THREAD_CPUTIME_ID, per-thread CPU clock. Declared by
        // hand: the build is offline/std-only, and std already links
        // libc on every Linux target.
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec; the clock id is a
        // compile-time constant the kernel has supported since 2.6.12.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return (ts.tv_sec as u64).saturating_mul(1_000_000_000) + ts.tv_nsec as u64;
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        use std::sync::OnceLock;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Execution phases timed within a step. Units are nanoseconds of
/// wall-clock time on the recording rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Local particle work: force evaluation + position update (the sweep).
    Advance,
    /// Particle routing between ranks (rehoming / migration traffic).
    Exchange,
    /// Load-balancing decision plus the migration it triggers.
    Balance,
    /// End-of-run verification (trajectory check + id checksum).
    Verify,
}

/// Number of [`Phase`] variants (array-index bound).
pub const PHASE_COUNT: usize = 4;

impl Phase {
    /// All phases, in emission order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Advance,
        Phase::Exchange,
        Phase::Balance,
        Phase::Verify,
    ];

    /// Field-name stem; records use `"<name>_ns"`.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Advance => "advance",
            Phase::Exchange => "exchange",
            Phase::Balance => "balance",
            Phase::Verify => "verify",
        }
    }

    /// Index into `phase_ns` arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Monotonic event counters accumulated between step records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Particles handed to another rank (global sum at traced steps).
    Rehomed,
    /// Border cells handed over by cut movement: Σ |new − old| × cells
    /// per column/row, exact because cut decisions replicate on all ranks.
    BorderCells,
    /// Bytes pushed through collectives by the recording rank.
    CollectiveBytes,
    /// Counting-sort (rebin) invocations in the binned store.
    Rebins,
    /// Exchange payload messages actually put on the wire (global sum at
    /// traced steps; the dense pattern sends one per rank pair per step).
    MsgsSent,
    /// Exchange payload messages the sparse protocol elided (global sum at
    /// traced steps); `sent + skipped` = what dense would have sent.
    MsgsSkipped,
    /// Nanoseconds the recording rank spent advancing interior columns
    /// while exchange messages were in flight (the overlap window).
    OverlapNs,
}

/// Number of [`Counter`] variants (array-index bound).
pub const COUNTER_COUNT: usize = 7;

impl Counter {
    /// All counters, in emission order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::Rehomed,
        Counter::BorderCells,
        Counter::CollectiveBytes,
        Counter::Rebins,
        Counter::MsgsSent,
        Counter::MsgsSkipped,
        Counter::OverlapNs,
    ];

    /// JSON field name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Rehomed => "rehomed",
            Counter::BorderCells => "border_cells",
            Counter::CollectiveBytes => "collective_bytes",
            Counter::Rebins => "rebins",
            Counter::MsgsSent => "msgs_sent",
            Counter::MsgsSkipped => "msgs_skipped",
            Counter::OverlapNs => "overlap_ns",
        }
    }

    /// Index into `counters` arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// One emitted step record (the in-memory twin of a `"step"` line).
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    pub step: u64,
    /// Global particle count after the step.
    pub particles: u64,
    /// Per-phase nanoseconds since the previous step record ([`Phase::ALL`] order).
    pub phase_ns: [u64; PHASE_COUNT],
    /// Counter deltas since the previous step record ([`Counter::ALL`] order).
    pub counters: [u64; COUNTER_COUNT],
    /// The raw load vector behind `stats` (empty if none was recorded).
    pub loads: Vec<f64>,
    /// Balance statistics of `loads`.
    pub stats: Option<BalanceStats>,
}

/// One adaptive strategy switch (the in-memory twin of a `"switch"` line).
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchRecord {
    pub step: u64,
    /// Name of the strategy that was active before the switch.
    pub from: String,
    /// Name of the strategy now in effect.
    pub to: String,
    /// The windowed imbalance signal that triggered the switch.
    pub imbalance: f64,
}

/// One cut-movement decision (the in-memory twin of a `"cuts"` line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutRecord {
    pub step: u64,
    /// `'x'` or `'y'`.
    pub axis: char,
    /// Cut positions before the decision.
    pub old: Vec<usize>,
    /// The per-slab counts the decision saw.
    pub counts: Vec<u64>,
    /// Cut positions after the decision.
    pub new: Vec<usize>,
}

/// End-of-run totals (the in-memory twin of the `"summary"` line).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Steps traced (every step between header and finish).
    pub steps: u64,
    /// Step records actually emitted (`steps / every`, roughly).
    pub records: u64,
    /// Whole-run per-phase nanoseconds.
    pub phase_ns: [u64; PHASE_COUNT],
    /// Whole-run per-phase *CPU* nanoseconds ([`thread_cpu_ns`] deltas):
    /// work only, excluding blocked time, where `phase_ns` includes the
    /// waiting. In-memory only — the ndjson summary record (schema 1)
    /// carries the wall totals.
    pub phase_cpu_ns: [u64; PHASE_COUNT],
    /// Whole-run counter totals.
    pub counters: [u64; COUNTER_COUNT],
    /// Max `max/mean` imbalance over emitted records (1.0 if none).
    pub max_imbalance: f64,
    /// Mean `max/mean` imbalance over emitted records (1.0 if none).
    pub mean_imbalance: f64,
    /// Max Gini coefficient over emitted records.
    pub max_gini: f64,
    /// Global particle count at the last `end_step`.
    pub final_particles: u64,
    /// Balancer identity from the run header (`"none"` if never set).
    pub balancer: String,
    /// Number of adaptive strategy switches recorded.
    pub switches: u64,
}

/// Everything an enabled tracer captured, returned by [`Tracer::finish`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    pub summary: TraceSummary,
    pub steps: Vec<StepRecord>,
    pub cuts: Vec<CutRecord>,
    pub switches: Vec<SwitchRecord>,
    /// The full ndjson stream, byte-identical to what the writer received
    /// unless `write_error` is set.
    pub ndjson: String,
    /// The first I/O error of the writer, as it displays (`None` in memory
    /// or when every line and the final flush went through). The stream was
    /// closed at that point, so the file is incomplete.
    pub write_error: Option<String>,
}

struct Inner {
    every: u32,
    writer: Option<Box<dyn Write + Send>>,
    write_error: Option<String>,
    ndjson: String,
    steps: Vec<StepRecord>,
    cuts: Vec<CutRecord>,
    switches: Vec<SwitchRecord>,
    balancer: String,
    // Current-window scratch, reset whenever a step record is emitted.
    cur_step: u64,
    pend_phase_ns: [u64; PHASE_COUNT],
    pend_counters: [u64; COUNTER_COUNT],
    cur_loads: Vec<f64>,
    cur_stats: Option<BalanceStats>,
    phase_open: [Option<(Instant, u64)>; PHASE_COUNT],
    // Whole-run aggregates.
    total_steps: u64,
    total_phase_ns: [u64; PHASE_COUNT],
    total_phase_cpu_ns: [u64; PHASE_COUNT],
    total_counters: [u64; COUNTER_COUNT],
    imb_sum: f64,
    imb_max: f64,
    gini_max: f64,
    n_stats: u64,
    last_particles: u64,
}

/// Step-scoped telemetry recorder; see the [module docs](self) for the
/// record stream it produces and the zero-overhead contract.
pub struct Tracer {
    inner: Option<Box<Inner>>,
}

impl Tracer {
    /// The no-op tracer every hot path takes by default. All methods on a
    /// disabled tracer reduce to a null check: no clocks, no allocation.
    #[inline]
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer that keeps records in memory only (tests, bench
    /// reports). `every` is the step-record sampling interval (clamped ≥ 1).
    pub fn in_memory(every: u32) -> Tracer {
        Tracer::build(None, every)
    }

    /// An enabled tracer that additionally streams ndjson lines to `w`.
    pub fn to_writer(w: Box<dyn Write + Send>, every: u32) -> Tracer {
        Tracer::build(Some(w), every)
    }

    fn build(writer: Option<Box<dyn Write + Send>>, every: u32) -> Tracer {
        Tracer {
            inner: Some(Box::new(Inner {
                every: every.max(1),
                writer,
                write_error: None,
                ndjson: String::new(),
                steps: Vec::new(),
                cuts: Vec::new(),
                switches: Vec::new(),
                balancer: String::from("none"),
                cur_step: 0,
                pend_phase_ns: [0; PHASE_COUNT],
                pend_counters: [0; COUNTER_COUNT],
                cur_loads: Vec::new(),
                cur_stats: None,
                phase_open: [None; PHASE_COUNT],
                total_steps: 0,
                total_phase_ns: [0; PHASE_COUNT],
                total_phase_cpu_ns: [0; PHASE_COUNT],
                total_counters: [0; COUNTER_COUNT],
                imb_sum: 0.0,
                imb_max: 1.0,
                gini_max: 0.0,
                n_stats: 0,
                last_particles: 0,
            })),
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Step-record sampling interval; 0 when disabled. Parallel runners
    /// reduce this across ranks so every rank joins the load-gather
    /// collectives at the same steps.
    #[inline]
    pub fn sample_every(&self) -> u32 {
        match &self.inner {
            Some(i) => i.every,
            None => 0,
        }
    }

    /// Would `end_step` emit a record for `step`? Callers gate the work of
    /// assembling a load snapshot on this.
    #[inline]
    pub fn wants_step(&self, step: u64) -> bool {
        match &self.inner {
            Some(i) => step.is_multiple_of(i.every as u64),
            None => false,
        }
    }

    /// Emit the one-line run header. `simd` is the kernel descriptor
    /// (`Simulation::kernel_desc`: `"<backend>/exact"`, or `"none"` for
    /// the serial AoS sweep), recorded so a trace always states which
    /// force kernel produced it. `balancer` is the load-balancing strategy in effect
    /// (`"none"`, `"static"`, `"diffusion"`, `"vp-refine"`, `"adaptive"`,
    /// ...), recorded here and in the summary so downstream tables can
    /// attribute results to the strategy that produced them.
    pub fn emit_run_header(
        &mut self,
        impl_name: &str,
        ranks: usize,
        particles: u64,
        steps: u64,
        simd: &str,
        balancer: &str,
    ) {
        if let Some(i) = &mut self.inner {
            i.balancer = balancer.to_string();
            let mut line = String::with_capacity(128);
            let _ = write!(
                line,
                "{{\"type\":\"run\",\"schema\":{SCHEMA_VERSION},\"impl\":{},\
                 \"ranks\":{ranks},\"particles\":{particles},\"steps\":{steps},\
                 \"every\":{},\"simd\":{},\"balancer\":{}}}",
                json_str(impl_name),
                i.every,
                json_str(simd),
                json_str(balancer)
            );
            i.emit(&line);
        }
    }

    /// Open step `step` (1-based, matching the engine's step index).
    #[inline]
    pub fn begin_step(&mut self, step: u64) {
        if let Some(i) = &mut self.inner {
            i.cur_step = step;
            i.cur_loads.clear();
            i.cur_stats = None;
            i.phase_open = [None; PHASE_COUNT];
        }
    }

    /// Start timing `p`. Unbalanced or nested starts of the same phase
    /// restart its clock.
    #[inline]
    pub fn phase_start(&mut self, p: Phase) {
        if let Some(i) = &mut self.inner {
            i.phase_open[p.idx()] = Some((Instant::now(), thread_cpu_ns()));
        }
    }

    /// Stop timing `p`, accumulating into the current window and run
    /// totals. A `phase_end` without a matching start is a no-op.
    #[inline]
    pub fn phase_end(&mut self, p: Phase) {
        if let Some(i) = &mut self.inner {
            if let Some((t0, cpu0)) = i.phase_open[p.idx()].take() {
                let ns = t0.elapsed().as_nanos() as u64;
                i.pend_phase_ns[p.idx()] += ns;
                i.total_phase_ns[p.idx()] += ns;
                i.total_phase_cpu_ns[p.idx()] += thread_cpu_ns().saturating_sub(cpu0);
            }
        }
    }

    /// Add `n` to counter `c`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        if let Some(i) = &mut self.inner {
            i.pend_counters[c.idx()] += n;
            i.total_counters[c.idx()] += n;
        }
    }

    /// Record the load vector for the current step; reduces it into
    /// [`BalanceStats`] for the step record. Call only at steps where
    /// [`Tracer::wants_step`] is true (snapshots at other steps are
    /// overwritten unseen).
    pub fn record_loads(&mut self, loads: &[f64]) {
        if let Some(i) = &mut self.inner {
            i.cur_loads.clear();
            i.cur_loads.extend_from_slice(loads);
            i.cur_stats = Some(BalanceStats::from_loads(loads));
        }
    }

    /// Record one cut-movement decision; emits a `"cuts"` line
    /// immediately (decisions are rare and never sampled away).
    pub fn record_cuts(&mut self, axis: char, old: &[usize], counts: &[u64], new: &[usize]) {
        if let Some(i) = &mut self.inner {
            let rec = CutRecord {
                step: i.cur_step,
                axis,
                old: old.to_vec(),
                counts: counts.to_vec(),
                new: new.to_vec(),
            };
            let mut line = String::with_capacity(96);
            let _ = write!(
                line,
                "{{\"type\":\"cuts\",\"step\":{},\"axis\":\"{}\"",
                rec.step, axis
            );
            line.push_str(",\"old\":");
            push_usize_arr(&mut line, &rec.old);
            line.push_str(",\"counts\":");
            push_u64_arr(&mut line, &rec.counts);
            line.push_str(",\"new\":");
            push_usize_arr(&mut line, &rec.new);
            line.push('}');
            i.emit(&line);
            i.cuts.push(rec);
        }
    }

    /// Record one adaptive strategy switch; emits a `"switch"` line
    /// immediately (switches are rare and never sampled away).
    pub fn record_switch(&mut self, from: &str, to: &str, imbalance: f64) {
        if let Some(i) = &mut self.inner {
            let rec = SwitchRecord {
                step: i.cur_step,
                from: from.to_string(),
                to: to.to_string(),
                imbalance,
            };
            let mut line = String::with_capacity(96);
            let _ = write!(
                line,
                "{{\"type\":\"switch\",\"step\":{},\"from\":{},\"to\":{}",
                rec.step,
                json_str(from),
                json_str(to)
            );
            line.push_str(",\"imbalance\":");
            push_f64(&mut line, imbalance);
            line.push('}');
            i.emit(&line);
            i.switches.push(rec);
        }
    }

    /// Close the current step. Emits a step record when `step % every ==
    /// 0`; the record's phase times and counters cover the window since
    /// the previous record.
    #[inline]
    pub fn end_step(&mut self, particles: u64) {
        if let Some(i) = &mut self.inner {
            i.total_steps += 1;
            i.last_particles = particles;
            if i.cur_step.is_multiple_of(i.every as u64) {
                i.emit_step_record(particles);
            }
        }
    }

    /// Pin the summary's `final_particles` with an exact global count
    /// (e.g. from the outcome's final collectives); otherwise the value
    /// from the last `end_step` is used, which between snapshots may lag
    /// behind injections/removals.
    pub fn set_final_particles(&mut self, n: u64) {
        if let Some(i) = &mut self.inner {
            i.last_particles = n;
        }
    }

    /// Emit the summary line, flush the writer, and hand back everything
    /// recorded — a failed write included ([`TraceReport::write_error`]).
    /// `None` for a disabled tracer.
    pub fn finish(self) -> Option<TraceReport> {
        let mut i = self.inner?;
        let summary = TraceSummary {
            steps: i.total_steps,
            records: i.steps.len() as u64,
            phase_ns: i.total_phase_ns,
            phase_cpu_ns: i.total_phase_cpu_ns,
            counters: i.total_counters,
            max_imbalance: i.imb_max,
            mean_imbalance: if i.n_stats == 0 {
                1.0
            } else {
                i.imb_sum / i.n_stats as f64
            },
            max_gini: i.gini_max,
            final_particles: i.last_particles,
            balancer: i.balancer.clone(),
            switches: i.switches.len() as u64,
        };
        let mut line = String::with_capacity(256);
        let _ = write!(
            line,
            "{{\"type\":\"summary\",\"schema\":{SCHEMA_VERSION},\"steps\":{},\"records\":{}",
            summary.steps, summary.records
        );
        for (idx, p) in Phase::ALL.iter().enumerate() {
            let _ = write!(line, ",\"{}_ns\":{}", p.name(), summary.phase_ns[idx]);
        }
        for (idx, c) in Counter::ALL.iter().enumerate() {
            let _ = write!(line, ",\"{}\":{}", c.name(), summary.counters[idx]);
        }
        line.push_str(",\"max_imbalance\":");
        push_f64(&mut line, summary.max_imbalance);
        line.push_str(",\"mean_imbalance\":");
        push_f64(&mut line, summary.mean_imbalance);
        line.push_str(",\"max_gini\":");
        push_f64(&mut line, summary.max_gini);
        let _ = write!(line, ",\"final_particles\":{}", summary.final_particles);
        let _ = write!(
            line,
            ",\"balancer\":{},\"switches\":{}}}",
            json_str(&summary.balancer),
            summary.switches
        );
        i.emit(&line);
        i.stream(|w| w.flush());
        Some(TraceReport {
            summary,
            steps: std::mem::take(&mut i.steps),
            cuts: std::mem::take(&mut i.cuts),
            switches: std::mem::take(&mut i.switches),
            ndjson: std::mem::take(&mut i.ndjson),
            write_error: i.write_error.take(),
        })
    }
}

impl Inner {
    fn emit(&mut self, line: &str) {
        self.ndjson.push_str(line);
        self.ndjson.push('\n');
        self.stream(|w| writeln!(w, "{line}"));
    }

    /// Run one operation on the writer. The first failure is kept for
    /// [`TraceReport::write_error`] and closes the stream: the run goes on
    /// (other ranks may be inside a collective), the file is not appended
    /// to past a hole.
    fn stream(&mut self, op: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) {
        if let Some(w) = &mut self.writer {
            if let Err(e) = op(w) {
                self.write_error = Some(e.to_string());
                self.writer = None;
            }
        }
    }

    fn emit_step_record(&mut self, particles: u64) {
        let rec = StepRecord {
            step: self.cur_step,
            particles,
            phase_ns: std::mem::take(&mut self.pend_phase_ns),
            counters: std::mem::take(&mut self.pend_counters),
            loads: std::mem::take(&mut self.cur_loads),
            stats: self.cur_stats.take(),
        };
        if let Some(st) = &rec.stats {
            self.n_stats += 1;
            self.imb_sum += st.imbalance;
            self.imb_max = self.imb_max.max(st.imbalance);
            self.gini_max = self.gini_max.max(st.gini);
        }
        let mut line = String::with_capacity(256);
        let _ = write!(
            line,
            "{{\"type\":\"step\",\"step\":{},\"particles\":{}",
            rec.step, rec.particles
        );
        for (idx, p) in Phase::ALL.iter().enumerate() {
            let _ = write!(line, ",\"{}_ns\":{}", p.name(), rec.phase_ns[idx]);
        }
        for (idx, c) in Counter::ALL.iter().enumerate() {
            let _ = write!(line, ",\"{}\":{}", c.name(), rec.counters[idx]);
        }
        if let Some(st) = &rec.stats {
            line.push_str(",\"loads\":[");
            for (idx, l) in rec.loads.iter().enumerate() {
                if idx > 0 {
                    line.push(',');
                }
                push_f64(&mut line, *l);
            }
            line.push(']');
            line.push_str(",\"load_max\":");
            push_f64(&mut line, st.max);
            line.push_str(",\"load_min\":");
            push_f64(&mut line, st.min);
            line.push_str(",\"load_mean\":");
            push_f64(&mut line, st.mean);
            line.push_str(",\"imbalance\":");
            push_f64(&mut line, st.imbalance);
            line.push_str(",\"cv\":");
            push_f64(&mut line, st.cv);
            line.push_str(",\"gini\":");
            push_f64(&mut line, st.gini);
        }
        line.push('}');
        self.emit(&line);
        self.steps.push(rec);
    }
}

/// Render `v` as a JSON number; non-finite values become `null` (JSON has
/// no NaN/inf, and downstream finiteness checks must see the hole).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_u64_arr(out: &mut String, vals: &[u64]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn push_usize_arr(out: &mut String, vals: &[usize]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// Render a JSON string literal with the escapes the grammar requires.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{validate_ndjson, Json};

    /// A phase spent blocked accrues wall time but (on Linux) almost no
    /// CPU time; a phase spent computing accrues both. This is the
    /// work-vs-wait separation every CPU-clock metric rests on.
    #[test]
    fn phase_cpu_clock_excludes_blocked_time() {
        let mut t = Tracer::in_memory(1);
        t.begin_step(1);
        t.phase_start(Phase::Advance);
        // Busy work the optimizer can't delete.
        let mut acc = 0u64;
        for i in 0..20_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        assert_ne!(acc, 1);
        t.phase_end(Phase::Advance);
        t.phase_start(Phase::Exchange);
        std::thread::sleep(std::time::Duration::from_millis(60));
        t.phase_end(Phase::Exchange);
        t.end_step(0);
        let s = t.finish().unwrap().summary;
        // Busy phase: CPU tracks wall (both nonzero; CPU never exceeds
        // wall by more than clock granularity).
        let adv = Phase::Advance.idx();
        assert!(s.phase_cpu_ns[adv] > 0, "busy phase recorded no CPU time");
        assert!(s.phase_cpu_ns[adv] <= s.phase_ns[adv] + 1_000_000);
        // Blocked phase: wall sees the sleep, the CPU clock must not.
        let ex = Phase::Exchange.idx();
        assert!(s.phase_ns[ex] >= 50_000_000, "sleep not captured in wall");
        #[cfg(target_os = "linux")]
        assert!(
            s.phase_cpu_ns[ex] < s.phase_ns[ex] / 2,
            "CPU clock counted blocked time: cpu={} wall={}",
            s.phase_cpu_ns[ex],
            s.phase_ns[ex]
        );
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = Tracer::disabled();
        assert!(!t.enabled());
        assert_eq!(t.sample_every(), 0);
        assert!(!t.wants_step(1));
        t.begin_step(1);
        t.phase_start(Phase::Advance);
        t.phase_end(Phase::Advance);
        t.add(Counter::Rehomed, 5);
        t.record_loads(&[1.0, 2.0]);
        t.record_cuts('x', &[0, 4], &[10, 2], &[0, 3]);
        t.record_switch("static", "diffusion", 1.5);
        t.end_step(100);
        assert!(t.finish().is_none());
    }

    #[test]
    fn emits_valid_ndjson_stream() {
        let mut t = Tracer::in_memory(1);
        t.emit_run_header("test", 4, 1000, 2, "avx2/exact", "adaptive");
        for s in 1..=2u64 {
            t.begin_step(s);
            t.phase_start(Phase::Advance);
            t.phase_end(Phase::Advance);
            t.add(Counter::Rehomed, 3);
            t.record_loads(&[4.0, 2.0, 1.0, 1.0]);
            t.end_step(1000);
        }
        t.record_switch("static", "diffusion", 1.75);
        t.record_cuts('x', &[0, 8, 16], &[30, 10], &[0, 6, 16]);
        let report = t.finish().unwrap();

        let check = validate_ndjson(&report.ndjson).unwrap();
        assert_eq!((check.runs, check.steps, check.cuts), (1, 2, 1));
        assert_eq!(check.switches, 1);
        let summary = check.summary.expect("summary record");
        assert_eq!(summary.get("steps").unwrap().as_u64(), Some(2));
        assert_eq!(summary.get("rehomed").unwrap().as_u64(), Some(6));
        assert_eq!(summary.get("balancer").unwrap().as_str(), Some("adaptive"));
        assert_eq!(summary.get("switches").unwrap().as_u64(), Some(1));
        assert_eq!(report.summary.balancer, "adaptive");
        assert_eq!(report.summary.switches, 1);
        assert_eq!(report.switches.len(), 1);
        assert_eq!(report.switches[0].from, "static");
        assert_eq!(report.switches[0].to, "diffusion");
        assert_eq!(report.switches[0].imbalance, 1.75);
        // loads [4,2,1,1]: mean 2, imbalance 2.0 every step.
        assert_eq!(summary.get("max_imbalance").unwrap().as_f64(), Some(2.0));
        assert_eq!(summary.get("mean_imbalance").unwrap().as_f64(), Some(2.0));
        assert_eq!(report.summary.final_particles, 1000);
        assert_eq!(report.steps.len(), 2);
        assert_eq!(report.steps[0].stats.unwrap().imbalance, 2.0);
        assert_eq!(report.cuts[0].new, vec![0, 6, 16]);

        // Step lines carry the raw load vector for independent recompute.
        let first_step = report
            .ndjson
            .lines()
            .find(|l| l.contains("\"type\":\"step\""))
            .unwrap();
        let v = Json::parse(first_step).unwrap();
        let loads: Vec<f64> = v
            .get("loads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(loads, vec![4.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn sampling_interval_batches_windows() {
        let mut t = Tracer::in_memory(5);
        assert_eq!(t.sample_every(), 5);
        for s in 1..=10u64 {
            assert_eq!(t.wants_step(s), s % 5 == 0);
            t.begin_step(s);
            t.add(Counter::Rebins, 1);
            t.end_step(50);
        }
        let report = t.finish().unwrap();
        assert_eq!(report.steps.len(), 2);
        // Each record covers the 5-step window since the previous one.
        assert_eq!(report.steps[0].counters[Counter::Rebins.idx()], 5);
        assert_eq!(report.steps[1].counters[Counter::Rebins.idx()], 5);
        assert_eq!(report.summary.counters[Counter::Rebins.idx()], 10);
        assert_eq!(report.summary.steps, 10);
        assert_eq!(report.summary.records, 2);
    }

    #[test]
    fn non_finite_floats_emit_null() {
        let mut t = Tracer::in_memory(1);
        t.begin_step(1);
        t.record_loads(&[f64::NAN, f64::INFINITY]);
        t.end_step(0);
        let report = t.finish().unwrap();
        let line = report
            .ndjson
            .lines()
            .find(|l| l.contains("\"type\":\"step\""))
            .unwrap();
        let v = Json::parse(line).expect("null-for-NaN keeps the line valid JSON");
        assert!(v.get("loads").unwrap().as_array().unwrap()[0].is_null());
    }

    #[test]
    fn run_header_escapes_strings() {
        let mut t = Tracer::in_memory(1);
        t.emit_run_header("im\"pl\n", 1, 0, 0, "sca\"lar", "ad\"aptive");
        let report = t.finish().unwrap();
        let v = Json::parse(report.ndjson.lines().next().unwrap()).unwrap();
        assert_eq!(v.get("impl").unwrap().as_str(), Some("im\"pl\n"));
        assert_eq!(v.get("simd").unwrap().as_str(), Some("sca\"lar"));
        assert_eq!(v.get("balancer").unwrap().as_str(), Some("ad\"aptive"));
        assert_eq!(v.get("schema").unwrap().as_u64(), Some(SCHEMA_VERSION));
    }

    /// A shared byte sink that takes `room` lines and refuses every write
    /// after them, numbering the refusals.
    #[derive(Clone)]
    struct Sink {
        bytes: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
        room: usize,
        refused: usize,
    }

    impl Sink {
        fn with_room(room: usize) -> Sink {
            Sink {
                bytes: Default::default(),
                room,
                refused: 0,
            }
        }

        fn written(&self) -> String {
            String::from_utf8(self.bytes.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut bytes = self.bytes.lock().unwrap();
            if bytes.iter().filter(|&&b| b == b'\n').count() >= self.room {
                self.refused += 1;
                return Err(std::io::Error::other(format!("refusal {}", self.refused)));
            }
            bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_receives_the_same_bytes() {
        let sink = Sink::with_room(usize::MAX);
        let mut t = Tracer::to_writer(Box::new(sink.clone()), 1);
        t.emit_run_header("w", 1, 10, 1, "none", "none");
        t.begin_step(1);
        t.end_step(10);
        let report = t.finish().unwrap();
        assert_eq!(sink.written(), report.ndjson);
        assert_eq!(report.write_error, None);
    }

    #[test]
    fn first_write_error_is_kept_and_closes_the_stream() {
        // Room for the header only: the step record is refused, and the
        // summary must not be appended past the hole.
        let sink = Sink::with_room(1);
        let mut t = Tracer::to_writer(Box::new(sink.clone()), 1);
        t.emit_run_header("w", 1, 10, 1, "none", "none");
        t.begin_step(1);
        t.end_step(10);
        let report = t.finish().unwrap();
        assert_eq!(report.write_error.as_deref(), Some("refusal 1"));
        assert_eq!(report.ndjson.lines().count(), 3, "memory keeps every line");
        let header = report.ndjson.lines().next().unwrap();
        assert_eq!(sink.written(), format!("{header}\n"));
    }
}
