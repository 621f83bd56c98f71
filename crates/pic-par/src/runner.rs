//! Shared machinery for the rank-parallel runs: per-rank state, collective
//! event application, and distributed verification.

use crate::decomp::Decomp2d;
use crate::exchange::{
    local_slice, rehome_binned_start, rehome_binned_with, route_binned_finish, ExchangeBuffers,
};
use pic_comm::collective::{
    allgatherv, allreduce_f64, allreduce_u128, allreduce_u64, allreduce_vec_u64,
    allreduce_vec_u64_into, decode_u64s, encode_u64s,
};
use pic_comm::comm::{Communicator, ReduceOp};
use pic_core::bin::{BinnedStore, DEFAULT_REBIN};
use pic_core::charge::SimConstants;
use pic_core::events::{Event, EventKind, Region};
use pic_core::geometry::Grid;
use pic_core::init::{build_injection, SimulationSetup};
use pic_core::particle::Particle;
use pic_core::simd::SimdBackend;
use pic_core::verify::{verify_batch, VerifyReport, DEFAULT_TOLERANCE, MAX_FAILING_IDS};
use pic_trace::{Counter, Phase, Tracer};

/// How the per-step exchange routes particle payloads between ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// Dense synchronous all-to-all after the full sweep: every rank sends
    /// `P` payloads (most of them empty markers) and blocks until all are
    /// received. The reference the equivalence suites compare against.
    DenseSync,
    /// Sparse neighbor-aware exchange (counts to the Cartesian 8-stencil,
    /// payloads only where non-empty, global escape flag for fast
    /// particles), split-phase overlapped with the interior sweep whenever
    /// the decomposition permits (`py == 1`, or no vertical motion at
    /// all); sparse-but-synchronous otherwise. Bit-identical results to
    /// [`ExchangeMode::DenseSync`].
    #[default]
    OverlappedSparse,
}

/// Rank-loop kernel selection of every distributed implementation. The
/// CLI runs the default; the `with_*` handles are the bit-identity suites'.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankKernel {
    /// Instruction-set override; `None` = runtime detection.
    pub backend: Option<SimdBackend>,
    /// Sweeps between counting sorts.
    pub rebin_interval: u32,
    /// Exchange routing (default: overlapped sparse; dense synchronous is
    /// the reference).
    pub exchange: ExchangeMode,
}

impl Default for RankKernel {
    fn default() -> RankKernel {
        RankKernel {
            backend: None,
            rebin_interval: DEFAULT_REBIN,
            exchange: ExchangeMode::OverlappedSparse,
        }
    }
}

impl RankKernel {
    /// Build the rank's particle store over `particles`, binning the
    /// columns `cols.0..cols.1` (a rank subdomain, or the whole grid for
    /// ownership maps that are not column-contiguous). Takes the vector so
    /// the AoS copy is freed here, not at the end of the caller's run.
    pub fn build_store(
        &self,
        particles: Vec<Particle>,
        grid: &Grid,
        cols: (usize, usize),
    ) -> BinnedStore {
        let mut b =
            BinnedStore::new_subdomain(&particles, grid, self.rebin_interval, cols.0, cols.1);
        if let Some(backend) = self.backend {
            b.set_simd_backend(backend);
        }
        b
    }

    pub fn with_rebin_interval(mut self, rebin: u32) -> RankKernel {
        self.rebin_interval = rebin.max(1);
        self
    }

    pub fn with_backend(mut self, backend: SimdBackend) -> RankKernel {
        self.backend = Some(backend);
        self
    }

    pub fn with_exchange(mut self, exchange: ExchangeMode) -> RankKernel {
        self.exchange = exchange;
        self
    }
}

/// Configuration of a rank-parallel run.
#[derive(Debug, Clone)]
pub struct ParConfig {
    pub setup: SimulationSetup,
    pub steps: u32,
    /// Hot-loop kernel every rank runs.
    pub kernel: RankKernel,
    /// Load-balancing strategy for [`crate::balance::run_config`]
    /// dispatch (default: static, i.e. the baseline).
    pub balancer: crate::balance::BalancerSpec,
}

impl ParConfig {
    pub fn new(setup: SimulationSetup, steps: u32) -> ParConfig {
        ParConfig {
            setup,
            steps,
            kernel: RankKernel::default(),
            balancer: crate::balance::BalancerSpec::default(),
        }
    }

    pub fn with_kernel(mut self, kernel: RankKernel) -> ParConfig {
        self.kernel = kernel;
        self
    }

    pub fn with_balancer(mut self, balancer: crate::balance::BalancerSpec) -> ParConfig {
        self.balancer = balancer;
        self
    }
}

/// Result reported by every rank (identical across ranks for the global
/// fields, thanks to the final allreduces).
#[derive(Debug, Clone)]
pub struct ParOutcome {
    /// Globally merged verification report.
    pub verify: VerifyReport,
    /// This rank's particle count at the end.
    pub local_count: usize,
    /// Maximum per-rank particle count at the end — the paper's §V-B
    /// imbalance indicator.
    pub max_count: u64,
    /// Total particles at the end.
    pub total_count: u64,
    /// Steps executed.
    pub steps: u32,
    /// Kernel descriptor of the rank hot loop, `"<backend>/exact"`
    /// ([`BinnedStore::kernel_desc`]).
    pub kernel: String,
    /// This rank's final particles, **unordered** (storage order; consumers
    /// key or sort by id) — for cross-implementation equivalence checks.
    pub local_particles: Vec<Particle>,
}

/// The distributed event ledger: the step-sorted schedule with its cursor,
/// the id counter injections draw from, and the id checksum the final
/// population must add up to. Every rank holds one and applies every event,
/// so the ledgers stay identical across ranks without a broadcast; what
/// differs per implementation is only which newcomers a rank keeps.
pub struct EventLedger {
    grid: Grid,
    consts: SimConstants,
    events: Vec<Event>,
    next_event: usize,
    next_id: u64,
    expected_id_sum: u128,
}

impl EventLedger {
    pub fn new(setup: &SimulationSetup) -> EventLedger {
        let mut events = setup.events.clone();
        events.sort_by_key(|e| e.at_step);
        EventLedger {
            grid: setup.grid,
            consts: setup.consts,
            events,
            next_event: 0,
            next_id: setup.next_id,
            expected_id_sum: setup.initial_id_sum(),
        }
    }

    /// Sum of the ids that must be alive after the events applied so far.
    pub fn expected_id_sum(&self) -> u128 {
        self.expected_id_sum
    }

    /// Apply the events due at `step` (0-based) to this rank's `store`.
    /// Injections are materialized identically on every rank (same id
    /// assignment) and kept where `owns(col, row)` holds; removals are
    /// resolved collectively — the lowest `count` in-region ids of the
    /// allgathered candidates — so all ranks agree on the doomed set.
    pub fn apply_due(
        &mut self,
        comm: &Communicator,
        step: u32,
        store: &mut BinnedStore,
        owns: impl Fn(usize, usize) -> bool,
    ) {
        while self.next_event < self.events.len() && self.events[self.next_event].at_step == step {
            let e = self.events[self.next_event];
            self.next_event += 1;
            match e.kind {
                EventKind::Inject { count, k, m, dir } => {
                    let newcomers = build_injection(
                        self.grid,
                        self.consts,
                        e.region,
                        count,
                        k,
                        m,
                        dir,
                        step,
                        &mut self.next_id,
                    );
                    for p in &newcomers {
                        self.expected_id_sum += p.id as u128;
                        let (c, r) = self.grid.cell_of_point(p.x, p.y);
                        if owns(c, r) {
                            // Homed by the owner filter, so the tail
                            // append keeps the rebin amortized.
                            store.push_tail(*p);
                        }
                    }
                }
                EventKind::Remove { count } => {
                    let mut local_ids = ids_in_region(store, &e.region);
                    local_ids.sort_unstable();
                    let gathered = allgatherv(comm, encode_u64s(&local_ids));
                    let mut all: Vec<u64> = gathered.iter().flat_map(|b| decode_u64s(b)).collect();
                    all.sort_unstable();
                    all.truncate(count as usize);
                    let doomed: std::collections::HashSet<u64> = all.iter().copied().collect();
                    for &id in &all {
                        self.expected_id_sum -= id as u128;
                    }
                    store.remove_ids(&doomed);
                }
            }
        }
    }
}

/// Ids of the particles `store` holds inside `region`, for collective
/// removal.
fn ids_in_region(store: &BinnedStore, region: &Region) -> Vec<u64> {
    let batch = store.batch();
    (0..batch.len())
        .filter(|&i| region.contains_point(batch.x[i], batch.y[i]))
        .map(|i| batch.id[i])
        .collect()
}

/// Per-rank simulation state.
pub struct RankState {
    pub grid: Grid,
    pub consts: SimConstants,
    pub decomp: Decomp2d,
    pub rank: usize,
    /// Local particles, binned over this rank's subdomain columns.
    pub store: BinnedStore,
    pub step: u32,
    ledger: EventLedger,
    /// Reused exchange staging buffers: the steady-state step loop routes
    /// particles without reallocating the per-destination buckets.
    bufs: ExchangeBuffers,
    /// Reused per-axis count scratch for the diffusion balancer.
    lb_scratch: Vec<u64>,
    /// Exchange routing mode (from the rank kernel).
    exchange: ExchangeMode,
    /// Per-step column stride bound: `2·k_max + 1` over the initial
    /// population and every injection event — no particle can hop more
    /// columns than this in one sweep (the analytic motion contract).
    stride_x: usize,
    /// Largest `|m|` over the population and injections: the exact
    /// per-step row hop. Zero means no particle ever crosses a row.
    max_abs_m: i64,
    /// The row range every particle of the store is known to lie in (and
    /// in the column range of that moment): set when an exchange
    /// completes, `None` from the start of a sweep until then.
    /// [`RankState::rehome`] reads it to tell a re-decomposition of a
    /// settled store (only bins near a new column bound can hold a
    /// leaver) from the step's own exchange (any bin can).
    homed_rows: Option<(usize, usize)>,
}

impl RankState {
    /// Build rank-local state from the (deterministically shared) setup,
    /// with the default (binned) rank kernel.
    pub fn new(setup: &SimulationSetup, decomp: Decomp2d, rank: usize) -> RankState {
        RankState::with_kernel(setup, decomp, rank, RankKernel::default())
    }

    /// [`RankState::new`] with an explicit rank kernel.
    pub fn with_kernel(
        setup: &SimulationSetup,
        decomp: Decomp2d,
        rank: usize,
        kernel: RankKernel,
    ) -> RankState {
        let particles = local_slice(&decomp, &setup.grid, rank, &setup.particles);
        let (cols, rows) = decomp.bounds(rank);
        let store = kernel.build_store(particles, &setup.grid, cols);
        let (stride_x, max_abs_m) = motion_bounds(setup);
        let mut bufs = ExchangeBuffers::new();
        if kernel.exchange == ExchangeMode::OverlappedSparse {
            bufs.enable_sparse(decomp.ranks(), rank, decomp.neighbors_of(rank));
        }
        RankState {
            grid: setup.grid,
            consts: setup.consts,
            decomp,
            rank,
            store,
            step: 0,
            ledger: EventLedger::new(setup),
            bufs,
            lb_scratch: Vec::new(),
            exchange: kernel.exchange,
            stride_x,
            max_abs_m,
            homed_rows: Some(rows),
        }
    }

    /// Number of particles currently homed on this rank.
    pub fn local_count(&self) -> usize {
        self.store.len()
    }

    /// Kernel descriptor of the hot loop ([`BinnedStore::kernel_desc`]).
    pub fn kernel_desc(&self) -> String {
        self.store.kernel_desc()
    }

    /// Fill `h` with this rank's per-column particle counts (global column
    /// indexing, zero outside the subdomain) — O(columns) when the store's
    /// histogram is fresh, O(n) otherwise. Summed across ranks this is the
    /// balancer's input histogram.
    pub fn column_histogram_into(&self, h: &mut Vec<u64>) {
        self.store.column_histogram_into(&self.grid, h);
    }

    /// Re-anchor the store's column range after a decomposition change —
    /// a relabel, not a sort ([`BinnedStore::set_columns`]). Leavers must
    /// already have been drained under the *new* decomposition (the
    /// balancer rehomes first); a no-op when the range is unchanged.
    pub fn rebind_store(&mut self) {
        let ((x0, x1), _) = self.decomp.bounds(self.rank);
        if self.store.columns() != (x0, x1) {
            self.store.set_columns(&self.grid, x0, x1);
        }
    }

    /// Does nothing: the mesh is the parity formula, so a cut move leaves no
    /// stored mesh to refill; the name stays while `bench/` calls it.
    pub fn rebuild_charges(&mut self) {}

    pub fn expected_id_sum(&self) -> u128 {
        self.ledger.expected_id_sum()
    }

    /// Apply events due at the current step ([`EventLedger::apply_due`]
    /// with this rank's subdomain as the ownership filter).
    pub fn apply_due_events(&mut self, comm: &Communicator) {
        self.ledger
            .apply_due(comm, self.step, &mut self.store, |c, r| {
                self.decomp.owner_of_cell(c, r) == self.rank
            });
    }

    /// One full step: events, advance, exchange.
    pub fn step(&mut self, comm: &Communicator) {
        self.step_traced(comm, &mut Tracer::disabled());
    }

    /// Can this step run the overlapped border/interior split? The split
    /// is column-based, so it only catches leavers through the x-cuts: it
    /// is sound when the rank rows cannot be crossed at all — a single
    /// processor row, or a population with no vertical motion. Otherwise
    /// the step falls back to the sparse-but-synchronous exchange (the
    /// full drain catches row leavers from any column).
    fn overlap_ready(&self) -> bool {
        self.exchange == ExchangeMode::OverlappedSparse
            && (self.decomp.py == 1 || self.max_abs_m == 0)
    }

    /// [`RankState::step`] with telemetry: the advance loop is timed as
    /// the `advance` phase, rehoming as `exchange` (interleaved when the
    /// overlapped path runs). Returns the number of particles this rank
    /// sent away (feeds the `rehomed` counter, which is globally summed
    /// at traced steps by [`snapshot_loads`]).
    pub fn step_traced(&mut self, comm: &Communicator, tracer: &mut Tracer) -> usize {
        self.apply_due_events(comm);
        let rebins_before = self.store.rebin_count();
        self.homed_rows = None;
        let sent = if self.overlap_ready() {
            self.step_overlapped(comm, tracer)
        } else {
            tracer.phase_start(Phase::Advance);
            // The serial engine's kernel stack, serial on this rank's own
            // thread (each rank is already a parallel unit).
            self.store.sweep_local(&self.grid, &self.consts);
            tracer.phase_end(Phase::Advance);
            tracer.phase_start(Phase::Exchange);
            let (sent, _received) = self.rehome(comm);
            tracer.phase_end(Phase::Exchange);
            sent
        };
        // The amortized rebin runs *after* the exchange so the counting
        // sort only ever sees homed particles (arrivals fold in from the
        // tail; column range is exactly the subdomain).
        tracer.phase_start(Phase::Exchange);
        if self.store.rebin_due() {
            self.store.rebin(&self.grid);
        }
        tracer.add(Counter::Rebins, self.store.rebin_count() - rebins_before);
        tracer.phase_end(Phase::Exchange);
        self.step += 1;
        sent
    }

    /// The overlapped step (paper-faithful split-phase exchange): advance
    /// the *border* columns first, launch the exchange for their leavers,
    /// advance the *interior* while the messages are in flight, then
    /// complete the receives into the mixed region. Bit-identical to the
    /// synchronous step: every particle is advanced exactly once by the
    /// same arithmetic against the same fixed per-step mesh wherever the
    /// store keeps it (ordered bin or mixed region), the border drain
    /// finds exactly the leavers the full drain would (interior bins
    /// cannot produce any — that is what [`BinnedStore::border_width`]
    /// guarantees), and storage order is not observable.
    fn step_overlapped(&mut self, comm: &Communicator, tracer: &mut Tracer) -> usize {
        let b = &mut self.store;
        tracer.phase_start(Phase::Advance);
        b.prepare_sweep(&self.grid);
        let ((x0, x1), _) = self.decomp.bounds(self.rank);
        // Bin-space border: particles drift from their bin column between
        // rebins, so the border widens with the store's age.
        let w = b.border_width(self.stride_x);
        let b_lo = (x0 + w).min(x1);
        let b_hi = x1.saturating_sub(w).max(b_lo);
        b.sweep_cols(&self.grid, &self.consts, x0..b_lo);
        b.sweep_cols(&self.grid, &self.consts, b_hi..x1);
        b.sweep_tail_pass(&self.grid, &self.consts);
        tracer.phase_end(Phase::Advance);

        tracer.phase_start(Phase::Exchange);
        let inflight = rehome_binned_start(
            comm,
            &self.decomp,
            &self.grid,
            self.rank,
            |c| !(b_lo..b_hi).contains(&c),
            b,
            &mut self.bufs,
        );
        let sent = inflight.sent;
        tracer.phase_end(Phase::Exchange);

        tracer.phase_start(Phase::Advance);
        let window_start = std::time::Instant::now();
        b.sweep_cols(&self.grid, &self.consts, b_lo..b_hi);
        let overlap_ns = window_start.elapsed().as_nanos() as u64;
        tracer.phase_end(Phase::Advance);

        tracer.phase_start(Phase::Exchange);
        route_binned_finish(comm, inflight, b, &mut self.bufs);
        b.end_sweep();
        self.homed_rows = Some(self.decomp.bounds(self.rank).1);
        tracer.add(Counter::OverlapNs, overlap_ns);
        tracer.phase_end(Phase::Exchange);
        sent
    }

    /// Drain the `(sent, skipped)` wire-message counters accumulated by
    /// this rank's exchanges since the previous take (see
    /// [`ExchangeBuffers::take_message_counts`]).
    pub fn take_message_counts(&mut self) -> (u64, u64) {
        self.bufs.take_message_counts()
    }

    /// Route every mis-homed particle to its owner, reusing this rank's
    /// staging buffers (steady-state: no staging allocation). The store
    /// drains leavers in place, and only where one can be: when the last
    /// exchange left every particle inside bounds with the same rows as
    /// now (a balance round moved x-cuts, or nothing), a particle of
    /// ordered bin `c` sits within `stride · age` columns of `c` and is in
    /// its old rows, so only bins within that drift of a *new* column bound
    /// are drained — a margin at both ends, which also covers a bin whose
    /// particles wrapped, and leaves nothing inactive when the range is no
    /// wider than twice the drift. After a sweep, or when the rows moved,
    /// every bin is drained.
    pub fn rehome(&mut self, comm: &Communicator) -> (usize, usize) {
        let ((x0, x1), rows) = self.decomp.bounds(self.rank);
        let quiet = if self.homed_rows == Some(rows) {
            let drift = self.stride_x * self.store.age() as usize;
            x0 + drift..x1.saturating_sub(drift)
        } else {
            0..0
        };
        let moved = rehome_binned_with(
            comm,
            &self.decomp,
            &self.grid,
            self.rank,
            |c| !quiet.contains(&c),
            &mut self.store,
            &mut self.bufs,
        );
        self.homed_rows = Some(rows);
        moved
    }

    /// Collectively aggregate per-processor-column (`along_x`) or per-row
    /// particle counts for the diffusion balancer into a caller-owned
    /// buffer. This rank's contribution vector lives in a reused scratch
    /// buffer, so steady-state balancer loops stay allocation-free.
    pub fn aggregate_axis_counts_into(
        &mut self,
        comm: &Communicator,
        along_x: bool,
        out: &mut Vec<u64>,
    ) {
        let (slots, idx) = {
            let (cx, cy) = self.decomp.coords_of(self.rank);
            if along_x {
                (self.decomp.px, cx)
            } else {
                (self.decomp.py, cy)
            }
        };
        self.lb_scratch.clear();
        self.lb_scratch.resize(slots, 0);
        self.lb_scratch[idx] = self.local_count() as u64;
        allreduce_vec_u64_into(comm, &self.lb_scratch, ReduceOp::Sum, out);
    }

    /// Collectively aggregate the global per-cell-column histogram from
    /// every rank's own store — O(columns) local work on a fresh store. [`pic_cluster::balancer::per_column_counts_into`] folds the
    /// result onto processor columns, giving bit-identical cut decisions
    /// to [`RankState::aggregate_axis_counts_into`] (both count homed
    /// particles per column). Reuses `h` as local scratch.
    pub fn aggregate_column_histogram(&self, comm: &Communicator, h: &mut Vec<u64>) -> Vec<u64> {
        self.column_histogram_into(h);
        allreduce_vec_u64(comm, h, ReduceOp::Sum)
    }

    /// Distributed verification of this rank's store ([`verify_store`]).
    pub fn verify(&self, comm: &Communicator) -> VerifyReport {
        verify_store(
            comm,
            &self.grid,
            &self.store,
            self.step,
            self.expected_id_sum(),
        )
    }

    /// Collective imbalance probe: (max per-rank count, total count).
    pub fn count_stats(&self, comm: &Communicator) -> (u64, u64) {
        let local = self.local_count() as u64;
        let max = allreduce_u64(comm, local, ReduceOp::Max);
        let total = allreduce_u64(comm, local, ReduceOp::Sum);
        (max, total)
    }

    /// Final outcome assembly.
    pub fn finish(&self, comm: &Communicator) -> ParOutcome {
        self.finish_traced(comm, &mut Tracer::disabled())
    }

    /// [`RankState::finish`] with the verification collectives timed as
    /// the `verify` phase.
    pub fn finish_traced(&self, comm: &Communicator, tracer: &mut Tracer) -> ParOutcome {
        tracer.phase_start(Phase::Verify);
        let verify = self.verify(comm);
        // Storage order: no sort on the way out.
        let local_particles = self.store.batch().to_particles();
        tracer.phase_end(Phase::Verify);
        let (max_count, total_count) = self.count_stats(comm);
        ParOutcome {
            verify,
            local_count: self.local_count(),
            max_count,
            total_count,
            steps: self.step,
            kernel: self.kernel_desc(),
            local_particles,
        }
    }
}

/// Agree on the trace sampling interval across ranks (max of every rank's
/// `sample_every`; 0 when no rank traces). Collectives in the telemetry
/// path must be entered by *every* rank at the same steps even though
/// typically only rank 0 holds an enabled tracer — runners call this once
/// up front and gate [`snapshot_loads`] on the agreed value.
pub fn trace_interval(comm: &Communicator, tracer: &Tracer) -> u64 {
    allreduce_u64(comm, tracer.sample_every() as u64, ReduceOp::Max)
}

/// Collective telemetry snapshot at a traced step: the per-rank load
/// vector plus three windowed scalars (particles rehomed, wire messages
/// sent, wire messages elided by the sparse protocol) merged into a
/// single `(size + 3)`-slot vector allreduce. Feeds the tracer's load
/// statistics and the `rehomed` / `msgs_sent` / `msgs_skipped` /
/// `collective_bytes` counters; returns the global particle count. Must
/// be called by every rank at the same step.
pub fn snapshot_loads(
    comm: &Communicator,
    tracer: &mut Tracer,
    local_count: u64,
    sent_window: u64,
    msgs_window: (u64, u64),
) -> u64 {
    let n = comm.size();
    let mut slots = vec![0u64; n + 3];
    slots[comm.rank()] = local_count;
    slots[n] = sent_window;
    slots[n + 1] = msgs_window.0;
    slots[n + 2] = msgs_window.1;
    let counts = allreduce_vec_u64(comm, &slots, ReduceOp::Sum);
    tracer.add(Counter::Rehomed, counts[n]);
    tracer.add(Counter::MsgsSent, counts[n + 1]);
    tracer.add(Counter::MsgsSkipped, counts[n + 2]);
    tracer.add(Counter::CollectiveBytes, slots.len() as u64 * 8);
    let loads: Vec<f64> = counts[..n].iter().map(|&c| c as f64).collect();
    tracer.record_loads(&loads);
    counts[..n].iter().sum()
}

/// Bounds on per-step motion over the whole simulation (initial
/// population plus every scheduled injection): the maximum x-stride
/// `2·k + 1` and the largest per-step row displacement `|m|`. Both are
/// exact analytic contracts of the kernel (see
/// [`Particle::cells_per_step_x`] / `cells_per_step_y`), so the border
/// width computed from the stride is a guarantee, not a heuristic.
fn motion_bounds(setup: &SimulationSetup) -> (usize, i64) {
    let mut max_k = 0u32;
    let mut max_m = 0i64;
    for p in &setup.particles {
        max_k = max_k.max(p.k);
        max_m = max_m.max((p.m as i64).abs());
    }
    for e in &setup.events {
        if let EventKind::Inject { k, m, .. } = e.kind {
            max_k = max_k.max(k);
            max_m = max_m.max((m as i64).abs());
        }
    }
    (2 * max_k as usize + 1, max_m)
}

/// Distributed verification of one rank's `store` at `final_step`, shared
/// by the cut-family finish and the AMPI runtime: the local analytic check
/// streams over the store in place (no AoS copy, no sort — see
/// [`verify_batch`]), then failures, checksum, max error and failing ids
/// are merged globally, so every rank returns the identical report.
pub fn verify_store(
    comm: &Communicator,
    grid: &Grid,
    store: &BinnedStore,
    final_step: u32,
    expected_id_sum: u128,
) -> VerifyReport {
    let local = verify_batch(grid, store.batch(), final_step, 0, DEFAULT_TOLERANCE);
    VerifyReport {
        checked: allreduce_u64(comm, local.checked, ReduceOp::Sum),
        position_failures: allreduce_u64(comm, local.position_failures, ReduceOp::Sum),
        max_error: allreduce_f64(comm, local.max_error, ReduceOp::Max),
        id_sum: allreduce_u128(comm, local.id_sum, ReduceOp::Sum),
        failing_ids: merge_failing_ids(comm, &local.failing_ids),
        expected_id_sum,
        tolerance: DEFAULT_TOLERANCE,
    }
}

/// Globally merge per-rank failing-id diagnostics: allgather, sort, dedup,
/// cap at [`MAX_FAILING_IDS`]. Every rank ends with the identical list no
/// matter which rank held the failing particles — previously each rank
/// reported only its local ids while the rest of the report was global.
pub fn merge_failing_ids(comm: &Communicator, local: &[u64]) -> Vec<u64> {
    let gathered = allgatherv(comm, encode_u64s(local));
    let mut all: Vec<u64> = gathered.iter().flat_map(|b| decode_u64s(b)).collect();
    all.sort_unstable();
    all.dedup();
    all.truncate(MAX_FAILING_IDS);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_comm::world::run_threads;
    use pic_core::dist::Distribution;
    use pic_core::init::InitConfig;
    use pic_core::verify::triangular_id_sum;

    #[test]
    fn rank_states_partition_the_population() {
        let setup = InitConfig::new(Grid::new(16).unwrap(), 500, Distribution::PAPER_SKEW)
            .build()
            .unwrap();
        let decomp = Decomp2d::uniform(16, 4);
        let counts: usize = (0..4)
            .map(|r| RankState::new(&setup, decomp.clone(), r).local_count())
            .sum();
        assert_eq!(counts, 500);
    }

    #[test]
    fn rank_panic_inside_a_step_exchange_aborts_the_run() {
        // Rank 1 dies after its third step while rank 0 enters the fourth
        // exchange: rank 0 must go down with it, naming rank 1, instead of
        // waiting for migrants that will never come. The run sits on a
        // helper thread under a 10 s watchdog so a hang fails, not stalls.
        let setup = InitConfig::new(Grid::new(16).unwrap(), 400, Distribution::Uniform)
            .with_m(1)
            .build()
            .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = || {
                run_threads(2, |comm| {
                    let mut st = RankState::new(&setup, Decomp2d::uniform(16, 2), comm.rank());
                    for step in 0..6 {
                        if comm.rank() == 1 && step == 3 {
                            panic!("store corrupted");
                        }
                        st.step(&comm);
                    }
                });
            };
            tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)))
        });
        let ended = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("rank 1 panicked and rank 0 hung in the exchange");
        let cause = ended.expect_err("the run must not survive a panicked rank");
        let msg = cause.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(msg, "rank 1 panicked: store corrupted");
    }

    #[test]
    fn collective_removal_agrees_across_ranks() {
        let grid = Grid::new(16).unwrap();
        let setup = InitConfig::new(grid, 200, Distribution::Uniform)
            .build()
            .unwrap()
            .with_event(Event::remove(
                0,
                Region {
                    x0: 0,
                    x1: 16,
                    y0: 0,
                    y1: 8,
                },
                40,
            ));
        let outcomes = run_threads(4, |comm| {
            let mut st = RankState::new(&setup, Decomp2d::uniform(16, 4), comm.rank());
            st.apply_due_events(&comm);
            (st.expected_id_sum(), st.local_count() as u64)
        });
        let ledger0 = outcomes[0].0;
        assert!(
            outcomes.iter().all(|o| o.0 == ledger0),
            "ledgers must agree"
        );
        let total: u64 = outcomes.iter().map(|o| o.1).sum();
        assert_eq!(total, 160);
        assert!(ledger0 < triangular_id_sum(200));
    }

    #[test]
    fn injection_lands_on_owning_ranks_only() {
        let grid = Grid::new(16).unwrap();
        let region = Region {
            x0: 0,
            x1: 4,
            y0: 0,
            y1: 4,
        };
        let setup = InitConfig::new(grid, 50, Distribution::Uniform)
            .build()
            .unwrap()
            .with_event(Event::inject(0, region, 30, 0, 0, 1));
        let outcomes = run_threads(4, |comm| {
            let mut st = RankState::new(&setup, Decomp2d::uniform(16, 4), comm.rank());
            st.apply_due_events(&comm);
            (st.expected_id_sum(), st.local_count() as u64)
        });
        let total: u64 = outcomes.iter().map(|o| o.1).sum();
        assert_eq!(total, 80);
        assert_eq!(outcomes[0].0, triangular_id_sum(80));
    }
}
