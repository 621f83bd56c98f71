//! Shared machinery for the rank-parallel runs: per-rank state, collective
//! event application, and distributed verification. A rank answers "who
//! owns this cell?" from one [`OwnerTable`] — the ranks of the cuts, or
//! the VPs on their cores — for its store build, events, exchanges and
//! VP counts.

use crate::decomp::{Decomp2d, VpGrid};
use crate::exchange::{route_binned, ExchangeBuffers};
use pic_cluster::balancer::Layout;
use pic_comm::collective::{allgatherv, allreduce_u64, allreduce_vec_u64, allreduce_vec_u64_into};
use pic_comm::comm::{Communicator, ReduceOp};
use pic_core::bin::BinnedStore;
use pic_core::charge::SimConstants;
use pic_core::events::EventLedger;
use pic_core::geometry::Grid;
use pic_core::init::SimulationSetup;
use pic_core::owner::OwnerTable;
use pic_core::particle::Particle;
use pic_core::simd::SimdBackend;
use pic_core::soa::ParticleBatch;
use pic_core::verify::{verify_batch, VerifyReport, DEFAULT_TOLERANCE, MAX_FAILING_IDS};
use pic_trace::{Counter, Phase, Tracer};

/// Rank-loop kernel selection of every distributed implementation. The
/// CLI runs the default; [`RankKernel::with_backend`] is the bit-identity
/// suites' handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankKernel {
    /// Instruction-set override; `None` = runtime detection.
    pub backend: Option<SimdBackend>,
}

impl RankKernel {
    /// Build the rank's particle store from the shared `particles`,
    /// keeping those whose cell `owns(col, row)` accepts — one scatter
    /// straight into the two phase halves, no rank-local copy of the
    /// records ([`BinnedStore::new_owned`]).
    pub fn build_store(
        &self,
        particles: &[Particle],
        grid: &Grid,
        owns: impl Fn(usize, usize) -> bool,
    ) -> BinnedStore {
        let mut b = BinnedStore::new_owned(particles, grid, owns);
        if let Some(backend) = self.backend {
            b.set_simd_backend(backend);
        }
        b
    }

    pub fn with_backend(mut self, backend: SimdBackend) -> RankKernel {
        self.backend = Some(backend);
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
    /// key or sort by id) — the rank store's own batch, moved out rather
    /// than copied; for cross-implementation equivalence checks.
    pub particles: ParticleBatch,
}

/// Per-rank simulation state.
pub struct RankState {
    pub grid: Grid,
    pub consts: SimConstants,
    /// The Cartesian decomposition. Under a VP map it is the core grid the
    /// initial VP blocks tile, and ownership is never read from it.
    pub decomp: Decomp2d,
    pub rank: usize,
    /// Local particles, in the two phase halves of one batch.
    pub store: BinnedStore,
    pub step: u32,
    /// Who owns a cell — the question every store scatter, event, exchange
    /// and rehome asks: the cuts of `decomp`, one unit per rank, or the
    /// VPs on the cores of `vp_assignment`.
    owners: OwnerTable,
    /// The VP→core table; empty under the cuts.
    vp_assignment: Vec<usize>,
    ledger: EventLedger,
    /// Reused exchange staging buffers: the steady-state step loop routes
    /// particles without reallocating the per-destination buckets.
    bufs: ExchangeBuffers,
    /// Reused count scratch of the balancers' gathers (per-axis counts for
    /// diffusion, per-VP counts for the VP family).
    lb_scratch: Vec<u64>,
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
        let owners = OwnerTable::new(&decomp.xcuts, &decomp.ycuts);
        RankState::build(setup, decomp, owners, Vec::new(), rank, kernel)
    }

    /// A core of the VP runtime (paper §IV-C): cells are owned through
    /// the VPs of `vps`, placed on cores by a replicated VP→core table
    /// that starts from the compact blocks of
    /// [`VpGrid::initial_assignment`]. A VP balancer's round moves the
    /// table.
    pub fn with_vps(
        setup: &SimulationSetup,
        vps: VpGrid,
        rank: usize,
        kernel: RankKernel,
    ) -> RankState {
        let decomp = Decomp2d::uniform_grid(setup.grid.ncells(), vps.px, vps.py);
        let assignment = vps.initial_assignment();
        let mut owners = vps.owners.clone();
        owners.set_cores(&assignment);
        RankState::build(setup, decomp, owners, assignment, rank, kernel)
    }

    fn build(
        setup: &SimulationSetup,
        decomp: Decomp2d,
        owners: OwnerTable,
        vp_assignment: Vec<usize>,
        rank: usize,
        kernel: RankKernel,
    ) -> RankState {
        let owns = |c, r| owners.owner_of_cell(c, r) == rank;
        let store = kernel.build_store(&setup.particles, &setup.grid, owns);
        RankState {
            grid: setup.grid,
            consts: setup.consts,
            decomp,
            rank,
            store,
            step: 0,
            owners,
            vp_assignment,
            ledger: EventLedger::new(setup),
            bufs: ExchangeBuffers::new(),
            lb_scratch: Vec::new(),
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
    /// indexing, zero outside the subdomain): one scan of the store.
    /// Summed across ranks this is the balancer's input histogram.
    pub fn column_histogram_into(&self, h: &mut Vec<u64>) {
        self.store.column_histogram_into(&self.grid, h);
    }

    /// Does nothing: the store has no column range to re-anchor. Kept only
    /// because the benchmark's balance round (`bench/src/adapter.rs`)
    /// calls it after `rehome`; adapter v2 deletes it.
    #[doc(hidden)]
    pub fn rebind_store(&mut self) {}

    /// Does nothing: the mesh is the parity formula, so a cut move leaves no
    /// stored mesh to refill; the name stays while `bench/` calls it.
    pub fn rebuild_charges(&mut self) {}

    pub fn expected_id_sum(&self) -> u128 {
        self.ledger.expected_id_sum()
    }

    /// Apply events due at the current step: every rank materialises every
    /// injection and keeps the newcomers it owns; a removal's offers are
    /// gathered from every rank, so all ranks agree on the doomed set.
    pub fn apply_due_events(&mut self, comm: &Communicator) {
        self.refresh_owners();
        let owns = |c, r| self.owners.owner_of_cell(c, r) == self.rank;
        let agree = |offered| allgatherv(comm, offered).concat();
        self.ledger
            .apply_due(self.step, &mut self.store, owns, agree);
    }

    /// One full step: events, advance, exchange.
    pub fn step(&mut self, comm: &Communicator) {
        self.step_traced(comm, &mut Tracer::disabled());
    }

    /// [`RankState::step`] with telemetry: the sweep is timed as the
    /// `advance` phase, the exchange as `exchange`. Returns the number of
    /// particles this rank sent away (feeds the `rehomed` counter, which
    /// the rank loop sums globally at traced steps).
    ///
    /// The one step body: events, one sweep of the whole store, one
    /// exchange of every leaver under the ownership map.
    pub fn step_traced(&mut self, comm: &Communicator, tracer: &mut Tracer) -> usize {
        self.apply_due_events(comm);
        tracer.phase_start(Phase::Advance);
        self.store.sweep(&self.grid, &self.consts);
        tracer.phase_end(Phase::Advance);
        tracer.phase_start(Phase::Exchange);
        let (sent, _) = self.rehome(comm);
        tracer.phase_end(Phase::Exchange);
        self.step += 1;
        sent
    }

    /// Route every particle the ownership map does not give this rank to
    /// its owner and take in the ones it does ([`route_binned`]), reusing
    /// this rank's staging buffers (steady state: no staging allocation).
    /// Returns `(sent, received)`. This is the step's exchange, and after
    /// a balance round moved the map, the round's.
    pub fn rehome(&mut self, comm: &Communicator) -> (usize, usize) {
        debug_assert_eq!(comm.rank(), self.rank);
        self.refresh_owners();
        let owners = &self.owners;
        route_binned(
            comm,
            owners.map(self.rank),
            |c, r| owners.owner_of_cell(c, r),
            &mut self.store,
            &self.grid,
            &mut self.bufs,
        )
    }

    /// Drain the wire messages this rank's exchanges sent since the
    /// previous take, as `(sent, 0)`: the all-to-all skips no message. The
    /// pair stays only because the benchmark's adapter
    /// (`bench/src/adapter.rs:446`) reads it; adapter v2 deletes it.
    pub fn take_message_counts(&mut self) -> (u64, u64) {
        (self.bufs.take_messages_sent(), 0)
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
    /// every rank's own store — one O(n) scan per rank.
    /// [`pic_cluster::balancer::per_column_counts_into`] folds the
    /// result onto processor columns, giving bit-identical cut decisions
    /// to [`RankState::aggregate_axis_counts_into`] (both count homed
    /// particles per column). Reuses `h` as local scratch.
    pub fn aggregate_column_histogram(&self, comm: &Communicator, h: &mut Vec<u64>) -> Vec<u64> {
        self.column_histogram_into(h);
        allreduce_vec_u64(comm, h, ReduceOp::Sum)
    }

    /// Collectively sum the global per-VP particle counts into `out`: this
    /// rank's contribution is a position scan into the reused scratch
    /// (VPs are 2D tiles, not column ranges) through the ownership
    /// table's per-lane unit index, then one vector allreduce. Leaves
    /// `out` empty under the cuts, which have no VPs.
    pub(crate) fn aggregate_vp_counts_into(&mut self, comm: &Communicator, out: &mut Vec<u64>) {
        out.clear();
        if self.vp_assignment.is_empty() {
            return;
        }
        self.lb_scratch.clear();
        self.lb_scratch.resize(self.vp_assignment.len(), 0);
        let (batch, backend) = (self.store.batch(), self.store.simd_backend());
        self.owners.count_into(
            backend,
            &self.grid,
            &batch.x,
            &batch.y,
            &mut self.lb_scratch,
        );
        allreduce_vec_u64_into(comm, &self.lb_scratch, ReduceOp::Sum, out);
    }

    /// The ownership map as a balancer reads it: the cuts under the
    /// Cartesian decomposition, the VP→core table under a VP map (the
    /// other kind is empty).
    pub(crate) fn layout(&self) -> Layout<'_> {
        let vp_assignment = &self.vp_assignment[..];
        let (xcuts, ycuts) = if vp_assignment.is_empty() {
            (&self.decomp.xcuts[..], &self.decomp.ycuts[..])
        } else {
            (&[][..], &[][..])
        };
        Layout {
            ncells: self.decomp.ncells,
            ranks: self.decomp.ranks(),
            xcuts,
            ycuts,
            vp_assignment,
        }
    }

    /// Adopt a VP balancer's new VP→core table; the next
    /// [`RankState::rehome`] routes the particles of every moved VP.
    pub(crate) fn set_vp_assignment(&mut self, new: Vec<usize>) {
        assert!(
            !self.vp_assignment.is_empty(),
            "a VP reassignment under the Cartesian cuts"
        );
        self.owners.set_cores(&new);
        self.vp_assignment = new;
    }

    /// Rebuild a cut table whose cuts moved since it was read (a balancer,
    /// a test or the benchmark moves `decomp`'s cuts in place); a VP
    /// table's cuts never move.
    fn refresh_owners(&mut self) {
        if self.vp_assignment.is_empty() {
            self.owners.refresh(&self.decomp.xcuts, &self.decomp.ycuts);
        }
    }

    /// Distributed verification of this rank's store at the current step:
    /// the local analytic check streams over the store in place (no AoS
    /// copy, no sort — see [`verify_batch`]), then failures, checksum, max
    /// error and failing ids are merged globally, so every rank returns the
    /// identical report.
    pub fn verify(&self, comm: &Communicator) -> VerifyReport {
        self.gather_finish(comm).0
    }

    /// The rank finish's one collective: every rank posts a fixed record of
    /// its local check and particle count, plus its ≤ [`MAX_FAILING_IDS`]
    /// smallest failing ids, and folds every record in rank order. Returns
    /// the global report and the (max per-rank, total) particle counts,
    /// identical on every rank.
    fn gather_finish(&self, comm: &Communicator) -> (VerifyReport, u64, u64) {
        let local = verify_batch(
            &self.grid,
            self.store.batch(),
            self.step,
            0,
            DEFAULT_TOLERANCE,
        );
        let mut record = vec![
            local.checked,
            local.position_failures,
            local.max_error.to_bits(),
            local.id_sum as u64,
            (local.id_sum >> 64) as u64,
            self.local_count() as u64,
        ];
        record.extend_from_slice(&local.failing_ids);
        let mut report = VerifyReport {
            checked: 0,
            position_failures: 0,
            max_error: 0.0,
            failing_ids: Vec::new(),
            id_sum: 0,
            expected_id_sum: self.expected_id_sum(),
            tolerance: DEFAULT_TOLERANCE,
        };
        let (mut max_count, mut total_count) = (0, 0);
        for words in allgatherv(comm, record) {
            let [checked, failures, max_error, id_lo, id_hi, count, ref ids @ ..] = words[..]
            else {
                panic!("rank finish record truncated");
            };
            report.checked += checked;
            report.position_failures += failures;
            report.max_error = report.max_error.max(f64::from_bits(max_error));
            report.id_sum += (id_hi as u128) << 64 | id_lo as u128;
            max_count = max_count.max(count);
            total_count += count;
            report.failing_ids.extend_from_slice(ids);
        }
        report.failing_ids.sort_unstable();
        report.failing_ids.dedup();
        report.failing_ids.truncate(MAX_FAILING_IDS);
        (report, max_count, total_count)
    }

    /// Final outcome assembly: verify, count, and move the store's batch
    /// into the outcome. The store is left **empty** (as built from no
    /// particles; [`BinnedStore::take_batch`]) — the run is over, and the
    /// outcome holds the rank's one copy of its particles.
    pub fn finish(&mut self, comm: &Communicator) -> ParOutcome {
        self.finish_traced(comm, &mut Tracer::disabled())
    }

    /// [`RankState::finish`] with the finish collective timed as the
    /// `verify` phase.
    pub fn finish_traced(&mut self, comm: &Communicator, tracer: &mut Tracer) -> ParOutcome {
        tracer.phase_start(Phase::Verify);
        let (verify, max_count, total_count) = self.gather_finish(comm);
        tracer.phase_end(Phase::Verify);
        ParOutcome {
            verify,
            local_count: self.local_count(),
            max_count,
            total_count,
            steps: self.step,
            kernel: self.kernel_desc(),
            particles: self.store.take_batch(),
        }
    }
}

/// Agree on the trace sampling interval across ranks (max of every rank's
/// `sample_every`; 0 when no rank traces). Collectives in the telemetry
/// path must be entered by *every* rank at the same steps even though
/// typically only rank 0 holds an enabled tracer — runners call this once
/// up front and gate [`snapshot_loads`] on the agreed value.
pub(crate) fn trace_interval(comm: &Communicator, tracer: &Tracer) -> u64 {
    allreduce_u64(comm, tracer.sample_every() as u64, ReduceOp::Max)
}

/// Collective telemetry snapshot at a traced step: the per-rank load
/// vector plus two windowed scalars (particles rehomed, and the wire
/// messages `st` sent since the previous snapshot) merged into a single
/// `(size + 2)`-slot vector allreduce. Feeds the tracer's load statistics
/// and the `rehomed` / `msgs_sent` / `collective_bytes` counters; returns
/// the global particle count. Must be called by every rank at the same
/// step.
pub(crate) fn snapshot_loads(
    comm: &Communicator,
    tracer: &mut Tracer,
    st: &mut RankState,
    sent_window: u64,
) -> u64 {
    let n = comm.size();
    let mut slots = vec![0u64; n + 2];
    slots[comm.rank()] = st.local_count() as u64;
    slots[n] = sent_window;
    slots[n + 1] = st.bufs.take_messages_sent();
    let counts = allreduce_vec_u64(comm, &slots, ReduceOp::Sum);
    tracer.add(Counter::Rehomed, counts[n]);
    tracer.add(Counter::MsgsSent, counts[n + 1]);
    tracer.add(Counter::CollectiveBytes, slots.len() as u64 * 8);
    let loads: Vec<f64> = counts[..n].iter().map(|&c| c as f64).collect();
    tracer.record_loads(&loads);
    counts[..n].iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_comm::world::run_threads;
    use pic_core::dist::Distribution;
    use pic_core::events::{Event, Region};
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
            (st.expected_id_sum(), st.store.batch().id.clone())
        });
        let ledger0 = outcomes[0].0;
        assert!(
            outcomes.iter().all(|o| o.0 == ledger0),
            "ledgers must agree"
        );
        let mut survivors: Vec<u64> = outcomes.into_iter().flat_map(|o| o.1).collect();
        survivors.sort_unstable();
        // Each rank offers only its own 40 lowest candidates; the doomed
        // set is still the AoS oracle's.
        let oracle: Vec<u64> = (pic_core::reference::run(setup, 1).iter())
            .map(|p| p.id)
            .collect();
        assert_eq!(survivors.len(), 160);
        assert_eq!(survivors, oracle);
        assert_eq!(ledger0, oracle.iter().map(|&id| id as u128).sum::<u128>());
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
