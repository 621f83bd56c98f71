//! Shared machinery for the rank-parallel runs: per-rank state, collective
//! event application, and distributed verification.

use crate::decomp::{Decomp2d, OwnerTable, VpGrid};
use crate::exchange::{route_binned, ExchangeBuffers};
use pic_cluster::balancer::Layout;
use pic_comm::collective::{
    allgatherv, allreduce_f64, allreduce_u128, allreduce_u64, allreduce_vec_u64,
    allreduce_vec_u64_into, decode_u64s, encode_u64s,
};
use pic_comm::comm::{Communicator, ReduceOp};
use pic_core::bin::{BinnedStore, CellTable, OwnerMap};
use pic_core::charge::SimConstants;
use pic_core::events::EventLedger;
use pic_core::geometry::Grid;
use pic_core::init::SimulationSetup;
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

/// Who owns a cell — the question every store scatter, event, exchange and
/// rehome asks.
enum Ownership {
    /// The Cartesian cuts of [`RankState::decomp`] (`mpi-2d`, `mpi-2d-LB`)
    /// as an O(1) cell → rank table, revalidated against them before every
    /// exchange (a balancer moves the cuts in place).
    Cuts(OwnerTable),
    /// A VP grid and its replicated VP→core table (`ampi`).
    Vps {
        grid: Box<VpGrid>,
        assignment: Vec<usize>,
        /// `assignment` as `u32`, the owner table the drain's classifier
        /// gathers from: rebuilt only when the assignment changes.
        core_of_vp: Vec<u32>,
    },
}

impl Ownership {
    /// Rank owning cell `(col, row)`.
    fn owner_of_cell(&self, decomp: &Decomp2d, col: usize, row: usize) -> usize {
        match self {
            Ownership::Cuts(_) => decomp.owner_of_cell(col, row),
            Ownership::Vps {
                grid, assignment, ..
            } => assignment[grid.vp_of_cell(col, row)],
        }
    }

    /// What an exchange of rank `me` asks of the map: the drain's
    /// classifier, and the table a leaver's destination is read from. The
    /// cut table is revalidated against `decomp` first.
    fn exchange_maps(
        &mut self,
        decomp: &Decomp2d,
        grid: &Grid,
        me: usize,
    ) -> (OwnerMap<'_>, CellTable<'_>) {
        match self {
            Ownership::Cuts(table) => {
                table.refresh(decomp);
                (table.map(grid, me), table.rank_cells(grid, me))
            }
            Ownership::Vps {
                grid: vps,
                core_of_vp,
                ..
            } => {
                let cells = vps.cells(grid, core_of_vp, me);
                (OwnerMap::Cells(cells), cells)
            }
        }
    }
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
    owners: Ownership,
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
        let owners = Ownership::Cuts(OwnerTable::new(&decomp));
        RankState::build(setup, decomp, owners, rank, kernel)
    }

    /// A core of the VP runtime (paper §IV-C): cells are owned through
    /// `vps` and a replicated VP→core table, starting from the compact
    /// blocks of [`VpGrid::initial_assignment`]. A VP balancer's round
    /// moves the table.
    pub fn with_vps(
        setup: &SimulationSetup,
        vps: VpGrid,
        rank: usize,
        kernel: RankKernel,
    ) -> RankState {
        let decomp = Decomp2d::uniform_grid(setup.grid.ncells(), vps.px, vps.py);
        let assignment = vps.initial_assignment();
        let owners = Ownership::Vps {
            grid: Box::new(vps),
            core_of_vp: assignment.iter().map(|&c| c as u32).collect(),
            assignment,
        };
        RankState::build(setup, decomp, owners, rank, kernel)
    }

    fn build(
        setup: &SimulationSetup,
        decomp: Decomp2d,
        owners: Ownership,
        rank: usize,
        kernel: RankKernel,
    ) -> RankState {
        let owns = |c, r| owners.owner_of_cell(&decomp, c, r) == rank;
        let store = kernel.build_store(&setup.particles, &setup.grid, owns);
        RankState {
            grid: setup.grid,
            consts: setup.consts,
            decomp,
            rank,
            store,
            step: 0,
            owners,
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
        let owns = |c, r| self.owners.owner_of_cell(&self.decomp, c, r) == self.rank;
        let agree = |offered: Vec<u64>| {
            let gathered = allgatherv(comm, encode_u64s(&offered));
            gathered.iter().flat_map(|b| decode_u64s(b)).collect()
        };
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
    /// exchange of every leaver under the ownership map. The trace's
    /// `rebins` and `overlap_ns` counters stay at 0 (schema v2).
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
        let (classifier, owners) = self
            .owners
            .exchange_maps(&self.decomp, &self.grid, self.rank);
        let owner = |c, r| owners.owner_of_cell(c, r);
        route_binned(
            comm,
            classifier,
            owner,
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
    /// (VPs are 2D tiles, not column ranges) through the drain
    /// classifier's per-lane VP index, then one vector allreduce. Leaves
    /// `out` empty under the cuts, which have no VPs.
    pub(crate) fn aggregate_vp_counts_into(&mut self, comm: &Communicator, out: &mut Vec<u64>) {
        out.clear();
        let Ownership::Vps {
            grid, core_of_vp, ..
        } = &self.owners
        else {
            return;
        };
        self.lb_scratch.clear();
        self.lb_scratch.resize(grid.vp_count(), 0);
        let (batch, backend) = (self.store.batch(), self.store.simd_backend());
        let cells = grid.cells(&self.grid, core_of_vp, self.rank);
        cells.count_into(
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
        let (xcuts, ycuts, vp_assignment) = match &self.owners {
            Ownership::Cuts(_) => (&self.decomp.xcuts[..], &self.decomp.ycuts[..], &[][..]),
            Ownership::Vps { assignment, .. } => (&[][..], &[][..], &assignment[..]),
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
        let Ownership::Vps {
            assignment,
            core_of_vp,
            ..
        } = &mut self.owners
        else {
            panic!("a VP reassignment under the Cartesian cuts");
        };
        if *assignment != new {
            core_of_vp.clear();
            core_of_vp.extend(new.iter().map(|&c| c as u32));
        }
        *assignment = new;
    }

    /// Distributed verification of this rank's store at the current step:
    /// the local analytic check streams over the store in place (no AoS
    /// copy, no sort — see [`verify_batch`]), then failures, checksum, max
    /// error and failing ids are merged globally, so every rank returns the
    /// identical report.
    pub fn verify(&self, comm: &Communicator) -> VerifyReport {
        let local = verify_batch(
            &self.grid,
            self.store.batch(),
            self.step,
            0,
            DEFAULT_TOLERANCE,
        );
        VerifyReport {
            checked: allreduce_u64(comm, local.checked, ReduceOp::Sum),
            position_failures: allreduce_u64(comm, local.position_failures, ReduceOp::Sum),
            max_error: allreduce_f64(comm, local.max_error, ReduceOp::Max),
            id_sum: allreduce_u128(comm, local.id_sum, ReduceOp::Sum),
            failing_ids: merge_failing_ids(comm, &local.failing_ids),
            expected_id_sum: self.expected_id_sum(),
            tolerance: DEFAULT_TOLERANCE,
        }
    }

    /// Collective imbalance probe: (max per-rank count, total count).
    pub fn count_stats(&self, comm: &Communicator) -> (u64, u64) {
        let local = self.local_count() as u64;
        let max = allreduce_u64(comm, local, ReduceOp::Max);
        let total = allreduce_u64(comm, local, ReduceOp::Sum);
        (max, total)
    }

    /// Final outcome assembly: verify, count, and move the store's batch
    /// into the outcome. The store is left **empty** (as built from no
    /// particles; [`BinnedStore::take_batch`]) — the run is over, and the
    /// outcome holds the rank's one copy of its particles.
    pub fn finish(&mut self, comm: &Communicator) -> ParOutcome {
        self.finish_traced(comm, &mut Tracer::disabled())
    }

    /// [`RankState::finish`] with the verification collectives timed as
    /// the `verify` phase.
    pub fn finish_traced(&mut self, comm: &Communicator, tracer: &mut Tracer) -> ParOutcome {
        tracer.phase_start(Phase::Verify);
        let verify = self.verify(comm);
        tracer.phase_end(Phase::Verify);
        let (max_count, total_count) = self.count_stats(comm);
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

/// Globally merge per-rank failing-id diagnostics: allgather, sort, dedup,
/// cap at [`MAX_FAILING_IDS`]. Every rank ends with the identical list no
/// matter which rank held the failing particles — previously each rank
/// reported only its local ids while the rest of the report was global.
fn merge_failing_ids(comm: &Communicator, local: &[u64]) -> Vec<u64> {
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
