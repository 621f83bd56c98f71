//! Serial (and shared-memory parallel) reference engine.
//!
//! The engine is the executable form of the paper-and-pencil specification:
//! it applies scheduled injection/removal events, advances every particle by
//! the constant-acceleration kinematics, and maintains the id-checksum
//! ledger that the final verification compares against. All parallel
//! implementations must produce exactly the population this engine produces
//! (same ids, positions within tolerance).
//!
//! ## Sweep modes and the memory layout contract
//!
//! The particle store follows the sweep mode: [`SweepMode::Serial`] keeps
//! the population AoS (`Vec<Particle>`) and is the scalar reference;
//! [`SweepMode::SoaBinned`] (production) keeps it in the cell-binned
//! structure-of-arrays [`BinnedStore`] for the whole run — events and
//! histograms operate on the store natively, with no per-step AoS
//! round-trip. The reference and the binned mode run the
//! same per-particle instruction sequence (eqs. 1–2
//! behind the same force evaluation) and apply events by the same
//! deterministic rules (injections append in build order; removals take
//! lowest ids first), so **they produce bit-identical particle
//! populations in identical canonical order** — asserted by this module's
//! tests and the cross-layout property tests.

use crate::bin::{BinnedStore, DEFAULT_REBIN};
use crate::charge::SimConstants;
use crate::events::{Event, EventKind};
use crate::geometry::Grid;
use crate::init::{apply_removal, build_injection, SimulationSetup};
use crate::motion::advance_all;
use crate::particle::Particle;
use crate::pool;
use crate::simd::SimdBackend;
use crate::soa::ParticleBatch;
use crate::verify::{verify_all, verify_batch, VerifyReport, DEFAULT_TOLERANCE};

/// Execution mode for the per-step particle sweep. Also selects the
/// particle storage layout (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// One thread, AoS storage, deterministic order — the scalar
    /// reference every bit-identity suite compares against.
    #[default]
    Serial,
    /// Pool-parallel chunked sweep over cell-binned SoA storage
    /// ([`BinnedStore`]): particles are counting-sorted by cell column at
    /// construction and after every event, and swept with the
    /// parity-specialized kernel, which needs no re-sort in between; the
    /// per-column load histogram is an O(columns) read while the binning
    /// is fresh.
    SoaBinned,
}

impl SweepMode {
    /// Every sweep mode, in CLI/help order.
    pub const ALL: [SweepMode; 2] = [SweepMode::Serial, SweepMode::SoaBinned];

    /// The name this mode goes by on the `pic --sweep` command line. The
    /// single source for CLI parsing, help text, and the bench harness —
    /// kept here so they can never drift apart.
    pub fn cli_name(self) -> &'static str {
        match self {
            SweepMode::Serial => "serial",
            SweepMode::SoaBinned => "soa-binned",
        }
    }

    /// Inverse of [`SweepMode::cli_name`].
    pub fn from_cli_name(name: &str) -> Option<SweepMode> {
        SweepMode::ALL
            .iter()
            .copied()
            .find(|m| m.cli_name() == name)
    }
}

/// The particle population in whichever layout the sweep mode selected.
// One store exists per Simulation (never in arrays), so the size gap
// between the binned SoA store and the single AoS vec is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum ParticleStore {
    Aos(Vec<Particle>),
    Binned(BinnedStore),
}

impl ParticleStore {
    fn len(&self) -> usize {
        match self {
            ParticleStore::Aos(v) => v.len(),
            ParticleStore::Binned(b) => b.len(),
        }
    }

    /// Canonical (ascending-id) materialization, identical across layouts.
    fn to_particles(&self) -> Vec<Particle> {
        match self {
            ParticleStore::Aos(v) => v.clone(),
            ParticleStore::Binned(b) => b.to_particles(),
        }
    }

    fn extend(&mut self, particles: Vec<Particle>) {
        match self {
            ParticleStore::Aos(v) => v.extend(particles),
            ParticleStore::Binned(b) => b.extend(particles),
        }
    }
}

/// The reference simulation.
#[derive(Debug, Clone)]
pub struct Simulation {
    grid: Grid,
    consts: SimConstants,
    store: ParticleStore,
    events: Vec<Event>,
    next_event: usize,
    step: u32,
    next_id: u64,
    expected_id_sum: u128,
    mode: SweepMode,
    /// Explicit chunk size for the pooled sweeps; `None` (the default)
    /// selects [`pool::adaptive_chunk`] from the population size and the
    /// active thread count at each step.
    chunk_size: Option<usize>,
}

pub use crate::init::SimulationSetup as Setup;

impl Simulation {
    /// Build a simulation from a setup produced by
    /// [`crate::init::InitConfig::build`].
    pub fn new(setup: SimulationSetup) -> Simulation {
        Self::with_mode(setup, SweepMode::Serial)
    }

    /// Build with an explicit sweep mode.
    pub fn with_mode(setup: SimulationSetup, mode: SweepMode) -> Simulation {
        let expected_id_sum = setup.initial_id_sum();
        let mut events = setup.events;
        events.sort_by_key(|e| e.at_step);
        let store = match mode {
            SweepMode::Serial => ParticleStore::Aos(setup.particles),
            SweepMode::SoaBinned => ParticleStore::Binned(BinnedStore::new(
                &setup.particles,
                &setup.grid,
                DEFAULT_REBIN,
            )),
        };
        Simulation {
            grid: setup.grid,
            consts: setup.consts,
            store,
            events,
            next_event: 0,
            step: 0,
            next_id: setup.next_id,
            expected_id_sum,
            mode,
            chunk_size: None,
        }
    }

    /// Set an explicit chunk size for the binned sweeps (ignored by
    /// [`SweepMode::Serial`]) — the schedule-independence test handle. Values are
    /// clamped to at least 1. Without this, the engine picks an adaptive
    /// default — [`pool::adaptive_chunk`] — that scales with the
    /// population and the active thread count so per-chunk dispatch
    /// overhead never dominates. Chunk size affects scheduling only;
    /// results are bit-identical for any value.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Simulation {
        self.chunk_size = Some(chunk_size.max(1));
        self
    }

    /// The chunk size the next chunked sweep would use (the explicit
    /// setting, or the adaptive default for the current population).
    pub fn chunk_size(&self) -> usize {
        self.chunk_size.unwrap_or_else(|| {
            pool::adaptive_chunk(self.store.len(), pool::global().active_threads())
        })
    }

    /// Force a specific SIMD backend for the binned kernel (no-op in
    /// [`SweepMode::Serial`], which doesn't use the explicit SIMD layer). The default is [`SimdBackend::detect`] at
    /// construction. Every backend is bit-identical; this is the A/B
    /// handle behind the `PIC_NO_SIMD` environment variable and the
    /// cross-backend identity tests.
    pub fn with_simd_backend(mut self, backend: SimdBackend) -> Simulation {
        if let ParticleStore::Binned(b) = &mut self.store {
            b.set_simd_backend(backend);
        }
        self
    }

    /// The SIMD backend the binned sweep kernel runs on (`None` for
    /// [`SweepMode::Serial`]).
    pub fn simd_backend(&self) -> Option<SimdBackend> {
        match &self.store {
            ParticleStore::Binned(b) => Some(b.simd_backend()),
            _ => None,
        }
    }

    /// Short kernel descriptor for telemetry and driver output:
    /// [`BinnedStore::kernel_desc`] for the binned mode, `"none"` for
    /// [`SweepMode::Serial`].
    pub fn kernel_desc(&self) -> String {
        match &self.store {
            ParticleStore::Binned(b) => b.kernel_desc(),
            ParticleStore::Aos(_) => "none".to_string(),
        }
    }

    /// The active sweep mode.
    pub fn mode(&self) -> SweepMode {
        self.mode
    }

    /// Current step index (number of steps executed so far).
    pub fn step_index(&self) -> u32 {
        self.step
    }

    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The current population, materialized as AoS records (allocates; the
    /// store itself may be SoA). Ordering is identical across all sweep
    /// modes. For allocation-free bulk reads use the histogram `_into`
    /// methods or [`Simulation::batch`].
    pub fn particles(&self) -> Vec<Particle> {
        self.store.to_particles()
    }

    /// Direct view of the SoA store, when the mode keeps one (`None` for
    /// [`SweepMode::Serial`]). The batch is in bin
    /// order, not canonical order — use [`Simulation::particles`] when
    /// ordering matters.
    pub fn batch(&self) -> Option<&ParticleBatch> {
        match &self.store {
            ParticleStore::Aos(_) => None,
            ParticleStore::Binned(b) => Some(b.batch()),
        }
    }

    pub fn particle_count(&self) -> usize {
        self.store.len()
    }

    /// Lifetime counting-sort (rebin) invocations; 0 for the AoS
    /// store. Telemetry hook for the trace `rebins` counter.
    pub fn rebin_count(&self) -> u64 {
        match &self.store {
            ParticleStore::Binned(b) => b.rebin_count(),
            _ => 0,
        }
    }

    /// The checksum ledger: what the id sum of the surviving particles
    /// must equal.
    pub fn expected_id_sum(&self) -> u128 {
        self.expected_id_sum
    }

    /// Apply all events scheduled for the current step. Called by
    /// [`Simulation::step`], exposed for harnesses that drive sub-phases.
    pub fn apply_due_events(&mut self) {
        while self.next_event < self.events.len()
            && self.events[self.next_event].at_step == self.step
        {
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
                        self.step,
                        &mut self.next_id,
                    );
                    for p in &newcomers {
                        self.expected_id_sum += p.id as u128;
                    }
                    self.store.extend(newcomers);
                }
                EventKind::Remove { count } => {
                    let removed = match &mut self.store {
                        ParticleStore::Aos(v) => apply_removal(v, e.region, count),
                        ParticleStore::Binned(b) => b.remove_in_region(&e.region, count),
                    };
                    for p in &removed {
                        self.expected_id_sum -= p.id as u128;
                    }
                }
            }
        }
    }

    /// Execute one time step: events due at this step, then the particle
    /// sweep (force + eqs. 1–2 + periodic wrap).
    pub fn step(&mut self) {
        self.apply_due_events();
        match &mut self.store {
            ParticleStore::Aos(v) => advance_all(&self.grid, &self.consts, v),
            ParticleStore::Binned(b) => {
                let chunk = self.chunk_size.unwrap_or_else(|| {
                    pool::adaptive_chunk(b.len(), pool::global().active_threads())
                });
                b.advance_all(&self.grid, &self.consts, chunk)
            }
        }
        self.step += 1;
    }

    /// Execute `t` steps.
    pub fn run(&mut self, t: u32) {
        for _ in 0..t {
            self.step();
        }
    }

    /// Verify the current population against eqs. 5–6 (within
    /// [`DEFAULT_TOLERANCE`]) and the checksum. Streams over the store
    /// where it lies (storage order for the SoA layout — no AoS copy, no
    /// sort); the report is the one [`verify_all`] gives for
    /// [`Simulation::particles`].
    pub fn verify(&self) -> VerifyReport {
        let (grid, step, sum) = (&self.grid, self.step, self.expected_id_sum);
        let tol = DEFAULT_TOLERANCE;
        match &self.store {
            ParticleStore::Aos(v) => verify_all(grid, v, step, sum, tol),
            ParticleStore::Binned(b) => verify_batch(grid, b.batch(), step, sum, tol),
        }
    }

    /// Histogram of particle counts per cell column — the quantity the
    /// x-direction load balancers equalize. Allocates; balancer loops
    /// should use [`Simulation::column_histogram_into`].
    pub fn column_histogram(&self) -> Vec<u64> {
        let mut h = Vec::new();
        self.column_histogram_into(&mut h);
        h
    }

    /// Fill `h` with the per-column histogram, reusing its storage
    /// (allocation-free once `h` has reached grid capacity). In
    /// [`SweepMode::SoaBinned`] with a fresh binning (no sweep since the
    /// last sort) this is an O(columns) prefix-sum read; otherwise the
    /// O(n) scan.
    pub fn column_histogram_into(&self, h: &mut Vec<u64>) {
        match &self.store {
            ParticleStore::Aos(v) => {
                h.clear();
                h.resize(self.grid.ncells(), 0);
                for p in v {
                    h[self.grid.cell_of(p.x)] += 1;
                }
            }
            ParticleStore::Binned(b) => b.column_histogram_into(&self.grid, h),
        }
    }

    /// Fill `h` with the histogram of particle counts per cell row (for
    /// rotated workloads and the two-phase balancer's y phase), reusing
    /// its storage. (Bins are per *column*, so the binned store has no row
    /// fast path — this is always the O(n) scan.)
    pub fn row_histogram_into(&self, h: &mut Vec<u64>) {
        h.clear();
        h.resize(self.grid.ncells(), 0);
        match &self.store {
            ParticleStore::Aos(v) => {
                for p in v {
                    h[self.grid.cell_of(p.y)] += 1;
                }
            }
            ParticleStore::Binned(b) => {
                for &y in &b.batch().y {
                    h[self.grid.cell_of(y)] += 1;
                }
            }
        }
    }

    /// Corrupt one particle in place — failure-injection tests *only*.
    #[doc(hidden)]
    pub fn mutate_particle(&mut self, idx: usize, f: impl FnOnce(&mut Particle)) {
        match &mut self.store {
            ParticleStore::Aos(v) => f(&mut v[idx]),
            ParticleStore::Binned(b) => {
                let mut p = b.particle_at(idx);
                f(&mut p);
                b.set(idx, p);
            }
        }
    }

    /// Read one particle by canonical index — failure-injection tests
    /// *only*. (`idx` addresses the same particle in every sweep mode.)
    #[doc(hidden)]
    pub fn particle_at(&self, idx: usize) -> Particle {
        match &self.store {
            ParticleStore::Aos(v) => v[idx],
            ParticleStore::Binned(b) => b.particle_at(idx),
        }
    }

    /// Drop the canonically-last particle — failure-injection tests *only*.
    #[doc(hidden)]
    pub fn pop_particle(&mut self) -> Option<Particle> {
        match &mut self.store {
            ParticleStore::Aos(v) => v.pop(),
            ParticleStore::Binned(b) => b.pop(),
        }
    }

    /// Append a particle without touching the ledger — failure-injection
    /// tests *only*.
    #[doc(hidden)]
    pub fn push_particle(&mut self, p: Particle) {
        match &mut self.store {
            ParticleStore::Aos(v) => v.push(p),
            ParticleStore::Binned(b) => b.push(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::events::Region;
    use crate::init::InitConfig;
    use crate::verify::triangular_id_sum;

    fn setup(n: u64, dist: Distribution) -> SimulationSetup {
        InitConfig::new(Grid::new(32).unwrap(), n, dist)
            .with_m(1)
            .build()
            .unwrap()
    }

    #[test]
    fn event_free_run_verifies() {
        let mut sim = Simulation::new(setup(500, Distribution::PAPER_SKEW));
        sim.run(200);
        let report = sim.verify();
        assert!(report.passed(), "{report:?}");
        assert_eq!(report.checked, 500);
        assert_eq!(report.id_sum, triangular_id_sum(500));
        assert!(report.max_error < 1e-9, "max error {}", report.max_error);
    }

    #[test]
    fn binned_sweep_matches_serial_bitwise() {
        let region = Region {
            x0: 0,
            x1: 8,
            y0: 0,
            y1: 8,
        };
        let s = setup(400, Distribution::Geometric { r: 0.9 })
            .with_event(Event::inject(30, region, 10, 0, 1, 1))
            .with_event(Event::remove(25, Region::whole(32), 25));
        let mut reference = Simulation::with_mode(s.clone(), SweepMode::Serial);
        reference.run(40);
        let mut sim = Simulation::with_mode(s, SweepMode::SoaBinned).with_chunk_size(37);
        sim.run(40);
        assert_eq!(
            reference.particles(),
            sim.particles(),
            "soa-binned diverged from serial (same order, same bits)"
        );
        assert_eq!(reference.expected_id_sum(), sim.expected_id_sum());
        assert!(sim.verify().passed());
    }

    #[test]
    fn cli_names_round_trip_for_every_mode() {
        for mode in SweepMode::ALL {
            assert_eq!(SweepMode::from_cli_name(mode.cli_name()), Some(mode));
        }
        assert_eq!(SweepMode::from_cli_name("nope"), None);
    }

    #[test]
    fn soa_store_is_native_no_aos_roundtrip() {
        let s = setup(100, Distribution::Uniform);
        let mut sim = Simulation::with_mode(s, SweepMode::SoaBinned);
        assert!(sim.batch().is_some(), "SoA mode exposes the batch");
        sim.run(5);
        assert_eq!(sim.batch().unwrap().len(), 100);
        let mut h = Vec::new();
        sim.column_histogram_into(&mut h);
        assert_eq!(h.iter().sum::<u64>(), 100);
    }

    #[test]
    fn distribution_drifts_one_cell_per_step() {
        let mut sim = Simulation::new(setup(1000, Distribution::Geometric { r: 0.9 }));
        let before = sim.column_histogram();
        sim.run(3);
        let after = sim.column_histogram();
        // The whole histogram rotates right by 3 (k = 0).
        for col in 0..32 {
            assert_eq!(after[(col + 3) % 32], before[col], "column {col}");
        }
    }

    #[test]
    fn injection_updates_ledger_and_verifies() {
        let region = Region {
            x0: 0,
            x1: 8,
            y0: 0,
            y1: 8,
        };
        let s =
            setup(100, Distribution::Uniform).with_event(Event::inject(10, region, 50, 0, 0, 1));
        let mut sim = Simulation::new(s);
        sim.run(30);
        assert_eq!(sim.particle_count(), 150);
        let report = sim.verify();
        assert!(report.passed(), "{report:?}");
        assert_eq!(
            sim.expected_id_sum(),
            triangular_id_sum(150),
            "injected ids continue the range"
        );
    }

    #[test]
    fn removal_updates_ledger_and_verifies() {
        let s =
            setup(100, Distribution::Uniform).with_event(Event::remove(5, Region::whole(32), 30));
        let mut sim = Simulation::new(s);
        sim.run(20);
        assert_eq!(sim.particle_count(), 70);
        let report = sim.verify();
        assert!(report.passed(), "{report:?}");
        assert!(sim.expected_id_sum() < triangular_id_sum(100));
    }

    #[test]
    fn events_fire_in_step_order_even_if_added_unsorted() {
        let region = Region {
            x0: 0,
            x1: 32,
            y0: 0,
            y1: 32,
        };
        let s = setup(10, Distribution::Uniform)
            .with_event(Event::inject(20, region, 5, 0, 0, 1))
            .with_event(Event::inject(5, region, 7, 0, 0, 1));
        let mut sim = Simulation::new(s);
        sim.run(6);
        assert_eq!(sim.particle_count(), 17);
        sim.run(20);
        assert_eq!(sim.particle_count(), 22);
        assert!(sim.verify().passed());
    }

    #[test]
    fn failure_injection_position_corruption_detected() {
        // The paper: verification is "sensitive enough to reveal ... even as
        // minor as a single particle miscalculation in a single time step."
        let mut sim = Simulation::new(setup(200, Distribution::Uniform));
        sim.run(19);
        sim.mutate_particle(77, |p| p.x += 1.0); // one particle, one cell, one step
        sim.run(1);
        let report = sim.verify();
        assert_eq!(report.position_failures, 1);
        assert!(!report.passed());
    }

    #[test]
    fn failure_injection_lost_particle_detected_by_checksum() {
        let mut sim = Simulation::new(setup(50, Distribution::Uniform));
        sim.run(10);
        sim.pop_particle();
        let report = sim.verify();
        assert!(!report.passed());
        assert_eq!(report.position_failures, 0, "positions fine, checksum not");
        assert_ne!(report.id_sum, report.expected_id_sum);
    }

    #[test]
    fn failure_injection_duplicated_particle_detected() {
        let mut sim = Simulation::new(setup(50, Distribution::Uniform));
        sim.run(10);
        let dup = sim.particle_at(0);
        sim.push_particle(dup);
        let report = sim.verify();
        assert!(!report.passed());
    }

    #[test]
    fn zero_step_run_trivially_verifies() {
        let sim = Simulation::new(setup(10, Distribution::Uniform));
        assert!(sim.verify().passed());
    }

    #[test]
    fn fast_particles_wrap_many_times_and_verify() {
        let s = InitConfig::new(Grid::new(16).unwrap(), 64, Distribution::Uniform)
            .with_k(3) // 7 cells per step on a 16-cell grid
            .with_m(-5)
            .with_dir(-1)
            .build()
            .unwrap();
        let mut sim = Simulation::new(s);
        sim.run(100);
        let report = sim.verify();
        assert!(report.passed(), "{report:?}");
    }
}
