//! The serial engine: the whole population in one phase-split SoA store
//! ([`BinnedStore`]), swept through the worker pool with the SIMD span
//! kernel, events applied through the same [`EventLedger`] as every rank.
//!
//! The engine applies scheduled injection/removal events, advances every
//! particle by the constant-acceleration kinematics, and keeps the
//! id-checksum ledger that the final verification compares against. It
//! ends, per id and bit for bit, in the population of the AoS oracle
//! [`crate::reference::run`] — asserted by this module's tests and the
//! property tests — as does every distributed implementation.

use crate::bin::{BinnedStore, DEFAULT_REBIN};
use crate::charge::SimConstants;
use crate::events::EventLedger;
use crate::geometry::Grid;
use crate::init::SimulationSetup;
use crate::particle::Particle;
use crate::pool;
use crate::simd::SimdBackend;
use crate::soa::ParticleBatch;
use crate::verify::{verify_batch, VerifyReport, DEFAULT_TOLERANCE};

/// What [`Simulation::with_mode`] once chose between; the binned store is
/// now the only one. Kept only because the benchmark's adapter
/// (`bench/src/adapter.rs:394`) names it; adapter v2 deletes it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    #[default]
    SoaBinned,
}

/// The serial simulation.
#[derive(Debug, Clone)]
pub struct Simulation {
    grid: Grid,
    consts: SimConstants,
    store: BinnedStore,
    ledger: EventLedger,
    step: u32,
    /// Explicit chunk size for the pooled sweep; `None` (the default)
    /// selects [`pool::adaptive_chunk`] from the population size and the
    /// active thread count at each step.
    chunk_size: Option<usize>,
}

impl Simulation {
    /// Build a simulation from a setup produced by
    /// [`crate::init::InitConfig::build`].
    pub fn new(setup: SimulationSetup) -> Simulation {
        Simulation {
            grid: setup.grid,
            consts: setup.consts,
            store: BinnedStore::new(&setup.particles, &setup.grid, DEFAULT_REBIN),
            ledger: EventLedger::new(&setup),
            step: 0,
            chunk_size: None,
        }
    }

    /// [`Simulation::new`]; the mode has one value. Kept only for the
    /// benchmark's adapter, like [`SweepMode`].
    #[doc(hidden)]
    pub fn with_mode(setup: SimulationSetup, _mode: SweepMode) -> Simulation {
        Simulation::new(setup)
    }

    /// Set an explicit chunk size for the pooled sweep — the
    /// schedule-independence test handle. Values are clamped to at least 1.
    /// Without this, the engine picks an adaptive default —
    /// [`pool::adaptive_chunk`] — that scales with the population and the
    /// active thread count so per-chunk dispatch overhead never dominates.
    /// Chunk size affects scheduling only; results are bit-identical for
    /// any value.
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

    /// Force a specific SIMD backend for the sweep kernel. The default is
    /// [`SimdBackend::detect`] at construction. Every backend is
    /// bit-identical; this is the A/B handle behind the `PIC_NO_SIMD`
    /// environment variable and the cross-backend identity tests.
    pub fn with_simd_backend(mut self, backend: SimdBackend) -> Simulation {
        self.store.set_simd_backend(backend);
        self
    }

    /// Short kernel descriptor for telemetry and driver output
    /// ([`BinnedStore::kernel_desc`]).
    pub fn kernel_desc(&self) -> String {
        self.store.kernel_desc()
    }

    /// Current step index (number of steps executed so far).
    pub fn step_index(&self) -> u32 {
        self.step
    }

    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The current population, materialized as AoS records in ascending-id
    /// order (allocates). For allocation-free bulk reads use the histogram
    /// `_into` methods or [`Simulation::batch`].
    pub fn particles(&self) -> Vec<Particle> {
        self.store.to_particles()
    }

    /// Direct view of the SoA store — in storage order, not canonical order;
    /// use [`Simulation::particles`] when ordering matters.
    pub fn batch(&self) -> &ParticleBatch {
        self.store.batch()
    }

    pub fn particle_count(&self) -> usize {
        self.store.len()
    }

    /// The checksum ledger: what the id sum of the surviving particles
    /// must equal.
    pub fn expected_id_sum(&self) -> u128 {
        self.ledger.expected_id_sum()
    }

    /// Apply all events scheduled for the current step. Called by
    /// [`Simulation::step`], exposed for harnesses that drive sub-phases.
    /// The store holds the whole population, so the removal set it offers
    /// is already agreed.
    pub fn apply_due_events(&mut self) {
        self.ledger
            .apply_due(self.step, &mut self.store, |_, _| true, |ids| ids);
    }

    /// Execute one time step: events due at this step, then the particle
    /// sweep (force + eqs. 1–2 + periodic wrap).
    pub fn step(&mut self) {
        self.apply_due_events();
        let chunk = self.chunk_size();
        self.store.advance_all(&self.grid, &self.consts, chunk);
        self.step += 1;
    }

    /// Execute `t` steps.
    pub fn run(&mut self, t: u32) {
        for _ in 0..t {
            self.step();
        }
    }

    /// Verify the current population against eqs. 5–6 (within
    /// [`DEFAULT_TOLERANCE`]) and the checksum. Streams over the store in
    /// storage order — no AoS copy, no sort; the report is the one
    /// [`crate::verify::verify_all`] gives for [`Simulation::particles`].
    pub fn verify(&self) -> VerifyReport {
        let sum = self.expected_id_sum();
        verify_batch(
            &self.grid,
            self.store.batch(),
            self.step,
            sum,
            DEFAULT_TOLERANCE,
        )
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
    /// (allocation-free once `h` has reached grid capacity): one O(n) scan
    /// of the current positions.
    pub fn column_histogram_into(&self, h: &mut Vec<u64>) {
        self.store.column_histogram_into(&self.grid, h)
    }

    /// Corrupt one particle (by canonical index) in place —
    /// failure-injection tests *only*.
    #[doc(hidden)]
    pub fn mutate_particle(&mut self, idx: usize, f: impl FnOnce(&mut Particle)) {
        let mut p = self.store.particle_at(idx);
        f(&mut p);
        self.store.set(idx, p);
    }

    /// Read one particle by canonical index — failure-injection tests
    /// *only*.
    #[doc(hidden)]
    pub fn particle_at(&self, idx: usize) -> Particle {
        self.store.particle_at(idx)
    }

    /// Drop the canonically-last particle — failure-injection tests *only*.
    #[doc(hidden)]
    pub fn pop_particle(&mut self) -> Option<Particle> {
        self.store.pop()
    }

    /// Append a particle without touching the ledger — failure-injection
    /// tests *only*.
    #[doc(hidden)]
    pub fn push_particle(&mut self, p: Particle) {
        self.store.push_tail(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::events::{Event, Region};
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
        let reference = crate::reference::run(s.clone(), 40);
        let mut sim = Simulation::new(s).with_chunk_size(37);
        sim.run(40);
        assert_eq!(
            reference,
            sim.particles(),
            "the binned engine diverged from the AoS oracle (same order, same bits)"
        );
        let ids: u128 = reference.iter().map(|p| p.id as u128).sum();
        assert_eq!(sim.expected_id_sum(), ids);
        assert!(sim.verify().passed());
    }

    #[test]
    fn soa_store_is_native_no_aos_roundtrip() {
        let mut sim = Simulation::new(setup(100, Distribution::Uniform));
        sim.run(5);
        assert_eq!(sim.batch().len(), 100);
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
