//! Tracing driver for the single-process [`Simulation`].
//!
//! The parallel runners thread a [`Tracer`] through their own loops (see
//! `pic-par`); the serial engine has no runner, so this module provides
//! one: step the simulation, time the sweep as the `advance` phase, count
//! rebins, and snapshot the per-*column* particle histogram as the load
//! vector at sampled steps (a single process has no per-rank loads — the
//! column distribution is the serial analogue, and it is exactly what the
//! x-cut balancers partition).

use crate::tracer::{Counter, Phase, Tracer};
use pic_core::engine::Simulation;

/// Run `steps` steps of `sim` under `tracer`. With a disabled tracer this
/// is `sim.run(steps)` plus one counter read per step — no clocks, no
/// allocation on the sweep path (pinned by `tests/disabled_overhead.rs`).
pub fn trace_simulation(sim: &mut Simulation, steps: u32, tracer: &mut Tracer) {
    if tracer.enabled() {
        // kernel_desc() allocates its String; skip it entirely on the
        // disabled path (emit_run_header would discard it anyway), keeping
        // the zero-allocation contract pinned by tests/disabled_overhead.rs.
        tracer.emit_run_header(
            "serial",
            1,
            sim.particle_count() as u64,
            steps as u64,
            &sim.kernel_desc(),
            "none",
        );
    }
    let mut hist: Vec<u64> = Vec::new();
    let mut loads: Vec<f64> = Vec::new();
    let mut rebins_seen = sim.rebin_count();
    for _ in 0..steps {
        let s = sim.step_index() as u64 + 1;
        tracer.begin_step(s);
        tracer.phase_start(Phase::Advance);
        sim.step();
        tracer.phase_end(Phase::Advance);
        let rebins = sim.rebin_count();
        tracer.add(Counter::Rebins, rebins - rebins_seen);
        rebins_seen = rebins;
        if tracer.wants_step(s) {
            sim.column_histogram_into(&mut hist);
            loads.clear();
            loads.extend(hist.iter().map(|&c| c as f64));
            tracer.record_loads(&loads);
        }
        tracer.end_step(sim.particle_count() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_core::dist::Distribution;
    use pic_core::engine::SweepMode;
    use pic_core::geometry::Grid;
    use pic_core::init::{InitConfig, SimulationSetup};

    fn setup() -> SimulationSetup {
        let grid = Grid::new(16).unwrap();
        InitConfig::new(grid, 800, Distribution::Geometric { r: 0.9 })
            .with_m(1)
            .build()
            .unwrap()
    }

    fn sim(mode: SweepMode) -> Simulation {
        Simulation::with_mode(setup(), mode)
    }

    #[test]
    fn traced_run_matches_untraced() {
        let mut plain = sim(SweepMode::Serial);
        plain.run(20);
        let mut traced = sim(SweepMode::Serial);
        let mut tracer = Tracer::in_memory(4);
        trace_simulation(&mut traced, 20, &mut tracer);
        assert_eq!(plain.particles(), traced.particles());
        assert!(traced.verify().passed());

        let report = tracer.finish().unwrap();
        assert_eq!(report.summary.steps, 20);
        assert_eq!(report.steps.len(), 5, "every=4 over 20 steps");
        assert_eq!(report.summary.final_particles, 800);
        // Load snapshots are per-column counts summing to the population.
        let rec = &report.steps[0];
        assert_eq!(rec.loads.iter().sum::<f64>(), 800.0);
        let stats = rec.stats.unwrap();
        assert!(stats.imbalance >= 1.0 && stats.imbalance.is_finite());
    }

    #[test]
    fn binned_mode_reports_rebins() {
        use pic_core::events::{Event, Region};
        let setup = setup().with_event(Event::remove(20, Region::whole(16), 50));
        let mut s = Simulation::with_mode(setup, SweepMode::SoaBinned);
        let mut tracer = Tracer::in_memory(1);
        trace_simulation(&mut s, 32, &mut tracer);
        let report = tracer.finish().unwrap();
        let idx = Counter::ALL
            .iter()
            .position(|c| matches!(c, Counter::Rebins))
            .unwrap();
        // The serial engine has no rebin timer: the one sort in 32 steps
        // is the one that folds the removal event in.
        assert_eq!(report.summary.counters[idx], 1);
    }

    #[test]
    fn run_header_records_kernel_descriptor() {
        use crate::json::Json;
        // AoS serial mode: no explicit SIMD layer.
        let mut s = sim(SweepMode::Serial);
        let mut tracer = Tracer::in_memory(1);
        trace_simulation(&mut s, 1, &mut tracer);
        let report = tracer.finish().unwrap();
        let run = Json::parse(report.ndjson.lines().next().unwrap()).unwrap();
        assert_eq!(run.get("simd").unwrap().as_str(), Some("none"));

        // Binned mode: "<backend>/exact" (the schema-v1 spelling).
        let mut s = sim(SweepMode::SoaBinned);
        let mut tracer = Tracer::in_memory(1);
        trace_simulation(&mut s, 20, &mut tracer);
        let report = tracer.finish().unwrap();
        let run = Json::parse(report.ndjson.lines().next().unwrap()).unwrap();
        let desc = run.get("simd").unwrap().as_str().unwrap().to_string();
        assert!(desc.ends_with("/exact"), "descriptor was {desc}");
        assert_eq!(desc, s.kernel_desc());
    }

    #[test]
    fn disabled_tracer_changes_nothing() {
        let mut plain = sim(SweepMode::SoaBinned);
        plain.run(10);
        let mut traced = sim(SweepMode::SoaBinned);
        let mut t = Tracer::disabled();
        trace_simulation(&mut traced, 10, &mut t);
        assert_eq!(plain.particles(), traced.particles());
        assert!(t.finish().is_none());
    }
}
