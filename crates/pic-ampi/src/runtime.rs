//! Functional threaded AMPI execution.
//!
//! Each `pic-comm` rank plays one physical core driving its assigned VPs,
//! through `pic-par`'s one rank loop under a VP ownership map. The VP→core
//! table is replicated: load-balancing decisions are computed from the
//! allreduced per-VP counts by the *same* deterministic strategy on every
//! core, so no broadcast of the decision is needed — exactly like
//! deterministic replicated decision-making in runtime systems. VP
//! migration is a particle hand-off: the receiving core re-derives VP
//! membership from particle positions.
//!
//! The run is fully verified (analytic trajectories + id checksum), which
//! is the point of the PRK: a lost particle in any migration or exchange
//! fails the run.

use pic_comm::comm::Communicator;
use pic_par::{run_spec_traced, AmpiParams, ParConfig, ParOutcome};
use pic_trace::Tracer;

/// Run the AMPI-style implementation on this core — `cfg` under
/// `BalancerSpec::Vp` with `params`, whatever `cfg.balancer` says. All
/// ranks must call it with identical `cfg` and `params`.
pub fn run_ampi(comm: &Communicator, cfg: &ParConfig, params: &AmpiParams) -> ParOutcome {
    run_spec_traced(comm, cfg, (*params).into(), &mut Tracer::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Balancer;
    use pic_comm::world::run_threads;
    use pic_core::dist::Distribution;
    use pic_core::events::{Event, Region};
    use pic_core::geometry::Grid;
    use pic_core::init::InitConfig;
    use pic_core::verify::triangular_id_sum;
    use pic_par::run_config_traced;

    fn cfg(n: u64, dist: Distribution, steps: u32) -> ParConfig {
        ParConfig::new(
            InitConfig::new(Grid::new(32).unwrap(), n, dist)
                .with_m(1)
                .build()
                .unwrap(),
            steps,
        )
    }

    fn params(d: usize, interval: u32) -> AmpiParams {
        AmpiParams {
            d,
            interval,
            balancer: Balancer::paper_default(),
        }
    }

    #[test]
    fn verified_run_with_migration() {
        let c = cfg(500, Distribution::Geometric { r: 0.85 }, 60);
        let p = params(4, 5);
        let outcomes = run_threads(4, |comm| run_ampi(&comm, &c, &p));
        for o in &outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
            assert_eq!(o.total_count, 500);
            assert_eq!(o.verify.id_sum, triangular_id_sum(500));
        }
    }

    #[test]
    fn migration_reduces_max_count() {
        let c = cfg(2000, Distribution::Geometric { r: 0.8 }, 30);
        let none = run_threads(4, |comm| {
            run_ampi(
                &comm,
                &c,
                &AmpiParams {
                    d: 4,
                    interval: 5,
                    balancer: Balancer::None,
                },
            )
        });
        let refine = run_threads(4, |comm| run_ampi(&comm, &c, &params(4, 5)));
        assert!(none[0].verify.passed());
        assert!(refine[0].verify.passed());
        assert!(
            refine[0].max_count < none[0].max_count,
            "refine {} must beat none {}",
            refine[0].max_count,
            none[0].max_count
        );
    }

    #[test]
    fn greedy_strategy_also_verifies() {
        let c = cfg(600, Distribution::Sinusoidal, 24);
        let p = AmpiParams {
            d: 8,
            interval: 4,
            balancer: Balancer::Greedy,
        };
        let outcomes = run_threads(2, |comm| run_ampi(&comm, &c, &p));
        for o in outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
        }
    }

    #[test]
    fn events_work_under_virtualization() {
        let region = Region {
            x0: 8,
            x1: 24,
            y0: 8,
            y1: 24,
        };
        let mut c = cfg(300, Distribution::Uniform, 40);
        c.setup = c
            .setup
            .with_event(Event::inject(8, region, 80, 0, 1, 1))
            .with_event(Event::remove(25, Region::whole(32), 50));
        let p = params(4, 6);
        let outcomes = run_threads(4, |comm| run_ampi(&comm, &c, &p));
        for o in &outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
            assert_eq!(o.total_count, 330);
        }
    }

    #[test]
    fn single_core_single_vp_trivial() {
        let c = cfg(100, Distribution::Uniform, 10);
        let p = params(1, 3);
        let outcomes = run_threads(1, |comm| run_ampi(&comm, &c, &p));
        assert!(outcomes[0].verify.passed());
        assert_eq!(outcomes[0].local_count, 100);
    }

    #[test]
    fn fast_particles_under_virtualization() {
        let c = ParConfig::new(
            InitConfig::new(Grid::new(32).unwrap(), 200, Distribution::Uniform)
                .with_k(3)
                .with_m(-2)
                .build()
                .unwrap(),
            30,
        );
        let p = params(4, 4);
        let outcomes = run_threads(4, |comm| run_ampi(&comm, &c, &p));
        for o in outcomes {
            assert!(o.verify.passed(), "{:?}", o.verify);
        }
    }

    #[test]
    fn traced_run_emits_vp_reassignment_cuts() {
        let c = cfg(900, Distribution::Geometric { r: 0.8 }, 20).with_balancer(params(4, 5).into());
        let results = run_threads(4, |comm| {
            let mut tracer = if comm.rank() == 0 {
                Tracer::in_memory(5)
            } else {
                Tracer::disabled()
            };
            let out = run_config_traced(&comm, &c, &mut tracer);
            (out, tracer.finish())
        });
        for (out, _) in &results {
            assert!(out.verify.passed(), "{:?}", out.verify);
            assert_eq!(out.total_count, 900);
        }
        let report = results[0].1.as_ref().expect("rank 0 tracer enabled");
        // LB fires at steps 5, 10, 15 (never on the final step).
        assert_eq!(report.cuts.len(), 3);
        for cut in &report.cuts {
            assert_eq!(cut.axis, 'v');
            assert_eq!(cut.old.len(), 16, "one slot per VP (d * cores)");
            assert_eq!(cut.new.len(), 16);
            assert_eq!(cut.counts.iter().sum::<u64>(), 900);
            assert!(cut.new.iter().all(|&core| core < 4));
        }
        assert_eq!(report.summary.final_particles, 900);
        assert!(report.summary.max_imbalance.is_finite());
        // Skewed start under greedy VP placement must register migrations.
        let rehomed: u64 = report.steps.iter().map(|s| s.counters[0]).sum();
        assert!(rehomed > 0, "migration counter never moved");
    }

    #[test]
    fn traced_run_matches_untraced() {
        let c = cfg(400, Distribution::PAPER_SKEW, 24);
        let p = params(2, 6);
        let plain = run_threads(4, |comm| run_ampi(&comm, &c, &p));
        let traced = run_threads(4, |comm| {
            let mut tracer = Tracer::in_memory(2);
            run_spec_traced(&comm, &c, p.into(), &mut tracer)
        });
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.verify.id_sum, b.verify.id_sum);
            assert_eq!(a.total_count, b.total_count);
            assert_eq!(a.local_count, b.local_count);
            assert!(b.verify.passed(), "{:?}", b.verify);
        }
    }
}
