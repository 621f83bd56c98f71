//! Turns one traced run into the per-layer metric values.

use crate::adapter::{Case, RankTrace, Traced};
use crate::metrics::Values;
use crate::probe::Volume;
use crate::span::{reduce, Recorder, Span};
use crate::stats::percentile;

/// Every per-layer metric that one traced run measures. `span_cost_ns` is
/// what recording one span costs ([`crate::span::cost_per_span_ns`]).
pub fn from_trace(case: &Case, traced: &Traced, span_cost_ns: f64) -> Values {
    let mut v = Values::default();
    let mut recorders: Vec<&Recorder> = vec![&traced.main];
    recorders.extend(traced.ranks.iter().map(|r| &r.rec));
    for span in Span::ALL {
        let s = reduce(span, &recorders);
        let n = span.name();
        v.set(&format!("{n}.wall_ms"), s.wall_ms);
        v.set(&format!("{n}.cpu_ms"), s.cpu_ms);
        v.set(&format!("{n}.wait_ms"), s.wait_ms);
        v.set(&format!("{n}.calls"), s.calls as f64);
    }

    let particle_steps = case.particle_steps();
    let per_pstep = |ns: u64| ns as f64 / particle_steps.max(1) as f64;
    let slowest = traced
        .ranks
        .iter()
        .max_by_key(|r| r.rec.wall_total_ns(Span::ParStep));
    let step_ms: Vec<f64> = slowest.map_or(Vec::new(), |r| {
        let calls = r.rec.calls(Span::ParStep);
        calls.iter().map(|&ns| ns as f64 / 1e6).collect()
    });
    v.set("par.step.wall_ms_p50", percentile(&step_ms, 50.0));
    v.set("par.step.wall_ms_p95", percentile(&step_ms, 95.0));
    let step_cpu: u64 = recorders
        .iter()
        .map(|r| r.cpu_total_ns(Span::ParStep))
        .sum();
    v.set("par.step.cpu_ns_per_particle_step", per_pstep(step_cpu));
    let core_step: u64 = recorders
        .iter()
        .map(|r| r.wall_total_ns(Span::CoreStep))
        .sum();
    v.set("core.step.ns_per_particle_step", per_pstep(core_step));

    let sum = |f: fn(&RankTrace) -> u64| -> f64 { traced.ranks.iter().map(f).sum::<u64>() as f64 };
    // Every rank takes part in every round and reaches the same decision.
    let replicated = |f: fn(&RankTrace) -> u64| -> f64 { traced.ranks.first().map_or(0, f) as f64 };
    v.set("core.particle_steps", particle_steps as f64);
    v.set("par.migrants", sum(|r| r.migrants));
    v.set("par.msgs_sent", sum(|r| r.msgs_sent));
    v.set("par.msgs_skipped", sum(|r| r.msgs_skipped));
    v.set("par.balance.rounds", replicated(|r| r.balance_rounds));
    v.set("par.balance.cut_moves", replicated(|r| r.cut_moves));
    v.set("par.balance.rehomed", sum(|r| r.rehomed));
    v.set("cluster.switches", replicated(|r| r.switches));

    let (fin, mean, max) = imbalance(traced);
    v.set("cluster.final_imbalance", fin);
    v.set("cluster.mean_imbalance", mean);
    v.set("cluster.max_imbalance", max);

    // Coverage of the worst rank: its spans against its own wall time.
    let coverage = traced
        .ranks
        .iter()
        .map(|r| r.rec.covered_ns() as f64 / r.wall_ns.max(1) as f64)
        .fold(f64::INFINITY, f64::min);
    v.set("trace.span_coverage_pct", 100.0 * coverage);
    // What the recording itself cost the rank that recorded the most.
    let self_cost = traced
        .ranks
        .iter()
        .map(|r| r.rec.span_count() as f64 * span_cost_ns / r.wall_ns.max(1) as f64)
        .fold(0.0, f64::max);
    v.set("trace.self_cost_pct", 100.0 * self_cost);
    v
}

/// `(final, mean, max)` of max-over-mean rank load. The per-step series
/// exists where the driver logged `local_count()` after every step; the
/// other runs (`ampi.run`, and the serial run with its single rank) only
/// have the final counts, and their mean and max read 0.
fn imbalance(traced: &Traced) -> (f64, f64, f64) {
    let ratio = |loads: &mut dyn Iterator<Item = u64>| -> f64 {
        let (mut max, mut sum, mut n) = (0u64, 0u64, 0u64);
        for l in loads {
            max = max.max(l);
            sum += l;
            n += 1;
        }
        if sum == 0 {
            1.0
        } else {
            max as f64 * n as f64 / sum as f64
        }
    };
    let fin = ratio(&mut traced.ranks.iter().map(|r| r.final_count));
    let steps = traced
        .ranks
        .iter()
        .map(|r| r.counts.len())
        .min()
        .unwrap_or(0);
    if steps == 0 {
        return (fin, 0.0, 0.0);
    }
    let series: Vec<f64> = (0..steps)
        .map(|s| ratio(&mut traced.ranks.iter().map(|r| r.counts[s])))
        .collect();
    let mean = series.iter().sum::<f64>() / steps as f64;
    (fin, mean, series.iter().copied().fold(0.0, f64::max))
}

/// The cut-family driver logs every rank's population after every step;
/// summed, the log must equal the particle advances the input prescribes.
pub fn check_counts(case: &Case, traced: &Traced) -> Result<(), String> {
    if traced.ranks.iter().all(|r| r.counts.is_empty()) {
        return Ok(());
    }
    let logged: u64 = traced.ranks.iter().flat_map(|r| &r.counts).sum();
    if logged == case.particle_steps() {
        Ok(())
    } else {
        Err(format!(
            "ranks logged {logged} particle-steps, the input prescribes {}",
            case.particle_steps()
        ))
    }
}

/// The volume the probes run at: particles one rank sent in one step, on
/// average, and the balance rounds of the run.
pub fn probe_volume(case: &Case, traced: &Traced) -> Volume {
    let sent: u64 = traced.ranks.iter().map(|r| r.migrants).sum();
    let rank_steps = traced.ranks.len() as u64 * case.steps() as u64;
    Volume {
        migrants_per_rank_step: sent.div_ceil(rank_steps.max(1)),
        balance_rounds: traced.ranks.first().map_or(0, |r| r.balance_rounds),
    }
}
