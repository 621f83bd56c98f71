//! The benchmark's metric tables: what `BENCHMARK.json` lists and what a
//! run prints, generated from one definition so the two cannot drift.

use crate::adapter::WORKLOADS;
use crate::json::Value;
use crate::span::Span;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

fn lower(name: &str, unit: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        higher_is_better: false,
        bound: None,
    }
}

fn higher(name: &str, unit: &'static str) -> MetricDef {
    MetricDef {
        higher_is_better: true,
        ..lower(name, unit)
    }
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 10;

/// The four end-to-end metrics, all lower-is-better, with their regression
/// bounds. README.md ("Bounds") records the spreads they were set from: on
/// the reference host, a shared two-vCPU guest, they are as wide as the
/// benchmark contract allows (0.25), and still under three times the worst
/// spread seen.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name, unit, bound| MetricDef {
        bound: Some(bound),
        ..lower(name, unit)
    };
    vec![
        bounded("run_s", "s", 0.25),
        bounded("cpu_s", "s", 0.25),
        bounded("peak_rss_mb", "MB", 0.20),
        bounded("setup_s", "s", 0.25),
    ]
}

/// The per-layer metrics of the traced run, in print order. Counts and
/// ratios explain a result; none of them gates one.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    for span in Span::ALL {
        let n = span.name();
        defs.push(lower(&format!("{n}.wall_ms"), "ms"));
        defs.push(lower(&format!("{n}.cpu_ms"), "ms"));
        defs.push(lower(&format!("{n}.wait_ms"), "ms"));
        defs.push(lower(&format!("{n}.calls"), "count"));
    }
    defs.extend([
        lower("par.step.wall_ms_p50", "ms"),
        lower("par.step.wall_ms_p95", "ms"),
        lower("par.step.cpu_ns_per_particle_step", "ns"),
        lower("core.step.ns_per_particle_step", "ns"),
        lower("core.particle_steps", "count"),
        lower("par.migrants", "count"),
        lower("par.msgs_sent", "count"),
        higher("par.msgs_skipped", "count"),
        lower("par.balance.rounds", "count"),
        lower("par.balance.cut_moves", "count"),
        lower("par.balance.rehomed", "count"),
        lower("cluster.switches", "count"),
        lower("cluster.final_imbalance", "ratio"),
        lower("cluster.mean_imbalance", "ratio"),
        lower("cluster.max_imbalance", "ratio"),
        lower("trace.overhead_pct", "%"),
        lower("trace.self_cost_pct", "%"),
        higher("trace.span_coverage_pct", "%"),
        lower("core.store.drain_ns_per_migrant", "ns"),
        lower("comm.wire.ns_per_exchange", "ns"),
        lower("comm.wire.bytes_per_exchange", "bytes"),
        lower("comm.allreduce.ns_per_call", "ns"),
        lower("ampi.vp_route.ns_per_resident", "ns"),
        lower("host.calib_ms", "ms"),
        higher("host.parallel_capacity", "ratio"),
        lower("host.reps_retried", "count"),
        lower("host.noisy", "count"),
    ]);
    defs
}

/// Does this per-layer metric count something the program does? Such a
/// count must repeat exactly from run to run of the same code on the same
/// seed. (`host.*` counts describe the machine, not the program.
/// `selfcheck.py` applies the same rule to two result sets.)
pub fn is_exact_count(def: &MetricDef) -> bool {
    def.unit == "count" && !def.name.starts_with("host.")
}

/// Measured values keyed by metric name, in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Values) {
        for (name, value) in other.0 {
            self.set(&name, value);
        }
    }
}

/// The `metrics` object of the result line: every metric of `defs`, each
/// with its value and unit. A metric that was not measured is a bug in the
/// benchmark, not a zero.
pub fn metrics_json(defs: &[MetricDef], values: &Values) -> Result<Value, String> {
    let mut fields = Vec::new();
    for d in defs {
        let v = values
            .get(&d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not a finite number: {v}", d.name));
        }
        fields.push((
            d.name.clone(),
            Value::obj([("value", Value::Num(v)), ("unit", Value::str(d.unit))]),
        ));
    }
    Ok(Value::Obj(fields))
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let better = |d: &MetricDef| {
        Value::str(if d.higher_is_better {
            "higher"
        } else {
            "lower"
        })
    };
    Value::obj([
        (
            "command",
            Value::Arr(vec![Value::str("bash"), Value::str("bench/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::str("bench")])),
        ("run_seconds", Value::Int(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                end_to_end()
                    .iter()
                    .map(|d| {
                        Value::obj([
                            ("name", Value::str(&d.name)),
                            ("unit", Value::str(d.unit)),
                            ("better", better(d)),
                            ("bound", Value::Num(d.bound.unwrap_or(0.0))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer()
                    .iter()
                    .map(|d| {
                        Value::obj([
                            ("name", Value::str(&d.name)),
                            ("unit", Value::str(d.unit)),
                            ("better", better(d)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            manifest().render_pretty(),
            "regenerate with: bench/run.sh --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(e2e.iter().chain(&layers).map(|d| d.name.as_str()));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for d in e2e.iter().chain(&layers) {
            assert!(valid_unit(d.unit), "{}", d.unit);
        }
        for d in &e2e {
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
            assert!(!d.higher_is_better);
        }
        assert!(e2e.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(manifest().render_pretty().len() <= 64 * 1024);
        let exact = layers.iter().filter(|d| is_exact_count(d)).count();
        assert_eq!(exact, crate::span::Span::ALL.len() + 8);
    }

    #[test]
    fn metrics_json_refuses_missing_and_non_finite_values() {
        let defs = vec![lower("a", "ms"), higher("b", "count")];
        let mut v = Values::default();
        v.set("a", 1.5);
        assert!(metrics_json(&defs, &v).is_err());
        v.set("b", f64::NAN);
        assert!(metrics_json(&defs, &v).is_err());
        v.set("b", 2.0);
        assert_eq!(
            metrics_json(&defs, &v).unwrap().render(),
            r#"{"a": {"value": 1.5, "unit": "ms"}, "b": {"value": 2, "unit": "count"}}"#
        );
    }
}
