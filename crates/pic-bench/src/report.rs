//! CSV/markdown emission for the experiment binaries.

use crate::experiments::{MaxCountRow, ScalingPoint, TuningPoint};
use std::fmt::Write as _;

/// Render a scaling series as CSV (`cores,mpi-2d,ampi,mpi-2d-LB`).
pub fn scaling_csv(points: &[ScalingPoint]) -> String {
    let mut out = String::from("cores,mpi-2d_s,ampi_s,mpi-2d-LB_s\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{:.3},{:.3},{:.3}",
            p.cores, p.baseline_s, p.ampi_s, p.diffusion_s
        );
    }
    out
}

/// Render a scaling series as a markdown table with speedups.
pub fn scaling_markdown(points: &[ScalingPoint]) -> String {
    let mut out = String::from(
        "| cores | mpi-2d (s) | ampi (s) | mpi-2d-LB (s) | ampi ×base | LB ×base |\n|---|---|---|---|---|---|\n",
    );
    for p in points {
        let (a, d) = p.speedup_over_baseline();
        let _ = writeln!(
            out,
            "| {} | {:.1} | {:.1} | {:.1} | {:.2}× | {:.2}× |",
            p.cores, p.baseline_s, p.ampi_s, p.diffusion_s, a, d
        );
    }
    out
}

/// Render a tuning sweep as CSV (`factor,value,seconds`).
pub fn tuning_csv(points: &[TuningPoint], param: &str) -> String {
    let mut out = format!("factor,{param},seconds\n");
    for p in points {
        let _ = writeln!(out, "{},{},{:.3}", p.factor, p.value, p.seconds);
    }
    out
}

/// Render the §V-B max-count row.
pub fn max_count_markdown(row: &MaxCountRow) -> String {
    format!(
        "| variant | max particles/core | ×ideal |\n|---|---|---|\n\
         | mpi-2d | {:.0} | {:.2}× |\n| mpi-2d-LB | {:.0} | {:.2}× |\n| ideal | {:.0} | 1.00× |\n",
        row.baseline_max,
        row.baseline_max / row.ideal,
        row.diffusion_max,
        row.diffusion_max / row.ideal,
        row.ideal,
    )
}

/// Parse `--scale N` from argv (default 1 = the paper's full 6,000 steps).
pub fn scale_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == "--scale" {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                return v;
            }
        }
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_formats() {
        let pts = vec![ScalingPoint {
            cores: 24,
            baseline_s: 20.0,
            ampi_s: 15.0,
            diffusion_s: 12.5,
        }];
        let csv = scaling_csv(&pts);
        assert!(csv.contains("24,20.000,15.000,12.500"), "{csv}");
        let md = scaling_markdown(&pts);
        assert!(
            md.contains("| 24 | 20.0 | 15.0 | 12.5 | 1.33× | 1.60× |"),
            "{md}"
        );
    }

    #[test]
    fn tuning_csv_format() {
        let pts = vec![TuningPoint {
            factor: 8,
            value: 160,
            seconds: 43.0,
        }];
        let csv = tuning_csv(&pts, "F");
        assert!(csv.starts_with("factor,F,seconds\n"));
        assert!(csv.contains("8,160,43.000"));
    }

    #[test]
    fn max_count_table() {
        let row = MaxCountRow {
            baseline_max: 62645.0,
            diffusion_max: 30585.0,
            ideal: 25000.0,
        };
        let md = max_count_markdown(&row);
        assert!(md.contains("2.51×"));
        assert!(md.contains("1.22×"));
    }
}
