//! The paper's experiments, regenerated.
//!
//! Each experiment tunes the balancers' parameters per data point and keeps
//! the best execution, exactly as the paper's §V did ("For each
//! implementation we tuned the relevant parameters and picked the best
//! performing execution at each level of concurrency").

use pic_ampi::model::{model_ampi, model_ampi_tuned, AmpiParams};
use pic_ampi::Balancer;
use pic_par::model_impl::{model_baseline, model_diffusion_tuned, ModelConfig};

/// A point on one of the scaling figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    pub cores: usize,
    /// `mpi-2d` (baseline, no LB) modeled seconds.
    pub baseline_s: f64,
    /// `ampi` modeled seconds (best tuned d, F).
    pub ampi_s: f64,
    /// `mpi-2d-LB` (diffusion) modeled seconds (best tuned params).
    pub diffusion_s: f64,
}

impl ScalingPoint {
    pub fn speedup_over_baseline(&self) -> (f64, f64) {
        (
            self.baseline_s / self.ampi_s,
            self.baseline_s / self.diffusion_s,
        )
    }
}

/// A point on one of the Figure 5 tuning sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningPoint {
    /// "Increase factor over baseline" (the paper's x-axis): the swept
    /// parameter divided by its base value (F₀ = 20 or d₀ = 1).
    pub factor: u32,
    /// Swept parameter value (F or d).
    pub value: u32,
    pub seconds: f64,
}

/// Scale an experiment's step count down by `scale` (the drift is
/// periodic, so shapes survive; `scale = 1` reproduces the paper's full
/// 6,000 steps).
fn scaled(cfg: ModelConfig, scale: u64) -> ModelConfig {
    cfg.shortened(scale)
}

// ---------------------------------------------------------------------------
// Figure 5 — AMPI parameter sensitivity
// ---------------------------------------------------------------------------

/// Figure 5, green line: vary the LB interval `F = 20 × factor`
/// (factor 1…64) at fixed `d = 4`. Paper: 180 s at F = 20 vs 43 s at
/// F = 160 — a 4.2× swing.
pub fn fig5_f_sweep(scale: u64) -> Vec<TuningPoint> {
    let cfg = scaled(ModelConfig::paper_tuning(), scale);
    (0..=6u32)
        .map(|e| {
            let factor = 1u32 << e;
            let f = 20 * factor;
            let params = AmpiParams {
                d: 4,
                interval: (f as u64 / scale).max(1) as u32,
                balancer: Balancer::paper_default(),
            };
            TuningPoint {
                factor,
                value: f,
                seconds: model_ampi(&cfg, &params).seconds * scale as f64,
            }
        })
        .collect()
}

/// Figure 5, red line: vary the over-decomposition `d = factor`
/// (factor 1…64) at fixed `F = 1000`. Paper: 104 s without
/// over-decomposition vs 47 s at d = 16 — a 2.2× swing.
pub fn fig5_d_sweep(scale: u64) -> Vec<TuningPoint> {
    let cfg = scaled(ModelConfig::paper_tuning(), scale);
    (0..=6u32)
        .map(|e| {
            let d = 1u32 << e;
            let params = AmpiParams {
                d: d as usize,
                interval: (1000u64 / scale).max(1) as u32,
                balancer: Balancer::paper_default(),
            };
            TuningPoint {
                factor: d,
                value: d,
                seconds: model_ampi(&cfg, &params).seconds * scale as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 6 and 7 — strong and weak scaling
// ---------------------------------------------------------------------------

fn scaling_point(cfg: &ModelConfig, scale: u64) -> ScalingPoint {
    let baseline = model_baseline(cfg);
    let (ampi, _) = model_ampi_tuned(cfg);
    let (diffusion, _) = model_diffusion_tuned(cfg);
    ScalingPoint {
        cores: cfg.cores,
        baseline_s: baseline.seconds * scale as f64,
        ampi_s: ampi.seconds * scale as f64,
        diffusion_s: diffusion.seconds * scale as f64,
    }
}

/// Figure 6 left: strong scaling on a single node (1–24 cores),
/// 2,998² cells / 600 k particles / 6,000 steps, geometric skew.
pub fn fig6_left(scale: u64) -> Vec<ScalingPoint> {
    [1usize, 2, 4, 8, 12, 16, 20, 24]
        .iter()
        .map(|&cores| scaling_point(&scaled(ModelConfig::paper_strong(cores), scale), scale))
        .collect()
}

/// Figure 6 right: strong scaling across nodes (24–384 cores).
pub fn fig6_right(scale: u64) -> Vec<ScalingPoint> {
    [24usize, 48, 96, 192, 384]
        .iter()
        .map(|&cores| scaling_point(&scaled(ModelConfig::paper_strong(cores), scale), scale))
        .collect()
}

/// Figure 7: weak scaling (48–3,072 cores), 11,998² cells, 400 k particles
/// at 48 cores growing proportionally with the core count.
pub fn fig7(scale: u64) -> Vec<ScalingPoint> {
    [48usize, 96, 192, 384, 768, 1536, 3072]
        .iter()
        .map(|&cores| scaling_point(&scaled(ModelConfig::paper_weak(cores), scale), scale))
        .collect()
}

// ---------------------------------------------------------------------------
// §V-B — max particles per core at the end of the 24-core run
// ---------------------------------------------------------------------------

/// The paper's §V-B imbalance indicator at 24 cores: max particles per core
/// at the end of the simulation. Paper: 62,645 (baseline) vs 30,585
/// (diffusion), ideal 25,000.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxCountRow {
    pub baseline_max: f64,
    pub diffusion_max: f64,
    pub ideal: f64,
}

pub fn table_max_count(scale: u64) -> MaxCountRow {
    let cfg = scaled(ModelConfig::paper_strong(24), scale);
    let baseline = model_baseline(&cfg);
    let (diffusion, _) = model_diffusion_tuned(&cfg);
    MaxCountRow {
        baseline_max: baseline.max_particles_end,
        diffusion_max: diffusion.max_particles_end,
        ideal: baseline.ideal_particles,
    }
}

/// Serial reference time for the strong-scaling configuration (speedup
/// denominators).
pub fn strong_serial_seconds(scale: u64) -> f64 {
    model_baseline(&scaled(ModelConfig::paper_strong(1), scale)).seconds * scale as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    // All shape tests run at reduced scale (scale = 20 → 300 steps); the
    // full-scale numbers are produced by the `paper_all` binary and
    // recorded in EXPERIMENTS.md.

    #[test]
    fn fig5_f_sweep_is_u_shaped() {
        let pts = fig5_f_sweep(20);
        assert_eq!(pts.len(), 7);
        let first = pts[0].seconds;
        let min = pts.iter().map(|p| p.seconds).fold(f64::MAX, f64::min);
        assert!(
            first > 1.5 * min,
            "F=20 ({first:.1}s) must be well above the best F ({min:.1}s)"
        );
        // The minimum is interior (not at F=20).
        let min_idx = pts
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.seconds.partial_cmp(&b.1.seconds).unwrap())
            .unwrap()
            .0;
        assert!(min_idx > 0, "{pts:?}");
    }

    #[test]
    fn fig5_d_sweep_improves_then_saturates() {
        let pts = fig5_d_sweep(20);
        let d1 = pts[0].seconds;
        let best = pts.iter().map(|p| p.seconds).fold(f64::MAX, f64::min);
        assert!(
            d1 > 1.3 * best,
            "d=1 ({d1:.1}s) must be well above the best d ({best:.1}s)"
        );
    }

    #[test]
    fn fig6_left_ordering_at_24_cores() {
        let pts = fig6_left(20);
        let p24 = pts.last().unwrap();
        assert_eq!(p24.cores, 24);
        // Paper: LB 1.6× over baseline, ampi 1.3× over baseline.
        let (ampi_spd, diff_spd) = p24.speedup_over_baseline();
        assert!(ampi_spd > 1.05, "ampi speedup {ampi_spd}");
        assert!(diff_spd > 1.2, "diffusion speedup {diff_spd}");
        assert!(
            p24.diffusion_s <= p24.ampi_s * 1.05,
            "diffusion should win at 24 cores: {} vs {}",
            p24.diffusion_s,
            p24.ampi_s
        );
    }

    #[test]
    fn fig6_right_diffusion_wins_at_scale() {
        let pts = fig6_right(20);
        let p384 = pts.last().unwrap();
        assert_eq!(p384.cores, 384);
        assert!(
            p384.diffusion_s < p384.ampi_s,
            "diffusion must beat ampi at 384 cores: {} vs {}",
            p384.diffusion_s,
            p384.ampi_s
        );
        assert!(p384.diffusion_s < p384.baseline_s);
    }

    #[test]
    fn fig7_both_beat_baseline_at_scale() {
        let pts = fig7(20);
        let p = pts.last().unwrap();
        assert_eq!(p.cores, 3072);
        let (ampi_spd, diff_spd) = p.speedup_over_baseline();
        assert!(ampi_spd > 1.3, "ampi weak-scaling speedup {ampi_spd}");
        assert!(diff_spd > 1.2, "diffusion weak-scaling speedup {diff_spd}");
    }

    #[test]
    fn max_count_ratios_match_paper_shape() {
        let row = table_max_count(20);
        let base_ratio = row.baseline_max / row.ideal;
        let diff_ratio = row.diffusion_max / row.ideal;
        assert!(
            (1.8..3.5).contains(&base_ratio),
            "baseline max/ideal {base_ratio} (paper: 2.5)"
        );
        assert!(
            diff_ratio < base_ratio * 0.75,
            "diffusion ratio {diff_ratio} vs baseline {base_ratio} (paper: 1.22 vs 2.5)"
        );
    }
}
