//! Ablation: defeating a one-directional balancer by rotating the
//! distribution 90° (paper §III-E1), demonstrated *functionally* on the
//! threaded backend with full verification.
//!
//! The metric is the hardware-independent max-particles-per-rank at the end
//! of the run (the §V-B indicator).

use pic_comm::world::run_threads;
use pic_core::init::SkewAxis;
use pic_core::prelude::*;
use pic_par::diffusion::{DiffusionMode, DiffusionParams};
use pic_par::runner::ParConfig;
use pic_par::{run_config, BalancerSpec};

fn main() {
    let ranks = 4;
    let params = DiffusionParams {
        interval: 1,
        tau: 0,
        border_w: 2,
    };
    println!("axis,mode,max_per_rank,ideal,verified");
    for (axis_name, axis, m) in [
        ("x-skew", SkewAxis::X, 0i32),
        ("y-skew (rotated)", SkewAxis::Y, 1),
    ] {
        let cfg = ParConfig::new(
            InitConfig::new(
                Grid::new(32).unwrap(),
                4_000,
                Distribution::Geometric { r: 0.8 },
            )
            .with_skew_axis(axis)
            .with_m(m)
            .build()
            .unwrap(),
            48,
        );
        let ideal = 4_000 / ranks as u64;
        let base = run_threads(ranks, |comm| run_config(&comm, &cfg));
        println!(
            "{axis_name},none,{},{ideal},{}",
            base[0].max_count,
            base[0].verify.passed()
        );
        for (mode_name, mode) in [
            ("x-only", DiffusionMode::XOnly),
            ("y-only", DiffusionMode::YOnly),
            ("two-phase", DiffusionMode::TwoPhase),
        ] {
            let lb_cfg = cfg
                .clone()
                .with_balancer(BalancerSpec::Diffusion { params, mode });
            let out = run_threads(ranks, |comm| run_config(&comm, &lb_cfg));
            println!(
                "{axis_name},{mode_name},{},{ideal},{}",
                out[0].max_count,
                out[0].verify.passed()
            );
        }
    }
    eprintln!("\nExpected: x-only balancing helps the x-skew but not the rotated");
    eprintln!("workload (and vice versa); the two-phase scheme handles both.");
}
