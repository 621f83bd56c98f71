//! The full two-phase diffusion scheme (paper §IV-B) on the rotated
//! workload (paper §III-E1's 90° rotation): a one-directional balancer is
//! blind to the rotated skew; the two-phase scheme handles any
//! orientation.
//!
//! ```sh
//! cargo run --release --example two_phase_balancing
//! ```

use pic_comm::world::run_threads;
use pic_par::diffusion::{DiffusionMode, DiffusionParams};
use pic_par::runner::ParConfig;
use pic_par::{run_config, BalancerSpec};
use pic_prk::core::init::SkewAxis;
use pic_prk::prelude::*;

fn main() {
    let ranks = 4;
    let params = DiffusionParams {
        interval: 1,
        tau: 0,
        border_w: 2,
    };
    for (label, axis, m) in [
        ("column skew (the paper's orientation)", SkewAxis::X, 0),
        ("row skew (rotated 90°)", SkewAxis::Y, 1),
    ] {
        let cfg = ParConfig::new(
            InitConfig::new(
                Grid::new(64).unwrap(),
                12_000,
                Distribution::Geometric { r: 0.85 },
            )
            .with_skew_axis(axis)
            .with_m(m)
            .build()
            .unwrap(),
            120,
        );
        let ideal = 12_000 / ranks as u64;
        println!("== {label} ==");
        let base = run_threads(ranks, |comm| run_config(&comm, &cfg));
        println!(
            "  static         : max/rank {} (ideal {ideal})",
            base[0].max_count
        );
        for (name, mode) in [
            ("x-only LB     ", DiffusionMode::XOnly),
            ("y-only LB     ", DiffusionMode::YOnly),
            ("two-phase LB  ", DiffusionMode::TwoPhase),
        ] {
            let lb_cfg = cfg
                .clone()
                .with_balancer(BalancerSpec::Diffusion { params, mode });
            let out = run_threads(ranks, |comm| run_config(&comm, &lb_cfg));
            assert!(out[0].verify.passed());
            println!("  {name}: max/rank {}", out[0].max_count);
        }
        println!();
    }
    println!("A balancer aligned with the drift direction helps; the rotated");
    println!("workload defeats it; the two-phase scheme handles both.");
}
