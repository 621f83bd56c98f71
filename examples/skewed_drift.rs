//! The paper's §V head-to-head at miniature scale, run *functionally* on
//! thread ranks: static `mpi-2d` decomposition vs the diffusion balancer
//! on the drifting geometric distribution.
//!
//! ```sh
//! cargo run --release --example skewed_drift
//! ```

use pic_comm::world::run_threads;
use pic_par::diffusion::{DiffusionMode, DiffusionParams};
use pic_par::runner::ParConfig;
use pic_par::{run_config, BalancerSpec};
use pic_prk::prelude::*;

fn main() {
    let ranks = 8;
    let cfg = ParConfig::new(
        InitConfig::new(
            Grid::new(64).unwrap(),
            20_000,
            Distribution::Geometric { r: 0.95 },
        )
        .with_m(1)
        .build()
        .unwrap(),
        200,
    );
    let ideal = 20_000 / ranks as u64;

    println!("== mpi-2d (static, no load balancing) on {ranks} thread-ranks ==");
    let base = run_threads(ranks, |comm| run_config(&comm, &cfg));
    report(&base[0].verify, base[0].max_count, ideal);

    // The skew drifts one cell per step, so the balancer must be able to
    // move cuts faster than that: border_w / interval > 1.
    let params = DiffusionParams {
        interval: 1,
        tau: 20,
        border_w: 3,
    };
    println!(
        "\n== mpi-2d-LB (diffusion, interval={}, τ={}, w={}) ==",
        params.interval, params.tau, params.border_w
    );
    let lb_cfg = cfg.clone().with_balancer(BalancerSpec::Diffusion {
        params,
        mode: DiffusionMode::XOnly,
    });
    let diff = run_threads(ranks, |comm| run_config(&comm, &lb_cfg));
    report(&diff[0].verify, diff[0].max_count, ideal);

    let gain = base[0].max_count as f64 / diff[0].max_count as f64;
    println!("\nmax-particles-per-rank improvement from diffusion LB: {gain:.2}×");
    println!("(the paper's 24-core run: 62,645 → 30,585, ideal 25,000)");
    assert!(base[0].verify.passed() && diff[0].verify.passed());
}

fn report(verify: &pic_prk::core::verify::VerifyReport, max_count: u64, ideal: u64) {
    println!("  verified              : {}", verify.passed());
    println!(
        "  max particles per rank: {max_count} (ideal {ideal}, ratio {:.2}×)",
        max_count as f64 / ideal as f64
    );
}
