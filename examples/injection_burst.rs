//! Particle injection/removal events (paper §III-E5): "injections/removals
//! adjust abruptly the local amount of work", stressing how quickly a
//! balancing strategy adapts.
//!
//! ```sh
//! cargo run --release --example injection_burst
//! ```

use pic_comm::world::run_threads;
use pic_par::diffusion::{DiffusionMode, DiffusionParams};
use pic_par::runner::ParConfig;
use pic_par::{run_config, BalancerSpec};
use pic_prk::prelude::*;

fn main() {
    let grid = Grid::new(64).unwrap();
    // Start uniform; at step 50 a burst of 30,000 particles appears in the
    // left half of the domain; at step 150 particles in the right half
    // start vanishing.
    let burst_region = Region {
        x0: 0,
        x1: 32,
        y0: 0,
        y1: 64,
    };
    let drain_region = Region {
        x0: 32,
        x1: 64,
        y0: 0,
        y1: 64,
    };
    let setup = InitConfig::new(grid, 10_000, Distribution::Uniform)
        .with_m(1)
        .build()
        .unwrap()
        .with_event(Event::inject(50, burst_region, 30_000, 0, 1, 1))
        .with_event(Event::remove(150, drain_region, 5_000));
    let cfg = ParConfig::new(setup, 250);

    println!("population schedule: 10,000 → +30,000 @step 50 → −5,000 @step 150 → 35,000");

    let base = run_threads(8, |comm| run_config(&comm, &cfg));
    println!(
        "\nmpi-2d     : verified={} total={} max/rank={}",
        base[0].verify.passed(),
        base[0].total_count,
        base[0].max_count
    );

    let params = DiffusionParams {
        interval: 1,
        tau: 100,
        border_w: 2,
    };
    let lb_cfg = cfg.clone().with_balancer(BalancerSpec::Diffusion {
        params,
        mode: DiffusionMode::XOnly,
    });
    let diff = run_threads(8, |comm| run_config(&comm, &lb_cfg));
    println!(
        "mpi-2d-LB  : verified={} total={} max/rank={}",
        diff[0].verify.passed(),
        diff[0].total_count,
        diff[0].max_count
    );

    assert!(base[0].verify.passed() && diff[0].verify.passed());
    assert_eq!(base[0].total_count, 35_000);
    assert_eq!(diff[0].total_count, 35_000);
    println!(
        "\ndiffusion adapts to the burst: max/rank {} vs baseline {}",
        diff[0].max_count, base[0].max_count
    );
}
