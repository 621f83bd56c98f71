//! Runtime-orchestrated load balancing à la Adaptive MPI: the domain is
//! over-decomposed into virtual processors and the runtime migrates VPs
//! from the most- to the least-loaded core — no application knowledge.
//!
//! ```sh
//! cargo run --release --example ampi_virtualization
//! ```

use pic_ampi::model::AmpiParams;
use pic_ampi::runtime::run_ampi;
use pic_ampi::vp::VpGrid;
use pic_ampi::Balancer;
use pic_cluster::balancer::imbalance;
use pic_comm::world::run_threads;
use pic_par::runner::ParConfig;
use pic_prk::prelude::*;

fn main() {
    let cores = 4;
    let cfg = ParConfig::new(
        InitConfig::new(
            Grid::new(64).unwrap(),
            20_000,
            Distribution::Geometric { r: 0.9 },
        )
        .with_m(1)
        .build()
        .unwrap(),
        200,
    );

    // Show what over-decomposition looks like.
    let grid = VpGrid::new(64, cores, 8);
    println!(
        "over-decomposition: {} cores × d=8 → {} VPs on a {}×{} VP grid",
        cores,
        grid.vp_count(),
        grid.decomp().px,
        grid.decomp().py
    );
    let asg = grid.initial_assignment();
    let loads: Vec<f64> = (0..grid.vp_count()).map(|v| (v % 7) as f64 + 1.0).collect();
    println!(
        "initial (locality-preserving) placement imbalance on synthetic loads: {:.2}",
        imbalance(&loads, &asg, cores)
    );

    for (name, balancer) in [
        ("no balancing (over-decomposition only)", Balancer::None),
        (
            "refine (most→least loaded, the paper's choice)",
            Balancer::paper_default(),
        ),
        ("greedy (full Charm++-style remap)", Balancer::Greedy),
    ] {
        let params = AmpiParams {
            d: 8,
            interval: 10,
            balancer,
        };
        let out = run_threads(cores, |comm| run_ampi(&comm, &cfg, &params));
        println!(
            "\n{name}:\n  verified: {}   max particles/core: {} (ideal {})",
            out[0].verify.passed(),
            out[0].max_count,
            20_000 / cores as u64
        );
        assert!(out[0].verify.passed());
    }
}
