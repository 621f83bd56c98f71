//! Ablation: category-1 load imbalance (system non-uniformity).
//!
//! Paper §I classifies imbalance sources; §II argues category 1 can be
//! substituted by the kernel's controllable imbalance. Here we inject it
//! directly in the machine model — a straggler socket and OS-noise jitter —
//! on a *uniform* particle distribution, and show the qualitative split:
//! the count-based diffusion scheme is blind to it, while the
//! runtime-orchestrated balancer (which measures time, not counts)
//! compensates.
//!
//! Usage: `ablation_noise [--scale N]`

use pic_ampi::{AmpiParams, Balancer};
use pic_bench::report::scale_from_args;
use pic_cluster::noise::NoiseModel;
use pic_core::dist::Distribution;
use pic_par::diffusion::DiffusionParams;
use pic_par::model_impl::{model_ampi, model_baseline, model_diffusion, ModelConfig};

fn main() {
    let scale = scale_from_args();
    let cores = 48;
    let mut cfg = ModelConfig::paper_strong(cores).shortened(scale);
    cfg.dist = Distribution::Uniform;

    println!("noise,mpi-2d_s,mpi-2d-LB_s,ampi_s,base_imb,ampi_imb");
    for (name, noise) in [
        ("none", NoiseModel::None),
        ("slow-socket-1.5x", NoiseModel::slow_tail(cores, 12, 1.5)),
        ("slow-socket-2x", NoiseModel::slow_tail(cores, 12, 2.0)),
        (
            "jitter-25%",
            NoiseModel::Jitter {
                amplitude: 0.25,
                seed: 7,
            },
        ),
        (
            "jitter-50%",
            NoiseModel::Jitter {
                amplitude: 0.5,
                seed: 7,
            },
        ),
    ] {
        cfg.noise = noise;
        let base = model_baseline(&cfg);
        let diff = model_diffusion(
            &cfg,
            DiffusionParams {
                interval: 10,
                tau: 0,
                border_w: 10,
            },
        );
        let ampi = model_ampi(
            &cfg,
            &AmpiParams {
                d: 8,
                interval: (600 / scale).max(1) as u32,
                balancer: Balancer::paper_default(),
            },
        );
        println!(
            "{name},{:.3},{:.3},{:.3},{:.2},{:.2}",
            base.seconds * scale as f64,
            diff.seconds * scale as f64,
            ampi.seconds * scale as f64,
            base.stats.imbalance,
            ampi.stats.imbalance,
        );
    }
    eprintln!("\nExpected: diffusion ≈ baseline under noise (counts are already");
    eprintln!("balanced), ampi compensates for persistent stragglers; random");
    eprintln!("per-step jitter is beyond any once-in-a-while balancer.");
}
