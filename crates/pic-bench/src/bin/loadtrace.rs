//! Per-step load traces of the three strategies on the paper's drifting
//! skew — the raw series behind "how well does each balancer track the
//! moving load". Writes one CSV per strategy to `results/`.
//!
//! Usage: `loadtrace [--scale N] [--cores P]`

use pic_ampi::vp::VpGrid;
use pic_ampi::Balancer;
use pic_bench::report::scale_from_args;
use pic_cluster::balancer::diffuse_xcuts;
use pic_cluster::loadmodel::ColumnLoadModel;
use pic_cluster::stats::LoadTrace;
use pic_core::dist::Distribution;
use pic_par::decomp::Decomp2d;
use std::fs;

fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let scale = scale_from_args().max(1);
    let cores = arg_usize("--cores", 24);
    let ncells = 2998usize;
    let n = 600_000u64;
    let steps = 6_000 / scale;
    let dist = Distribution::PAPER_SKEW;

    fs::create_dir_all("results").unwrap();

    // Baseline: static cuts.
    let decomp = Decomp2d::uniform(ncells, cores);
    let mut load = ColumnLoadModel::new(dist, ncells, n, 0, 1);
    let mut trace = LoadTrace::new();
    for s in 0..steps {
        let loads: Vec<f64> = (0..cores)
            .map(|r| {
                let (cols, rows) = decomp.bounds(r);
                load.count_in_rect(cols, rows)
            })
            .collect();
        trace.push(s, &loads);
        load.advance(1);
    }
    fs::write("results/trace_baseline.csv", trace.to_csv()).unwrap();
    println!("baseline   mean imbalance: {:.2}", trace.mean_imbalance());

    // Diffusion: x-cuts move every 5 steps.
    let mut decomp = Decomp2d::uniform(ncells, cores);
    let mut load = ColumnLoadModel::new(dist, ncells, n, 0, 1);
    let mut trace = LoadTrace::new();
    let (interval, w) = (5u64, 10usize);
    for s in 0..steps {
        let loads: Vec<f64> = (0..cores)
            .map(|r| {
                let (cols, rows) = decomp.bounds(r);
                load.count_in_rect(cols, rows)
            })
            .collect();
        trace.push(s, &loads);
        load.advance(1);
        if (s + 1) % interval == 0 {
            let col_counts: Vec<u64> = (0..decomp.px)
                .map(|cx| {
                    let (a, b) = decomp.col_range(cx);
                    load.count_in_columns(a, b)
                })
                .collect();
            let cuts = diffuse_xcuts(&decomp.xcuts, &col_counts, n / cores as u64 / 20, w, ncells);
            decomp.set_xcuts(cuts);
        }
    }
    fs::write("results/trace_diffusion.csv", trace.to_csv()).unwrap();
    println!("diffusion  mean imbalance: {:.2}", trace.mean_imbalance());

    // AMPI: VP refine every 150 steps.
    let vps = VpGrid::new(ncells, cores, 8);
    let mut assignment = vps.initial_assignment();
    let mut load = ColumnLoadModel::new(dist, ncells, n, 0, 1);
    let mut trace = LoadTrace::new();
    let balancer = Balancer::paper_default();
    let interval = (600 / scale).max(1);
    let mut vp_loads = vec![0.0f64; vps.vp_count()];
    for s in 0..steps {
        let mut loads = vec![0.0f64; cores];
        for vp in 0..vps.vp_count() {
            let (cols, rows) = vps.decomp().bounds(vp);
            vp_loads[vp] = load.count_in_rect(cols, rows);
            loads[assignment[vp]] += vp_loads[vp];
        }
        trace.push(s, &loads);
        load.advance(1);
        if (s + 1) % interval == 0 {
            assignment = balancer.rebalance(&vp_loads, &assignment, cores);
        }
    }
    fs::write("results/trace_ampi.csv", trace.to_csv()).unwrap();
    println!("ampi       mean imbalance: {:.2}", trace.mean_imbalance());
    eprintln!("traces written to results/trace_*.csv");
}
