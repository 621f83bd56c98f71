//! Scaled-down end-to-end benchmarks: one bench per paper figure, running
//! the same drivers as the experiment binaries at 1/100 of the paper's
//! step count, plus functional (threaded) runs of the three
//! implementations. These give `cargo bench` coverage of every
//! table/figure and provide regression tracking for the modeled runs.

use criterion::{criterion_group, criterion_main, Criterion};
use pic_ampi::balancer::Balancer;
use pic_ampi::model::{model_ampi, AmpiParams};
use pic_ampi::runtime::run_ampi;
use pic_bench::{fig5_d_sweep, fig5_f_sweep, fig6_left, fig6_right, fig7, table_max_count};
use pic_comm::world::run_threads;
use pic_core::dist::Distribution;
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_par::diffusion::{DiffusionMode, DiffusionParams};
use pic_par::model_impl::{model_baseline, model_diffusion, ModelConfig};
use pic_par::runner::ParConfig;
use pic_par::{run_config, BalancerSpec};

const SCALE: u64 = 100; // 60-step modeled runs

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    group.bench_function("f_sweep/scale100", |b| b.iter(|| fig5_f_sweep(SCALE)));
    group.bench_function("d_sweep/scale100", |b| b.iter(|| fig5_d_sweep(SCALE)));
    group.finish();
}

fn bench_fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    group.bench_function("left/scale100", |b| b.iter(|| fig6_left(SCALE)));
    group.bench_function("right/scale100", |b| b.iter(|| fig6_right(SCALE)));
    group.finish();
}

fn bench_fig7(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    group.bench_function("weak/scale100", |b| b.iter(|| fig7(SCALE)));
    group.finish();
}

fn bench_table_e5(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_e5");
    group.sample_size(10);
    group.bench_function("max_count/scale100", |b| b.iter(|| table_max_count(SCALE)));
    group.finish();
}

fn bench_modeled_single_points(c: &mut Criterion) {
    let cfg = ModelConfig::paper_strong(192).shortened(SCALE);
    let mut group = c.benchmark_group("model_point");
    group.sample_size(10);
    group.bench_function("baseline/192c", |b| b.iter(|| model_baseline(&cfg)));
    group.bench_function("diffusion/192c", |b| {
        b.iter(|| {
            model_diffusion(
                &cfg,
                DiffusionParams {
                    interval: 20,
                    tau: 100,
                    border_w: 20,
                },
            )
        })
    });
    group.bench_function("ampi/192c", |b| {
        b.iter(|| {
            model_ampi(
                &cfg,
                &AmpiParams {
                    d: 4,
                    interval: 160,
                    balancer: Balancer::paper_default(),
                },
            )
        })
    });
    group.finish();
}

fn bench_functional_runs(c: &mut Criterion) {
    // Threaded functional runs at miniature scale: the benches measure
    // substrate overhead and catch regressions in the exchange paths.
    let cfg = ParConfig::new(
        InitConfig::new(Grid::new(64).unwrap(), 4_000, Distribution::PAPER_SKEW)
            .with_m(1)
            .build()
            .unwrap(),
        32,
    );
    let mut group = c.benchmark_group("functional");
    group.sample_size(10);
    group.bench_function("baseline/4ranks", |b| {
        b.iter(|| run_threads(4, |comm| run_config(&comm, &cfg).verify.passed()))
    });
    let lb_cfg = cfg.clone().with_balancer(BalancerSpec::Diffusion {
        params: DiffusionParams {
            interval: 4,
            tau: 0,
            border_w: 4,
        },
        mode: DiffusionMode::XOnly,
    });
    group.bench_function("diffusion/4ranks", |b| {
        b.iter(|| run_threads(4, |comm| run_config(&comm, &lb_cfg).verify.passed()))
    });
    group.bench_function("ampi/4ranks", |b| {
        b.iter(|| {
            run_threads(4, |comm| {
                run_ampi(
                    &comm,
                    &cfg,
                    &AmpiParams {
                        d: 4,
                        interval: 8,
                        balancer: Balancer::paper_default(),
                    },
                )
                .verify
                .passed()
            })
        })
    });
    group.finish();
}

criterion_group!(
    name = scaling;
    config = Criterion::default();
    targets = bench_fig5,
        bench_fig6,
        bench_fig7,
        bench_table_e5,
        bench_modeled_single_points,
        bench_functional_runs
);
criterion_main!(scaling);
