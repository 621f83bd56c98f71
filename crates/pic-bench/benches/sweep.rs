//! Sweep-engine benchmark: the three `SweepMode` strategies head-to-head,
//! plus the chunk-size sensitivity of the binned sweep.
//!
//! This is the microbenchmark behind `BENCH_sweep.json` (see the
//! `bench_sweep` binary for the machine-readable emitter); the Criterion
//! harness here is for interactive `cargo bench sweep` comparisons.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_core::bin::{BinnedStore, KernelTier};
use pic_core::charge::SimConstants;
use pic_core::dist::Distribution;
use pic_core::geometry::Grid;
use pic_core::init::InitConfig;
use pic_core::motion::advance_all;
use pic_core::particle::Particle;
use pic_core::pool::DEFAULT_CHUNK;

fn population(n: u64) -> (Grid, Vec<Particle>) {
    let grid = Grid::new(512).unwrap();
    let setup = InitConfig::new(grid, n, Distribution::PAPER_SKEW)
        .with_m(1)
        .build()
        .unwrap();
    (grid, setup.particles)
}

fn bench_sweep_modes(c: &mut Criterion) {
    let consts = SimConstants::CANONICAL;
    let mut group = c.benchmark_group("sweep");
    for &n in &[10_000u64, 100_000, 1_000_000] {
        let (grid, particles) = population(n);
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("aos-serial", n), &n, |b, _| {
            b.iter_batched(
                || particles.clone(),
                |mut ps| advance_all(&grid, &consts, &mut ps),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("soa-binned", n), &n, |b, _| {
            b.iter_batched(
                || BinnedStore::new(&particles, &grid, 1),
                |mut st| st.advance_all(&grid, &consts, DEFAULT_CHUNK),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("soa-binned-fast", n), &n, |b, _| {
            b.iter_batched(
                || {
                    let mut st = BinnedStore::new(&particles, &grid, 1);
                    st.set_kernel_tier(KernelTier::Fast);
                    st
                },
                |mut st| st.advance_all(&grid, &consts, DEFAULT_CHUNK),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_chunk_sensitivity(c: &mut Criterion) {
    let consts = SimConstants::CANONICAL;
    let n = 100_000u64;
    let (grid, particles) = population(n);
    let mut group = c.benchmark_group("sweep-chunk");
    group.throughput(Throughput::Elements(n));
    for &chunk in &[64usize, 1_024, 4_096, 16_384, 65_536] {
        group.bench_with_input(
            BenchmarkId::new("soa-binned-100k", chunk),
            &chunk,
            |b, &ch| {
                b.iter_batched(
                    || BinnedStore::new(&particles, &grid, 1),
                    |mut st| st.advance_all(&grid, &consts, ch),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(
    name = sweep;
    config = Criterion::default().sample_size(10);
    targets = bench_sweep_modes, bench_chunk_sensitivity
);
criterion_main!(sweep);
