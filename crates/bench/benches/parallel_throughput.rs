//! Bench: throughput of the Monte-Carlo engine of experiment E9 —
//! single-threaded generation vs the persistent-pool engine at several
//! worker caps, the streaming covariance estimator, and parallel Doppler
//! blocks, on the registered `scaling-exp-rho07` scenario (N = 16).

use corrfade_parallel::{
    generate_realtime_paths, generate_snapshots, monte_carlo_covariance, ParallelConfig,
};
use corrfade_scenarios::lookup;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const TOTAL: usize = 100_000;

fn bench_snapshot_generation(c: &mut Criterion) {
    let scenario = lookup("scaling-exp-rho07").unwrap();
    let k = scenario.covariance_matrix().unwrap();
    let mut group = c.benchmark_group("parallel/snapshots_n16");
    group.throughput(Throughput::Elements(TOTAL as u64));
    group.sample_size(10);

    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut gen = scenario.build(1).unwrap();
            gen.generate_snapshots(TOTAL)
        })
    });
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("engine", threads),
            &threads,
            |b, &threads| {
                let cfg = ParallelConfig {
                    threads,
                    chunk_size: 8192,
                    seed: 1,
                };
                b.iter(|| generate_snapshots(&k, TOTAL, &cfg).unwrap())
            },
        );
    }
    group.finish();
}

fn bench_streaming_covariance(c: &mut Criterion) {
    let k = lookup("scaling-exp-rho07")
        .unwrap()
        .covariance_matrix()
        .unwrap();
    let mut group = c.benchmark_group("parallel/streaming_covariance_n16");
    group.throughput(Throughput::Elements(TOTAL as u64));
    group.sample_size(10);
    for &threads in &[1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let cfg = ParallelConfig {
                    threads,
                    chunk_size: 8192,
                    seed: 1,
                };
                b.iter(|| monte_carlo_covariance(&k, TOTAL, &cfg).unwrap())
            },
        );
    }
    group.finish();
}

fn bench_realtime_blocks(c: &mut Criterion) {
    // Parallel Doppler-block generation: pool workers stream reseeded
    // generators into pinned planar blocks (one cached eigendecomposition +
    // one filter design total).
    let base = lookup("fig4a-spectral")
        .unwrap()
        .realtime_config(1)
        .unwrap();
    let blocks = 8usize;
    let mut group = c.benchmark_group("parallel/realtime_blocks_m4096");
    group.throughput(Throughput::Elements((base.idft_size * 3 * blocks) as u64));
    group.sample_size(10);
    for &threads in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let cfg = ParallelConfig {
                    threads,
                    chunk_size: 8192,
                    seed: 1,
                };
                b.iter(|| generate_realtime_paths(&base, blocks, &cfg).unwrap())
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_snapshot_generation,
    bench_streaming_covariance,
    bench_realtime_blocks
);
criterion_main!(benches);
