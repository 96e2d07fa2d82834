//! Bench: throughput of the Monte-Carlo engine of experiment E9 — the
//! streaming covariance estimator on persistent pools of several sizes
//! (capped at the available cores), on the registered `scaling-exp-rho07`
//! scenario (N = 16).

use corrfade_parallel::{monte_carlo_covariance_on, ParallelConfig, Runtime};
use corrfade_scenarios::lookup;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const TOTAL: usize = 100_000;

fn bench_streaming_covariance(c: &mut Criterion) {
    let k = lookup("scaling-exp-rho07")
        .unwrap()
        .covariance_matrix()
        .unwrap();
    let mut group = c.benchmark_group("parallel/streaming_covariance_n16");
    group.throughput(Throughput::Elements(TOTAL as u64));
    group.sample_size(10);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = ParallelConfig {
        chunk_size: 8192,
        seed: 1,
    };
    for &threads in &[1usize, 4, 8] {
        let runtime = Runtime::new(threads.min(cores));
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| monte_carlo_covariance_on(&runtime, &k, TOTAL, &cfg).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_streaming_covariance);
criterion_main!(benches);
