//! Bench: the statistical-validation pipeline of experiment E5 — sample
//! covariance estimation and goodness-of-fit testing over ensembles
//! generated from the registered `fig4a-spectral` scenario. These dominate
//! the wall-clock of the Monte-Carlo experiments, so their cost matters as
//! much as the generator's. Each ensemble is one streamed block of
//! independent snapshots.

use corrfade::{ChannelStream, SampleBlock};
use corrfade_scenarios::lookup;
use corrfade_stats::{ks_test, sample_covariance_from_block};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// One planar block of `snapshots` independent snapshots of the scenario.
fn snapshot_block(seed: u64, snapshots: usize) -> SampleBlock {
    let mut gen = lookup("fig4a-spectral")
        .unwrap()
        .build(seed)
        .unwrap()
        .with_stream_block_len(snapshots);
    let mut block = SampleBlock::empty();
    gen.next_block_into(&mut block).unwrap();
    block
}

fn bench_sample_covariance(c: &mut Criterion) {
    let mut group = c.benchmark_group("validation/sample_covariance");
    for &snapshots in &[1_000usize, 10_000, 50_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(snapshots),
            &snapshots,
            |b, &snapshots| {
                let block = snapshot_block(3, snapshots);
                b.iter(|| sample_covariance_from_block(&block))
            },
        );
    }
    group.finish();
}

fn bench_ks_test(c: &mut Criterion) {
    let mut group = c.benchmark_group("validation/rayleigh_ks_test");
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut block = snapshot_block(5, n);
            let env = block.envelope_path(0);
            let sigma = corrfade_stats::rayleigh_scale(1.0);
            b.iter(|| ks_test(env, |r| corrfade_specfun::rayleigh_cdf(r, sigma)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sample_covariance, bench_ks_test);
criterion_main!(benches);
