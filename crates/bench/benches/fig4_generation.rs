//! Bench: regenerating the paper's Fig. 4 experiments — one full real-time
//! block (M = 4096 samples of N = 3 correlated envelopes) for the registered
//! `fig4a-spectral` and `fig4b-spatial` scenarios, plus the single-instant
//! mode for reference.
//!
//! Both modes are measured through the zero-allocation streaming API
//! (`next_block_into` with a pooled planar `SampleBlock`).

use corrfade::{ChannelStream, SampleBlock};
use corrfade_scenarios::lookup;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_realtime_blocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4/realtime_block_m4096");
    group.throughput(Throughput::Elements(4096 * 3));
    group.sample_size(20);

    for name in ["fig4a-spectral", "fig4b-spatial"] {
        group.bench_function(format!("{name}/stream"), |b| {
            let mut gen = lookup(name).unwrap().build_realtime(1).unwrap();
            let mut block = SampleBlock::empty();
            b.iter(|| gen.next_block_into(&mut block).unwrap())
        });
    }
    group.finish();
}

fn bench_single_instant(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4/single_instant_4096_samples");
    group.throughput(Throughput::Elements(4096 * 3));
    for name in ["fig4a-spectral", "fig4b-spatial"] {
        group.bench_function(format!("{name}/stream"), |b| {
            let mut gen = lookup(name)
                .unwrap()
                .build(1)
                .unwrap()
                .with_stream_block_len(4096);
            let mut block = SampleBlock::empty();
            b.iter(|| gen.next_block_into(&mut block).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_realtime_blocks, bench_single_instant);
criterion_main!(benches);
