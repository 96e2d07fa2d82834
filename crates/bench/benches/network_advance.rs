//! Bench: WSN-scale lockstep advance — the ROADMAP's "massive-network
//! workload" shape, >1000 correlated links per epoch.
//!
//! A 23×23 unit grid yields 1012 links, decomposed into correlated groups of
//! at most 64 under the configured spatial model; one `advance` generates a
//! Doppler block for every link. Throughput is reported in **links per
//! second** (`Throughput::Elements(link_count)`), the figure the
//! `network-scale` CI job regression-gates.
//!
//! * `network/advance_1012/*` — one lockstep epoch, sequentially and on
//!   pools of several sizes; each advance also computes every block's
//!   envelope view.
//! * `network/metrics_1012` — the per-link trace-extraction pass (one
//!   outage/LCR/AFD pass per link over the envelope view) over a warm
//!   epoch, allocation-free by contract.
//! * `network/epoch_1012/advance_and_metrics` — a pooled advance followed
//!   by every link's metrics: the whole epoch a network simulator drives.

use corrfade_models::wsn::LinkCorrelationModel;
use corrfade_network::{NetworkSim, NetworkSimConfig, Topology};
use corrfade_parallel::Runtime;
use corrfade_scenarios::DopplerSettings;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn network_config() -> NetworkSimConfig {
    NetworkSimConfig {
        correlation: LinkCorrelationModel::distance_only(0.4),
        correlation_threshold: 0.1,
        max_group_size: 64,
        doppler: DopplerSettings {
            idft_size: 256,
            normalized_doppler: 0.05,
            sigma_orig_sq: 0.5,
        },
        ..NetworkSimConfig::default()
    }
}

fn open_sim() -> NetworkSim {
    let topology = Topology::grid(23, 23, 1.0).unwrap();
    assert_eq!(topology.link_count(), 1012, "bench topology drifted");
    NetworkSim::open(topology, &network_config(), 7).unwrap()
}

fn bench_network_advance(c: &mut Criterion) {
    let mut sim = open_sim();
    let links = sim.link_count() as u64;

    let mut group = c.benchmark_group("network/advance_1012");
    group.throughput(Throughput::Elements(links));
    group.sample_size(10);

    group.bench_function("sequential", |b| {
        b.iter(|| sim.advance_sequential().unwrap())
    });
    group.bench_function("pooled_global", |b| b.iter(|| sim.advance().unwrap()));
    for &workers in &[2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("pooled", workers),
            &workers,
            |b, &workers| {
                let rt = Runtime::new(workers);
                b.iter(|| sim.advance_on(&rt).unwrap())
            },
        );
    }
    group.finish();
}

/// Every link's metrics for the current epoch, reduced to one figure.
fn all_link_metrics(sim: &mut NetworkSim) -> f64 {
    let mut outages = 0.0f64;
    for link in 0..sim.link_count() {
        outages += sim.link_metrics(link).unwrap().outage_probability;
    }
    outages
}

fn bench_network_metrics(c: &mut Criterion) {
    let mut sim = open_sim();
    sim.advance().unwrap();
    let links = sim.link_count() as u64;

    let mut group = c.benchmark_group("network/metrics_1012");
    group.throughput(Throughput::Elements(links));
    group.sample_size(10);

    group.bench_function("trace_extraction", |b| {
        b.iter(|| all_link_metrics(&mut sim))
    });
    group.finish();
}

fn bench_network_epoch(c: &mut Criterion) {
    let mut sim = open_sim();
    let links = sim.link_count() as u64;

    let mut group = c.benchmark_group("network/epoch_1012");
    group.throughput(Throughput::Elements(links));
    group.sample_size(10);

    group.bench_function("advance_and_metrics", |b| {
        b.iter(|| {
            sim.advance().unwrap();
            all_link_metrics(&mut sim)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_network_advance,
    bench_network_metrics,
    bench_network_epoch
);
criterion_main!(benches);
