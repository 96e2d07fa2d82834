//! Bench: the Young–Beaulieu Doppler substrate of experiment E6 — filter
//! design (Eq. 21), the M-point IDFT and one full single-envelope
//! generation, for the paper's M = 4096 and
//! neighbouring sizes. The normalized Doppler frequency and `σ²_orig` come
//! from the registered `fig4a-spectral` scenario's Doppler settings.

use corrfade_dsp::{fft, ifft, DopplerFilter, IdftRayleighGenerator};
use corrfade_linalg::c64;
use corrfade_randn::RandomStream;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn paper_doppler() -> corrfade_scenarios::DopplerSettings {
    corrfade_scenarios::lookup("fig4a-spectral")
        .unwrap()
        .doppler
}

/// `DopplerFilter::new` per length. One 1024-point design takes ~2.4 µs,
/// too short for a stable median on a shared host, so that row's iteration
/// designs 64 filters; the longer rows design one.
fn bench_filter_design(c: &mut Criterion) {
    let fm = paper_doppler().normalized_doppler;
    let mut group = c.benchmark_group("doppler/filter_design");
    for &(m, designs) in &[(1024usize, 64usize), (4096, 1), (16384, 1)] {
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, &m| {
            b.iter(|| {
                for _ in 0..designs {
                    black_box(DopplerFilter::new(m, fm).unwrap());
                }
            })
        });
    }
    group.finish();
}

fn bench_ifft(c: &mut Criterion) {
    let mut group = c.benchmark_group("doppler/ifft");
    for &m in &[1024usize, 4096, 16384] {
        group.throughput(Throughput::Elements(m as u64));
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, &m| {
            let x: Vec<_> = (0..m).map(|i| c64((i as f64 * 0.1).sin(), 0.2)).collect();
            b.iter(|| ifft(&x))
        });
    }
    // Non-power-of-two goes through Bluestein.
    group.bench_function("bluestein_4000", |b| {
        let x: Vec<_> = (0..4000)
            .map(|i| c64((i as f64 * 0.1).sin(), 0.2))
            .collect();
        b.iter(|| fft(&x))
    });
    group.finish();
}

fn bench_single_envelope_generation(c: &mut Criterion) {
    let doppler = paper_doppler();
    let mut group = c.benchmark_group("doppler/young_beaulieu_generate");
    group.sample_size(30);
    for &m in &[1024usize, 4096] {
        group.throughput(Throughput::Elements(m as u64));
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, &m| {
            let gen = IdftRayleighGenerator::new(
                DopplerFilter::new(m, doppler.normalized_doppler).unwrap(),
                doppler.sigma_orig_sq,
            )
            .unwrap();
            let mut rng = RandomStream::new(1);
            b.iter(|| gen.generate(&mut rng))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_filter_design,
    bench_ifft,
    bench_single_envelope_generation
);
criterion_main!(benches);
