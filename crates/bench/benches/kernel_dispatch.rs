//! Bench: scalar vs. vectorized kernel backends, per kernel.
//!
//! Each hot-path kernel behind `corrfade_linalg::kernel` (and the FFT
//! dispatch in `corrfade-dsp`) is measured on both backends through the
//! explicit `*_with(backend, …)` entry points, so the speedup of the
//! vectorized path is visible independent of the process-wide
//! `CORRFADE_KERNEL` selection. The sizes mirror the paper's hot path:
//! `N = 3` envelopes × `M = 4096` samples, plus a larger `N` to show the
//! cache-blocked scaling.

use corrfade_dsp::{color_idft_block_with, ifft_in_place_with};
use corrfade_linalg::kernel::{
    accumulate_covariance_with, color_block_with, envelope_into_with, matvec_into_with,
};
use corrfade_linalg::{c64, Backend, Complex64};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const BACKENDS: [(&str, Backend); 2] = [("scalar", Backend::Scalar), ("vector", Backend::Vector)];

fn signal(len: usize) -> Vec<Complex64> {
    (0..len)
        .map(|i| {
            let t = i as f64;
            c64((0.37 * t).sin(), 0.5 * (0.71 * t).cos())
        })
        .collect()
}

fn bench_color_block(c: &mut Criterion) {
    for (n, m) in [(3usize, 4096usize), (16, 4096)] {
        let mut group = c.benchmark_group(format!("kernel/coloring_n{n}_m{m}"));
        group.throughput(Throughput::Elements((n * m) as u64));
        let a = signal(n * n);
        let raw = signal(n * m);
        for (name, backend) in BACKENDS {
            group.bench_with_input(BenchmarkId::from_parameter(name), &backend, |b, &bk| {
                let mut out = vec![Complex64::ZERO; n * m];
                let mut w = Vec::new();
                let mut planes = Vec::new();
                b.iter(|| color_block_with(bk, n, m, &a, 0.5, &raw, &mut out, &mut w, &mut planes))
            });
        }
        group.finish();
    }
}

/// The fused coloring+IDFT kernel against the two-pass composition it
/// replaces, on the paper's block shape. Every variant
/// pays the identical `copy_from_slice` refill per iteration (the transforms
/// destroy their input), so the medians compare like for like.
fn bench_color_idft(c: &mut Criterion) {
    let (n, m) = (3usize, 4096usize);
    let a = signal(n * n);
    let raw = signal(n * m);

    let mut group = c.benchmark_group(format!("kernel/color_idft_two_pass_n{n}_m{m}"));
    group.throughput(Throughput::Elements((n * m) as u64));
    for (name, backend) in BACKENDS {
        group.bench_with_input(BenchmarkId::from_parameter(name), &backend, |b, &bk| {
            let mut work = raw.clone();
            let mut out = vec![Complex64::ZERO; n * m];
            let (mut w, mut planes) = (Vec::new(), Vec::new());
            b.iter(|| {
                work.copy_from_slice(&raw);
                for j in 0..n {
                    ifft_in_place_with(bk, &mut work[j * m..(j + 1) * m]);
                }
                color_block_with(bk, n, m, &a, 0.5, &work, &mut out, &mut w, &mut planes)
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group(format!("kernel/color_idft_fused_n{n}_m{m}"));
    group.throughput(Throughput::Elements((n * m) as u64));
    for (name, backend) in BACKENDS {
        group.bench_with_input(BenchmarkId::from_parameter(name), &backend, |b, &bk| {
            let mut work = raw.clone();
            let mut out = vec![Complex64::ZERO; n * m];
            let (mut w, mut planes) = (Vec::new(), Vec::new());
            b.iter(|| {
                work.copy_from_slice(&raw);
                color_idft_block_with(bk, n, m, &a, 0.5, &mut work, &mut out, &mut w, &mut planes)
            })
        });
    }
    group.finish();
}

fn bench_matvec(c: &mut Criterion) {
    let n = 64;
    let mut group = c.benchmark_group(format!("kernel/matvec_n{n}"));
    group.throughput(Throughput::Elements((n * n) as u64));
    let a = signal(n * n);
    let x = signal(n);
    for (name, backend) in BACKENDS {
        group.bench_with_input(BenchmarkId::from_parameter(name), &backend, |b, &bk| {
            let mut y = vec![Complex64::ZERO; n];
            b.iter(|| matvec_into_with(bk, n, n, &a, &x, &mut y))
        });
    }
    group.finish();
}

fn bench_accumulate_covariance(c: &mut Criterion) {
    let (n, m) = (3usize, 4096usize);
    let mut group = c.benchmark_group(format!("kernel/accumulate_covariance_n{n}_m{m}"));
    group.throughput(Throughput::Elements((n * m) as u64));
    let data = signal(n * m);
    for (name, backend) in BACKENDS {
        group.bench_with_input(BenchmarkId::from_parameter(name), &backend, |b, &bk| {
            let mut acc = vec![Complex64::ZERO; n * n];
            b.iter(|| accumulate_covariance_with(bk, n, m, &data, &mut acc))
        });
    }
    group.finish();
}

fn bench_idft(c: &mut Criterion) {
    let m = 4096;
    let mut group = c.benchmark_group(format!("kernel/idft_m{m}"));
    group.throughput(Throughput::Elements(m as u64));
    let x = signal(m);
    for (name, backend) in BACKENDS {
        group.bench_with_input(BenchmarkId::from_parameter(name), &backend, |b, &bk| {
            let mut data = x.clone();
            b.iter(|| ifft_in_place_with(bk, &mut data))
        });
    }
    group.finish();
}

fn bench_envelope(c: &mut Criterion) {
    let len = 3 * 4096;
    let mut group = c.benchmark_group(format!("kernel/envelope_{len}"));
    group.throughput(Throughput::Elements(len as u64));
    let data = signal(len);
    for (name, backend) in BACKENDS {
        group.bench_with_input(BenchmarkId::from_parameter(name), &backend, |b, &bk| {
            let mut env = vec![0.0f64; len];
            b.iter(|| envelope_into_with(bk, &data, &mut env))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_color_block,
    bench_color_idft,
    bench_matvec,
    bench_accumulate_covariance,
    bench_idft,
    bench_envelope
);
criterion_main!(benches);
