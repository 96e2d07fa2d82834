//! Discrete Fourier transforms.
//!
//! The Young–Beaulieu Rayleigh generator (paper ref. \[7\], used by the
//! real-time algorithm of Sec. 5) produces each fading sequence as an
//! `M`-point **inverse** DFT of Doppler-filtered complex Gaussian spectra,
//! with `M = 4096` in the paper's experiments. A radix-2 iterative
//! Cooley–Tukey transform covers every power-of-two length; Bluestein's
//! chirp-z algorithm (built on the radix-2 core) covers arbitrary lengths so
//! the library does not silently constrain the caller's choice of `M`.
//!
//! Conventions match MATLAB/NumPy:
//! `X[k] = Σ_l x[l]·e^{−i2πkl/M}` (forward), and the inverse includes the
//! `1/M` factor, `x[l] = (1/M)·Σ_k X[k]·e^{+i2πkl/M}` — the same `1/M` that
//! appears explicitly in Eq. (16)–(19) of the paper.
//!
//! # Kernel dispatch
//!
//! Every transform routes through the `corrfade_linalg::kernel` backend
//! selection (`CORRFADE_KERNEL`):
//!
//! * the **scalar** backend runs the original iterative radix-2 butterflies
//!   (twiddles advanced by repeated multiplication) and is bit-exact with
//!   every pre-kernel release;
//! * the **vector** backend uses precomputed per-stage twiddle tables
//!   (cached per size in a process-wide plan cache, so steady-state calls
//!   allocate nothing) whose butterflies have no serial twiddle dependency —
//!   they autovectorize, and on `x86_64` run as AVX2+FMA multiversions.
//!
//! Both backends agree to well below 1e-12 for unit-scale inputs; see the
//! `fft_backend_equivalence` test suite.

use std::sync::Arc;

use corrfade_linalg::kernel::{backend, Backend};
use corrfade_linalg::{Complex64, FactorCache};

/// Capacity of the process-wide plan caches: unbounded, since a process
/// transforms only a handful of sizes and a plan is never worth rebuilding.
const PLAN_CACHE_CAPACITY: usize = usize::MAX;

/// Returns `true` when `n` is a power of two (and non-zero).
#[inline]
fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// In-place iterative radix-2 Cooley–Tukey FFT — the scalar reference
/// implementation (twiddles advanced by repeated multiplication, exactly as
/// in every pre-kernel release).
///
/// `invert = false` computes the forward transform, `invert = true` the
/// unnormalized inverse (no `1/M`; [`ifft`] applies it).
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
fn fft_radix2_in_place(data: &mut [Complex64], invert: bool) {
    let n = data.len();
    assert!(
        is_power_of_two(n),
        "radix-2 FFT requires a power-of-two length, got {n}"
    );
    if n <= 1 {
        return;
    }
    scalar_bit_reverse(data);
    scalar_butterflies(data, invert);
}

/// The scalar backend's bit-reversal permutation (incremental-carry form,
/// exactly as in every pre-kernel release).
fn scalar_bit_reverse(data: &mut [Complex64]) {
    let n = data.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
}

/// The scalar backend's butterfly stages, lengths `2 ..= n`, over the
/// bit-reversed data (twiddles advanced by repeated multiplication — the
/// historical serial chain, bit-exact with every pre-kernel release).
fn scalar_butterflies(data: &mut [Complex64], invert: bool) {
    let n = data.len();
    let sign = if invert { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * core::f64::consts::PI / len as f64;
        let wlen = Complex64::cis(ang);
        let half = len / 2;
        for start in (0..n).step_by(len) {
            let mut w = Complex64::ONE;
            for k in 0..half {
                let u = data[start + k];
                let v = data[start + k + half] * w;
                data[start + k] = u + v;
                data[start + k + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

// ---------------------------------------------------------------------------
// Planned (table-driven) power-of-two transform — the vector backend
// ---------------------------------------------------------------------------

/// Precomputed tables for one power-of-two size: the bit-reversal
/// permutation and per-stage forward twiddle factors (`cis(−2πk/len)`, one
/// contiguous run per stage so the butterfly loop reads them stride-1).
#[derive(Debug)]
struct FftTables {
    rev: Vec<u32>,
    /// `stages[s]` holds the `2^s` twiddles of the stage with butterfly
    /// length `2^(s+1)`.
    stages: Vec<Vec<Complex64>>,
}

impl FftTables {
    fn new(n: usize) -> Self {
        debug_assert!(is_power_of_two(n));
        let bits = n.trailing_zeros();
        let mut rev = vec![0u32; n];
        for i in 1..n {
            rev[i] = (rev[i >> 1] >> 1) | (((i & 1) as u32) << (bits - 1));
        }
        let mut stages = Vec::with_capacity(bits as usize);
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stage: Vec<Complex64> = (0..half)
                .map(|k| Complex64::cis(-2.0 * core::f64::consts::PI * k as f64 / len as f64))
                .collect();
            stages.push(stage);
            len <<= 1;
        }
        Self { rev, stages }
    }
}

/// Process-wide plan cache: tables are built once per size and shared, so
/// steady-state planned transforms perform no heap allocation. A warm
/// lookup is one [`FactorCache`] hit.
fn tables_for(n: usize) -> Arc<FftTables> {
    static CACHE: FactorCache<usize, FftTables> = FactorCache::new(PLAN_CACHE_CAPACITY);
    CACHE.get_or_insert_with(n, || FftTables::new(n))
}

/// Table-driven butterflies over the bit-reversed data. The twiddle loads
/// are independent (no serial `w *= wlen` chain), which is what lets the
/// loop vectorize.
#[inline(always)]
fn butterflies_body<const FMA: bool>(data: &mut [Complex64], tables: &FftTables, invert: bool) {
    let n = data.len();
    // The tables hold the forward twiddles cis(−2πk/len); the inverse
    // transform conjugates them.
    let sign = if invert { -1.0 } else { 1.0 };
    for (s, stage) in tables.stages.iter().enumerate() {
        let len = 2usize << s;
        let half = len >> 1;
        for start in (0..n).step_by(len) {
            let (lo, hi) = data[start..start + len].split_at_mut(half);
            for ((u, v), w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage.iter()) {
                let wr = w.re;
                let wi = sign * w.im;
                let (vr, vi) = if FMA {
                    (v.re.mul_add(wr, -(v.im * wi)), v.re.mul_add(wi, v.im * wr))
                } else {
                    (v.re * wr - v.im * wi, v.re * wi + v.im * wr)
                };
                let (ur, ui) = (u.re, u.im);
                u.re = ur + vr;
                u.im = ui + vi;
                v.re = ur - vr;
                v.im = ui - vi;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn butterflies_avx2(data: &mut [Complex64], tables: &FftTables, invert: bool) {
    butterflies_body::<true>(data, tables, invert);
}

/// The planned (vector-backend) bit-reversal permutation using the cached
/// table.
fn planned_bit_reverse(data: &mut [Complex64], tables: &FftTables) {
    for i in 1..data.len() {
        let j = tables.rev[i] as usize;
        if i < j {
            data.swap(i, j);
        }
    }
}

/// The planned butterflies, FMA-dispatched: on `x86_64` with AVX2+FMA the
/// loop compiles under `avx2,fma` and uses the `mul_add` twiddle formula.
fn planned_butterflies(data: &mut [Complex64], tables: &FftTables, invert: bool) {
    #[cfg(target_arch = "x86_64")]
    if corrfade_linalg::kernel::vector_uses_fma() {
        // SAFETY: guarded by the kernel layer's runtime AVX2+FMA detection.
        unsafe { butterflies_avx2(data, tables, invert) };
        return;
    }
    butterflies_body::<false>(data, tables, invert);
}

/// In-place planned transform (vector backend): table-driven bit reversal +
/// butterflies, AVX2+FMA multiversioned on `x86_64`.
fn fft_planned_in_place(data: &mut [Complex64], invert: bool) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let tables = tables_for(n);
    planned_bit_reverse(data, &tables);
    planned_butterflies(data, &tables, invert);
}

/// In-place power-of-two transform on an explicit backend: the scalar
/// reference butterflies or the planned table-driven ones.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
fn fft_pow2_in_place(b: Backend, data: &mut [Complex64], invert: bool) {
    match b {
        Backend::Scalar => fft_radix2_in_place(data, invert),
        Backend::Vector => {
            assert!(
                is_power_of_two(data.len()),
                "radix-2 FFT requires a power-of-two length, got {}",
                data.len()
            );
            fft_planned_in_place(data, invert);
        }
    }
}

/// Precomputed, input-independent state of one Bluestein chirp-z transform:
/// the chirp sequence and the **forward FFT of the chirp filter** `bb`,
/// which the per-call convolution only ever reads. Built once per
/// `(n, direction, backend)` and shared through [`bluestein_plan`], so a
/// steady-state non-power-of-two transform performs no trigonometry and —
/// together with the thread-local work buffer — no heap allocation.
#[derive(Debug)]
struct BluesteinPlan {
    /// Padded power-of-two convolution length `(2n − 1).next_power_of_two()`.
    m: usize,
    /// `chirp[k] = exp(sign·iπ·k²/n)`.
    chirp: Vec<Complex64>,
    /// Forward FFT (on the owning backend) of the zero-padded filter
    /// `bb[k] = conj(chirp[k])`, `bb[m − k] = conj(chirp[k])`.
    b_fft: Vec<Complex64>,
}

impl BluesteinPlan {
    fn new(b: Backend, n: usize, invert: bool) -> Self {
        let sign = if invert { 1.0 } else { -1.0 };
        // Chirp: w[k] = exp(sign * i * pi * k^2 / n)
        let chirp: Vec<Complex64> = (0..n)
            .map(|k| {
                // k^2 mod 2n avoids precision loss for large k.
                let k2 = ((k as u128 * k as u128) % (2 * n as u128)) as f64;
                Complex64::cis(sign * core::f64::consts::PI * k2 / n as f64)
            })
            .collect();

        let m = (2 * n - 1).next_power_of_two();
        let mut b_fft = vec![Complex64::ZERO; m];
        for k in 0..n {
            b_fft[k] = chirp[k].conj();
        }
        for k in 1..n {
            b_fft[m - k] = chirp[k].conj();
        }
        fft_pow2_in_place(b, &mut b_fft, false);
        Self { m, chirp, b_fft }
    }
}

/// Process-wide Bluestein plan cache (a [`FactorCache`]), keyed by length,
/// direction and backend (the filter spectrum is computed through the
/// backend's own power-of-two core, so the two backends' plans differ in
/// the last bits).
fn bluestein_plan(b: Backend, n: usize, invert: bool) -> Arc<BluesteinPlan> {
    static CACHE: FactorCache<(usize, bool, Backend), BluesteinPlan> =
        FactorCache::new(PLAN_CACHE_CAPACITY);
    CACHE.get_or_insert_with((n, invert, b), || BluesteinPlan::new(b, n, invert))
}

std::thread_local! {
    /// Per-thread `m`-sized work buffer of the Bluestein convolution —
    /// reused across calls so warm non-power-of-two transforms are
    /// allocation-free (pinned by the `alloc_regression` suite).
    static BLUESTEIN_WORK: core::cell::RefCell<Vec<Complex64>> =
        const { core::cell::RefCell::new(Vec::new()) };
}

/// Bluestein chirp-z transform for arbitrary lengths, expressed through the
/// power-of-two core of the given backend. Overwrites `data` with the
/// (unscaled-by-`1/n`) transform. The chirp and filter spectrum come from
/// the process-wide plan cache and the `m`-sized work buffer is
/// thread-local, so the per-call arithmetic — and its floating-point
/// operation sequence, which is identical to the historical per-call
/// construction — is all that remains.
fn fft_bluestein_into(b: Backend, data: &mut [Complex64], invert: bool) {
    let n = data.len();
    let plan = bluestein_plan(b, n, invert);
    let m = plan.m;
    BLUESTEIN_WORK.with(|work| {
        let mut a = work.borrow_mut();
        a.clear();
        a.resize(m, Complex64::ZERO);
        for k in 0..n {
            a[k] = data[k] * plan.chirp[k];
        }
        fft_pow2_in_place(b, &mut a, false);
        for k in 0..m {
            a[k] *= plan.b_fft[k];
        }
        fft_pow2_in_place(b, &mut a, true);
        let scale = 1.0 / m as f64;
        for k in 0..n {
            data[k] = a[k].scale(scale) * plan.chirp[k];
        }
    });
}

/// Forward DFT `X[k] = Σ_l x[l]·e^{−i2πkl/N}` on the process-wide kernel
/// backend.
pub fn fft(input: &[Complex64]) -> Vec<Complex64> {
    let b = backend();
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let mut data = input.to_vec();
    if is_power_of_two(n) {
        fft_pow2_in_place(b, &mut data, false);
    } else {
        fft_bluestein_into(b, &mut data, false);
    }
    data
}

/// Inverse DFT `x[l] = (1/N)·Σ_k X[k]·e^{+i2πkl/N}` on the process-wide
/// kernel backend.
pub fn ifft(input: &[Complex64]) -> Vec<Complex64> {
    let b = backend();
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let mut out = input.to_vec();
    if is_power_of_two(n) {
        fft_pow2_in_place(b, &mut out, true);
    } else {
        fft_bluestein_into(b, &mut out, true);
    }
    let scale = 1.0 / n as f64;
    for z in out.iter_mut() {
        *z = z.scale(scale);
    }
    out
}

/// In-place inverse DFT: overwrites `data` with its inverse transform
/// (including the `1/N` factor), numerically identical to [`ifft`].
///
/// # Power-of-two vs. arbitrary lengths
///
/// For power-of-two lengths — the common case; the paper uses `M = 4096` —
/// the transform runs genuinely in place and performs **no steady-state
/// heap allocation** (the scalar backend allocates nothing at all; the
/// vector backend's twiddle tables are built once per size in a shared plan
/// cache and reused thereafter). This is what the streaming generation hot
/// path relies on.
///
/// Any other length falls back to the Bluestein chirp-z transform. Its
/// chirp and filter spectrum live in a process-wide plan cache (keyed by
/// length, direction and backend) and its convolution work buffer is
/// thread-local, so after the first transform of a given length **this path
/// is also steady-state allocation-free** — pinned, together with the
/// power-of-two path, by the `alloc_regression` suite. The fallback is
/// numerically identical to [`ifft`] and covered by
/// `ifft_in_place_matches_ifft` and the `bluestein_fallback_*` tests.
pub fn ifft_in_place(data: &mut [Complex64]) {
    ifft_in_place_with(backend(), data);
}

/// [`ifft_in_place`] on an explicit kernel backend — the entry point the
/// scalar-vs-vector equivalence tests and the `kernel_dispatch` benchmark
/// drive. Same allocation behavior as [`ifft_in_place`].
pub fn ifft_in_place_with(b: Backend, data: &mut [Complex64]) {
    let n = data.len();
    if n == 0 {
        return;
    }
    if is_power_of_two(n) {
        fft_pow2_in_place(b, data, true);
        let scale = 1.0 / n as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    } else {
        fft_bluestein_into(b, data, true);
        let scale = 1.0 / n as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }
}

/// Naive `O(N²)` forward DFT — reference implementation used by the tests to
/// validate the fast transforms.
pub fn dft_naive(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex64::ZERO;
            for (l, &x) in input.iter().enumerate() {
                let ang = -2.0 * core::f64::consts::PI * (k as f64) * (l as f64) / n as f64;
                acc += x * Complex64::cis(ang);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_linalg::c64;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                x.approx_eq(y, tol),
                "mismatch at index {i}: {x} vs {y} (tol {tol})"
            );
        }
    }

    fn test_signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                c64((0.3 * t).sin() + 0.1 * t.cos(), (0.7 * t).cos() - 0.05 * t)
            })
            .collect()
    }

    #[test]
    fn empty_and_single_point() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
        let one = vec![c64(3.0, -1.0)];
        assert_eq!(fft(&one), one);
        assert_eq!(ifft(&one), one);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        let spec = fft(&x);
        for &s in &spec {
            assert!(s.approx_eq(Complex64::ONE, 1e-12));
        }
    }

    #[test]
    fn constant_signal_concentrates_at_dc() {
        let x = vec![c64(2.0, 0.0); 16];
        let spec = fft(&x);
        assert!(spec[0].approx_eq(c64(32.0, 0.0), 1e-12));
        for &s in &spec[1..] {
            assert!(s.abs() < 1e-10);
        }
    }

    #[test]
    fn single_tone_lands_in_single_bin() {
        let n = 64;
        let bin = 5;
        let x: Vec<Complex64> = (0..n)
            .map(|l| Complex64::cis(2.0 * core::f64::consts::PI * bin as f64 * l as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (k, &s) in spec.iter().enumerate() {
            if k == bin {
                assert!(s.approx_eq(c64(n as f64, 0.0), 1e-9));
            } else {
                assert!(s.abs() < 1e-9, "leakage at bin {k}: {s}");
            }
        }
    }

    #[test]
    fn matches_naive_dft_power_of_two() {
        let x = test_signal(32);
        assert_close(&fft(&x), &dft_naive(&x), 1e-9);
    }

    #[test]
    fn matches_naive_dft_arbitrary_length() {
        for n in [3usize, 5, 6, 7, 12, 15, 17, 31, 60] {
            let x = test_signal(n);
            assert_close(&fft(&x), &dft_naive(&x), 1e-8);
        }
    }

    #[test]
    fn round_trip_power_of_two() {
        let x = test_signal(256);
        assert_close(&ifft(&fft(&x)), &x, 1e-10);
        assert_close(&fft(&ifft(&x)), &x, 1e-10);
    }

    #[test]
    fn round_trip_arbitrary_length() {
        for n in [7usize, 12, 100, 243] {
            let x = test_signal(n);
            assert_close(&ifft(&fft(&x)), &x, 1e-8);
        }
    }

    #[test]
    fn parseval_identity() {
        let x = test_signal(128);
        let spec = fft(&x);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn linearity() {
        let x = test_signal(64);
        let y: Vec<Complex64> = test_signal(64).iter().map(|z| z.conj()).collect();
        let alpha = c64(0.3, -1.2);
        let combined: Vec<Complex64> = x
            .iter()
            .zip(y.iter())
            .map(|(&a, &b)| a * alpha + b)
            .collect();
        let lhs = fft(&combined);
        let fx = fft(&x);
        let fy = fft(&y);
        let rhs: Vec<Complex64> = fx
            .iter()
            .zip(fy.iter())
            .map(|(&a, &b)| a * alpha + b)
            .collect();
        assert_close(&lhs, &rhs, 1e-9);
    }

    #[test]
    fn scalar_and_vector_backends_agree() {
        for n in [2usize, 8, 64, 1024] {
            let x = test_signal(n);
            let mut s = x.clone();
            let mut v = x.clone();
            fft_pow2_in_place(Backend::Scalar, &mut s, false);
            fft_pow2_in_place(Backend::Vector, &mut v, false);
            // Unnormalized forward spectra grow with the signal norm; the
            // ≤1e-12 contract is for unit-scale values.
            let peak = s.iter().map(|z| z.abs()).fold(1.0, f64::max);
            assert_close(&s, &v, 1e-12 * peak);

            let mut s = x.clone();
            let mut v = x;
            ifft_in_place_with(Backend::Scalar, &mut s);
            ifft_in_place_with(Backend::Vector, &mut v);
            assert_close(&s, &v, 1e-12);
        }
    }

    #[test]
    fn large_transform_round_trip() {
        // Same size as the paper's experiments (M = 4096).
        let x = test_signal(4096);
        let back = ifft(&fft(&x));
        let err: f64 = x
            .iter()
            .zip(back.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9, "max round-trip error {err}");
    }

    #[test]
    fn ifft_in_place_matches_ifft() {
        for n in [1usize, 8, 256, 12, 100] {
            let x = test_signal(n);
            let expected = ifft(&x);
            let mut data = x.clone();
            ifft_in_place(&mut data);
            // Power-of-two lengths share the exact code path, so the results
            // are bit-identical; Bluestein lengths go through the same
            // fallback and are too.
            assert_eq!(data, expected, "n = {n}");
        }
        let mut empty: Vec<Complex64> = Vec::new();
        ifft_in_place(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn bluestein_fallback_is_documented_behavior() {
        // Non-power-of-two lengths are legal for ifft_in_place: they
        // allocate internally (Bluestein) but still write the exact inverse
        // transform into the caller's buffer — on both backends, which must
        // agree with each other and with the O(N²) reference.
        for n in [3usize, 12, 100, 500] {
            let x = test_signal(n);
            let mut scalar = x.clone();
            ifft_in_place_with(Backend::Scalar, &mut scalar);
            let mut vector = x.clone();
            ifft_in_place_with(Backend::Vector, &mut vector);
            assert_close(&scalar, &vector, 1e-12);
            // Forward-transforming the inverse with the naive DFT recovers
            // the input.
            assert_close(&dft_naive(&scalar), &x, 1e-8 * n as f64);
        }
    }

    #[test]
    fn power_of_two_detection() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(4096));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(3000));
    }
}
