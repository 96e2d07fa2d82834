//! Coverage of the scalar-vs-vector FFT backend equivalence: the scalar
//! radix-2 butterflies and the vector backend's radix-4 Stockham transform
//! agree to ≤ 1e-12 for unit-scale inputs on power-of-two and Bluestein
//! lengths, in both directions, and both agree with the naive DFT.

use corrfade_dsp::{dft_naive, fft, ifft_in_place_with, DopplerFilter, IdftRayleighGenerator};
use corrfade_linalg::kernel::Backend;
use corrfade_linalg::{c64, Complex64};
use proptest::prelude::*;

fn cvec(len: usize) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), len)
        .prop_map(|v| v.into_iter().map(|(re, im)| c64(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scalar and vector inverse transforms agree on arbitrary lengths
    /// (powers of two hit the Stockham transform, the rest the Bluestein
    /// fallback built on it).
    #[test]
    fn ifft_backends_agree(len in 1usize..520, entries in cvec(520)) {
        let x = &entries[..len];
        let mut s = x.to_vec();
        let mut v = x.to_vec();
        ifft_in_place_with(Backend::Scalar, &mut s);
        ifft_in_place_with(Backend::Vector, &mut v);
        for (i, (&a, &b)) in s.iter().zip(v.iter()).enumerate() {
            prop_assert!(a.approx_eq(b, 1e-12), "len={len} index {i}: {a} vs {b}");
        }
    }
}

/// Unit-scale test signal of length `n` (a fixed pseudo-random walk, so no
/// RNG crate is needed).
fn signal(n: usize, seed: u64) -> Vec<Complex64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    (0..n).map(|_| c64(next(), next())).collect()
}

/// The forward transform on an explicit backend, through its inverse:
/// `X = n·conj(IDFT(conj x))`.
fn forward_with(b: Backend, x: &[Complex64]) -> Vec<Complex64> {
    let mut y: Vec<Complex64> = x.iter().map(|z| z.conj()).collect();
    ifft_in_place_with(b, &mut y);
    y.iter().map(|z| z.conj().scale(x.len() as f64)).collect()
}

/// Bin `k` of the naive forward DFT — the sum `dft_naive` evaluates, for
/// sizes where evaluating every bin is too slow for a debug build.
fn naive_bin(x: &[Complex64], k: usize) -> Complex64 {
    let n = x.len();
    x.iter().enumerate().fold(Complex64::ZERO, |acc, (l, &v)| {
        let ang = -2.0 * core::f64::consts::PI * (k as f64) * (l as f64) / n as f64;
        acc + v * Complex64::cis(ang)
    })
}

/// Largest `|a − b|/scale` over two sequences.
fn max_gap(a: &[Complex64], b: &[Complex64], scale: f64) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs() / scale)
        .fold(0.0, f64::max)
}

/// Backend agreement bound for unit-scale values.
const BACKEND_TOL: f64 = 1e-12;
/// Bound against the naive DFT, whose own error grows with `n` (≈ 5e-14
/// at 4096).
const NAIVE_TOL: f64 = 1e-10;

/// Checks both directions of the vector transform of `x` against the
/// scalar backend and the naive DFT (every bin when `all_bins`, else every
/// 61st), all on the unit scale (forward spectra divided by `n`).
fn check_both_directions(x: &[Complex64], all_bins: bool) {
    let n = x.len();
    let nf = n as f64;
    let conj: Vec<Complex64> = x.iter().map(|z| z.conj()).collect();

    let mut inverse = x.to_vec();
    ifft_in_place_with(Backend::Vector, &mut inverse);
    let mut scalar = x.to_vec();
    ifft_in_place_with(Backend::Scalar, &mut scalar);
    let gap = max_gap(&inverse, &scalar, 1.0);
    assert!(
        gap <= BACKEND_TOL,
        "n = {n}: inverse off scalar by {gap:.2e}"
    );

    let forward = fft(x);
    let gap = max_gap(&forward, &forward_with(Backend::Scalar, x), nf);
    assert!(
        gap <= BACKEND_TOL,
        "n = {n}: forward off scalar by {gap:.2e}"
    );
    let gap = max_gap(&forward, &forward_with(Backend::Vector, x), nf);
    assert!(
        gap <= BACKEND_TOL,
        "n = {n}: forward off the conjugated inverse by {gap:.2e}"
    );

    // The inverse is conj(DFT(conj x))/n.
    let bins: Vec<usize> = if all_bins {
        (0..n).collect()
    } else {
        (0..n).step_by(61).collect()
    };
    let (naive_f, naive_i): (Vec<Complex64>, Vec<Complex64>) = if all_bins {
        let f = dft_naive(x);
        let i = dft_naive(&conj)
            .iter()
            .map(|z| z.conj().scale(1.0 / nf))
            .collect();
        (f, i)
    } else {
        bins.iter()
            .map(|&k| (naive_bin(x, k), naive_bin(&conj, k).conj().scale(1.0 / nf)))
            .unzip()
    };
    let pick = |v: &[Complex64]| -> Vec<Complex64> { bins.iter().map(|&k| v[k]).collect() };
    let gap = max_gap(&pick(&forward), &naive_f, nf);
    assert!(
        gap <= NAIVE_TOL,
        "n = {n}: forward off the naive DFT by {gap:.2e}"
    );
    let gap = max_gap(&pick(&inverse), &naive_i, 1.0);
    assert!(
        gap <= NAIVE_TOL,
        "n = {n}: inverse off the naive DFT by {gap:.2e}"
    );
}

/// Every power of two from 2 to 2¹⁴: odd log₂ n runs the radix-2 last
/// stage, even log₂ n the radix-4 one.
#[test]
fn every_power_of_two_agrees_with_scalar_and_the_naive_dft() {
    for log in 1..=14 {
        let n = 1usize << log;
        check_both_directions(&signal(n, log), n <= 4096);
    }
}

/// Bluestein lengths run the Stockham transform for their power-of-two
/// convolution.
#[test]
fn bluestein_lengths_agree_with_scalar_and_the_naive_dft() {
    for n in [3usize, 5, 6, 12, 100, 243, 1000, 4000] {
        check_both_directions(&signal(n, n as u64), n <= 1000);
    }
}

/// Doppler-sparse spectra (at `f_m = 0.05` about 90 % of the bins are
/// signed zeros) at every `M` the library streams give finite inverse
/// transforms that agree with the scalar backend.
#[test]
fn doppler_sparse_spectra_give_finite_output_on_both_backends() {
    for m in [128usize, 256, 1024, 2048, 4096] {
        let gen = IdftRayleighGenerator::new(DopplerFilter::new(m, 0.05).unwrap(), 0.5).unwrap();
        let mut spectrum = vec![Complex64::ZERO; m];
        gen.fill_spectrum_into(&mut corrfade_randn::RandomStream::new(7), &mut spectrum);
        let zeros = spectrum.iter().filter(|z| *z == &Complex64::ZERO).count();
        assert!(zeros * 10 >= m * 8, "M = {m}: only {zeros} zero bins");
        let mut vector = spectrum.clone();
        ifft_in_place_with(Backend::Vector, &mut vector);
        let mut scalar = spectrum;
        ifft_in_place_with(Backend::Scalar, &mut scalar);
        assert!(vector.iter().all(|z| z.re.is_finite() && z.im.is_finite()));
        // The spectrum's scale is σ_orig·F[k], well above unit scale.
        let peak = scalar.iter().map(|z| z.abs()).fold(1.0, f64::max);
        let gap = max_gap(&vector, &scalar, peak);
        assert!(
            gap <= BACKEND_TOL,
            "M = {m}: vector off scalar by {gap:.2e}"
        );
    }
}

/// The Bluestein convolution holds its work buffer while it runs the
/// power-of-two transform, which borrows its own ping-pong buffer: mixing
/// lengths on one thread, and starting on a fresh thread with a Bluestein
/// length, must never find a thread-local already borrowed.
#[test]
fn bluestein_and_stockham_buffers_are_never_borrowed_twice() {
    let run = || {
        for n in [100usize, 4096, 3, 2048, 4000, 64, 100] {
            let mut x = signal(n, 1);
            ifft_in_place_with(Backend::Vector, &mut x);
            let back = fft(&x);
            assert!(max_gap(&back, &signal(n, 1), 1.0) < 1e-9, "n = {n}");
        }
    };
    std::thread::spawn(run).join().unwrap();
    run();
}
