//! Discrete Fourier transforms.
//!
//! The Young–Beaulieu Rayleigh generator (paper ref. \[7\], used by the
//! real-time algorithm of Sec. 5) produces each fading sequence as an
//! `M`-point **inverse** DFT of Doppler-filtered complex Gaussian spectra,
//! with `M = 4096` in the paper's experiments. Every power-of-two length
//! has a fast transform on each kernel backend; Bluestein's chirp-z
//! algorithm (built on that power-of-two core) covers arbitrary lengths so
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
//! * the **scalar** backend runs the original iterative radix-2
//!   Cooley–Tukey butterflies after a bit-reversal pass (twiddles advanced
//!   by repeated multiplication) and is bit-exact with every pre-kernel
//!   release;
//! * the **vector** backend runs a self-sorting radix-4 **Stockham**
//!   transform: each stage reads one buffer and writes the other, in the
//!   order the next stage reads, so there is no bit-reversal pass. The
//!   second buffer is thread-local and the per-stage twiddles `w, w², w³`
//!   come from a per-size plan in a process-wide cache, so steady-state
//!   calls allocate nothing. A radix-2 last stage covers odd `log₂ M`. On
//!   `x86_64` with AVX2+FMA the stages run as intrinsics, two complex
//!   values per register; elsewhere a portable body does the same
//!   arithmetic without FMA.
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
// Radix-4 Stockham transform — the vector backend
// ---------------------------------------------------------------------------
//
// Stage `t` of an `n`-point transform works on `s = 4^t` interleaved
// sub-sequences of length `len = n/s`. Butterfly `(p, k)` (`p < q = len/4`,
// `k < s`) reads `x[k + s·(p + m·q)]` for `m = 0..3` and writes the
// twiddled radix-4 outputs to `y[k + s·(4p + r)]`, `r = 0..3` — a
// decimation-in-frequency step whose output is already in the order the
// next stage reads, so the transform ends in natural order with no
// bit-reversal pass. Stages ping-pong between the caller's buffer and a
// thread-local second buffer. The last stage (length 4, or length 2 when
// log₂ n is odd) has only the twiddle 1: it reads and writes the same four
// (two) positions, so it always runs into the caller's buffer, in place
// when the data is already there, and it carries the output scale.

/// Twiddles of one power-of-two size. `stages[t]` serves the stage whose
/// sub-sequences have length `len = n/4^t`: `[w¹ | w² | w³]`, each run
/// `len/4` long, `wᵏ[p] = cis(−2π·k·p/len)` (the inverse conjugates them).
/// The last stage needs no table.
#[derive(Debug)]
struct StockhamPlan {
    stages: Vec<Vec<Complex64>>,
}

impl StockhamPlan {
    fn new(n: usize) -> Self {
        debug_assert!(is_power_of_two(n));
        let mut stages = Vec::new();
        let mut len = n;
        while len > 4 {
            let q = len / 4;
            let stage = (1..=3)
                .flat_map(|k| {
                    (0..q).map(move |p| {
                        Complex64::cis(-2.0 * core::f64::consts::PI * (k * p) as f64 / len as f64)
                    })
                })
                .collect();
            stages.push(stage);
            len = q;
        }
        Self { stages }
    }
}

/// Process-wide plan cache: twiddles are built once per size and shared, so
/// steady-state transforms perform no heap allocation. A warm lookup is one
/// [`FactorCache`] hit.
fn stockham_plan(n: usize) -> Arc<StockhamPlan> {
    static CACHE: FactorCache<usize, StockhamPlan> = FactorCache::new(PLAN_CACHE_CAPACITY);
    CACHE.get_or_insert_with(n, || StockhamPlan::new(n))
}

std::thread_local! {
    /// Per-thread second buffer of the Stockham ping-pong, grown to the
    /// largest size transformed and reused, so warm transforms allocate
    /// nothing. Separate from `BLUESTEIN_WORK`, whose borrow is held while
    /// the Bluestein convolution runs this transform.
    static STOCKHAM_WORK: core::cell::RefCell<Vec<Complex64>> =
        const { core::cell::RefCell::new(Vec::new()) };
}

/// `w·z`; with `FMA` each part is one fused multiply-add, the arithmetic of
/// the AVX2 body's `fmaddsub`.
#[inline(always)]
fn twiddle<const FMA: bool>(z: Complex64, w: Complex64) -> Complex64 {
    if FMA {
        Complex64::new(
            z.re.mul_add(w.re, -(z.im * w.im)),
            z.im.mul_add(w.re, z.re * w.im),
        )
    } else {
        Complex64::new(z.re * w.re - z.im * w.im, z.im * w.re + z.re * w.im)
    }
}

/// The untwiddled radix-4 butterfly. `jb` is `i·(b − d)` forward and
/// `−i·(b − d)` inverse.
#[inline(always)]
fn butterfly4(v: [Complex64; 4], inverse: bool) -> [Complex64; 4] {
    let [a, b, c, d] = v;
    let (apc, amc, bpd, bmd) = (a + c, a - c, b + d, b - d);
    let jb = if inverse {
        Complex64::new(bmd.im, -bmd.re)
    } else {
        Complex64::new(-bmd.im, bmd.re)
    };
    [apc + bpd, amc - jb, apc - bpd, amc + jb]
}

/// One twiddled radix-4 stage, `x` → `y`, at sub-sequence count `s`.
fn stage4_portable<const FMA: bool>(
    x: &[Complex64],
    y: &mut [Complex64],
    s: usize,
    tw: &[Complex64],
    inverse: bool,
) {
    let q = x.len() / (4 * s);
    for p in 0..q {
        let w = [tw[p], tw[q + p], tw[2 * q + p]].map(|w| if inverse { w.conj() } else { w });
        for k in 0..s {
            let v = [0, 1, 2, 3].map(|m| x[k + s * (p + m * q)]);
            let [y0, y1, y2, y3] = butterfly4(v, inverse);
            y[k + s * 4 * p] = y0;
            y[k + s * (4 * p + 1)] = twiddle::<FMA>(y1, w[0]);
            y[k + s * (4 * p + 2)] = twiddle::<FMA>(y2, w[1]);
            y[k + s * (4 * p + 3)] = twiddle::<FMA>(y3, w[2]);
        }
    }
}

/// The last stage, untwiddled and scaled: radix 4 at `s = len/4`, or
/// radix 2 at `s = len/2`. Reads `x` (or `y` itself when `x` is `None`)
/// and writes the same positions of `y`.
fn last_stage_portable(
    x: Option<&[Complex64]>,
    y: &mut [Complex64],
    radix: usize,
    scale: f64,
    inverse: bool,
) {
    let s = y.len() / radix;
    for k in 0..s {
        let read = |i: usize| x.map_or(y[i], |x| x[i]);
        if radix == 4 {
            let v = [0, 1, 2, 3].map(|m| read(k + m * s));
            for (r, z) in butterfly4(v, inverse).into_iter().enumerate() {
                y[k + r * s] = z.scale(scale);
            }
        } else {
            let (a, b) = (read(k), read(k + s));
            y[k] = (a + b).scale(scale);
            y[k + s] = (a - b).scale(scale);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The Stockham stages with AVX2+FMA intrinsics, two complex values per
    //! register; the arithmetic of `stage4_portable::<true>` and
    //! `last_stage_portable` operation for operation.

    use core::arch::x86_64::*;

    use corrfade_linalg::Complex64;

    /// Sign masks: `rot` turns `b − d` (swapped) into `jb`, `conj`
    /// conjugates the forward twiddles for the inverse.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn masks(inverse: bool) -> (__m256d, __m256d) {
        if inverse {
            let m = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
            (m, m)
        } else {
            (_mm256_setr_pd(-0.0, 0.0, -0.0, 0.0), _mm256_setzero_pd())
        }
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn butterfly4(a: __m256d, b: __m256d, c: __m256d, d: __m256d, rot: __m256d) -> [__m256d; 4] {
        let (apc, amc) = (_mm256_add_pd(a, c), _mm256_sub_pd(a, c));
        let (bpd, bmd) = (_mm256_add_pd(b, d), _mm256_sub_pd(b, d));
        let jb = _mm256_xor_pd(_mm256_permute_pd::<0b0101>(bmd), rot);
        [
            _mm256_add_pd(apc, bpd),
            _mm256_sub_pd(amc, jb),
            _mm256_sub_pd(apc, bpd),
            _mm256_add_pd(amc, jb),
        ]
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn twiddle(z: __m256d, w: __m256d) -> __m256d {
        let zs = _mm256_permute_pd::<0b0101>(z);
        let wi = _mm256_permute_pd::<0b1111>(w);
        _mm256_fmaddsub_pd(z, _mm256_movedup_pd(w), _mm256_mul_pd(zs, wi))
    }

    /// Loads the complex values `i` and `i + 1`.
    ///
    /// # Safety
    /// `p.add(i + 1)` must point into the same allocation as `p`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn load(p: *const Complex64, i: usize) -> __m256d {
        unsafe { _mm256_loadu_pd(p.add(i).cast()) }
    }

    /// Stores `v` into the complex values `i` and `i + 1`.
    ///
    /// # Safety
    /// As for [`load`], and the memory must be writable.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn store(p: *mut Complex64, i: usize, v: __m256d) {
        unsafe { _mm256_storeu_pd(p.add(i).cast(), v) }
    }

    /// `[w, w]` from complex value `i`.
    ///
    /// # Safety
    /// `p.add(i)` must point into the same allocation as `p`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn splat(p: *const Complex64, i: usize) -> __m256d {
        unsafe { _mm256_broadcast_pd(&_mm_loadu_pd(p.add(i).cast())) }
    }

    /// One twiddled radix-4 stage, `x` → `y`. At `s = 1` a register holds
    /// butterflies `p` and `p + 1`; otherwise it holds `k` and `k + 1`.
    ///
    /// # Safety
    /// The CPU must have AVX2 and FMA; `x` and `y` must have the same
    /// length `4·s·q` with `q ≥ 2` a power of two, `s` a power of two, and
    /// `tw.len() = 3·q`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn stage4(
        x: &[Complex64],
        y: &mut [Complex64],
        s: usize,
        tw: &[Complex64],
        inverse: bool,
    ) {
        let q = x.len() / (4 * s);
        assert!(
            x.len() == 4 * s * q && y.len() == x.len() && tw.len() == 3 * q && q.is_multiple_of(2),
            "Stockham stage geometry"
        );
        let (rot, conj) = masks(inverse);
        let (xp, yp, wp) = (x.as_ptr(), y.as_mut_ptr(), tw.as_ptr());
        // SAFETY: every index below is < x.len() = y.len() (resp.
        // tw.len()) by the stage geometry checked above.
        unsafe {
            if s == 1 {
                for p in (0..q).step_by(2) {
                    let w = [p, q + p, 2 * q + p].map(|i| _mm256_xor_pd(load(wp, i), conj));
                    let [y0, y1, y2, y3] = butterfly4(
                        load(xp, p),
                        load(xp, p + q),
                        load(xp, p + 2 * q),
                        load(xp, p + 3 * q),
                        rot,
                    );
                    let (y1, y2, y3) = (twiddle(y1, w[0]), twiddle(y2, w[1]), twiddle(y3, w[2]));
                    store(yp, 4 * p, _mm256_permute2f128_pd::<0x20>(y0, y1));
                    store(yp, 4 * p + 2, _mm256_permute2f128_pd::<0x20>(y2, y3));
                    store(yp, 4 * p + 4, _mm256_permute2f128_pd::<0x31>(y0, y1));
                    store(yp, 4 * p + 6, _mm256_permute2f128_pd::<0x31>(y2, y3));
                }
            } else {
                assert!(s.is_multiple_of(2), "Stockham stage geometry");
                for p in 0..q {
                    let w = [p, q + p, 2 * q + p].map(|i| _mm256_xor_pd(splat(wp, i), conj));
                    let (src, dst) = (s * p, 4 * s * p);
                    for k in (0..s).step_by(2) {
                        let i = src + k;
                        let [y0, y1, y2, y3] = butterfly4(
                            load(xp, i),
                            load(xp, i + s * q),
                            load(xp, i + 2 * s * q),
                            load(xp, i + 3 * s * q),
                            rot,
                        );
                        let o = dst + k;
                        store(yp, o, y0);
                        store(yp, o + s, twiddle(y1, w[0]));
                        store(yp, o + 2 * s, twiddle(y2, w[1]));
                        store(yp, o + 3 * s, twiddle(y3, w[2]));
                    }
                }
            }
        }
    }

    /// The untwiddled, scaled last stage. `x` may equal `y`: each
    /// butterfly loads all its inputs before it stores.
    ///
    /// # Safety
    /// The CPU must have AVX2 and FMA; `x` and `y` must each cover `n`
    /// values (or be the same pointer), `radix` must be 2 or 4 and
    /// `n/radix` an even power of two.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn last_stage(
        x: *const Complex64,
        y: *mut Complex64,
        n: usize,
        radix: usize,
        scale: f64,
        inverse: bool,
    ) {
        let s = n / radix;
        assert!(
            n == s * radix && s.is_multiple_of(2),
            "Stockham last-stage geometry"
        );
        let (rot, _) = masks(inverse);
        let scale = _mm256_set1_pd(scale);
        // SAFETY: the caller passes two buffers of `n` values (or one
        // twice); every index is < n.
        unsafe {
            for k in (0..s).step_by(2) {
                if radix == 4 {
                    let v = butterfly4(
                        load(x, k),
                        load(x, k + s),
                        load(x, k + 2 * s),
                        load(x, k + 3 * s),
                        rot,
                    );
                    for (r, z) in v.into_iter().enumerate() {
                        store(y, k + r * s, _mm256_mul_pd(z, scale));
                    }
                } else {
                    let (a, b) = (load(x, k), load(x, k + s));
                    store(y, k, _mm256_mul_pd(_mm256_add_pd(a, b), scale));
                    store(y, k + s, _mm256_mul_pd(_mm256_sub_pd(a, b), scale));
                }
            }
        }
    }
}

/// One twiddled stage on the body this CPU runs.
fn stage4(x: &[Complex64], y: &mut [Complex64], s: usize, tw: &[Complex64], inverse: bool) {
    #[cfg(target_arch = "x86_64")]
    if corrfade_linalg::kernel::vector_uses_fma() {
        // SAFETY: AVX2+FMA detected; the stage asserts its geometry.
        unsafe { avx2::stage4(x, y, s, tw, inverse) };
        return;
    }
    stage4_portable::<false>(x, y, s, tw, inverse);
}

/// The last stage on the body this CPU runs, into `y` (from `x`, or in
/// place when `x` is `None`).
fn last_stage(
    x: Option<&[Complex64]>,
    y: &mut [Complex64],
    radix: usize,
    scale: f64,
    inverse: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if corrfade_linalg::kernel::vector_uses_fma() && y.len() / radix > 1 {
        let n = y.len();
        assert!(
            x.is_none_or(|x| x.len() == n),
            "Stockham last-stage buffers"
        );
        let yp = y.as_mut_ptr();
        let xp = x.map_or(yp.cast_const(), <[Complex64]>::as_ptr);
        // SAFETY: AVX2+FMA detected; both pointers cover `n` values, and
        // the stage asserts that `n/radix` is even.
        unsafe { avx2::last_stage(xp, yp, n, radix, scale, inverse) };
        return;
    }
    last_stage_portable(x, y, radix, scale, inverse);
}

/// Stockham transform of a power-of-two length on the vector backend,
/// every output multiplied by `scale` (an exact power of two for the
/// inverse's `1/n`, folded into the last stage). The input is in `x`; the
/// stages ping-pong between `x` and `y`, and the output lands in `y` when
/// `into_y`, back in `x` otherwise. The other buffer is clobbered.
fn stockham(x: &mut [Complex64], y: &mut [Complex64], into_y: bool, inverse: bool, scale: f64) {
    let n = x.len();
    debug_assert!(is_power_of_two(n) && y.len() == n);
    if n == 1 {
        let z = x[0].scale(scale);
        if into_y {
            y[0] = z
        } else {
            x[0] = z
        }
        return;
    }
    let plan = stockham_plan(n);
    let mut s = 1;
    let mut in_y = false;
    for tw in &plan.stages {
        if in_y {
            stage4(y, x, s, tw, inverse);
        } else {
            stage4(x, y, s, tw, inverse);
        }
        in_y = !in_y;
        s *= 4;
    }
    let radix = n / s;
    match (into_y, in_y) {
        (true, true) => last_stage(None, y, radix, scale, inverse),
        (true, false) => last_stage(Some(x), y, radix, scale, inverse),
        (false, true) => last_stage(Some(y), x, radix, scale, inverse),
        (false, false) => last_stage(None, x, radix, scale, inverse),
    }
}

/// In-place [`stockham`] transform, with the thread-local second buffer.
fn stockham_in_place(data: &mut [Complex64], inverse: bool, scale: f64) {
    let n = data.len();
    STOCKHAM_WORK.with(|work| {
        let mut work = work.borrow_mut();
        if work.len() < n {
            work.resize(n, Complex64::ZERO);
        }
        stockham(data, &mut work[..n], false, inverse, scale);
    });
}

/// In-place power-of-two transform on an explicit backend: the scalar
/// reference butterflies or the Stockham transform.
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
fn fft_pow2_in_place(b: Backend, data: &mut [Complex64], invert: bool) {
    match b {
        Backend::Scalar => fft_radix2_in_place(data, invert),
        Backend::Vector => {
            assert!(
                is_power_of_two(data.len()),
                "power-of-two FFT requires a power-of-two length, got {}",
                data.len()
            );
            stockham_in_place(data, invert, 1.0);
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
    let mut out = input.to_vec();
    ifft_in_place(&mut out);
    out
}

/// In-place inverse DFT: overwrites `data` with its inverse transform
/// (including the `1/N` factor), numerically identical to [`ifft`].
///
/// # Power-of-two vs. arbitrary lengths
///
/// For power-of-two lengths — the common case; the paper uses `M = 4096` —
/// the result lands in `data` and the transform performs **no
/// steady-state heap allocation**: the scalar backend's radix-2 butterflies
/// run in place, and the vector backend's radix-4 Stockham stages
/// ping-pong between `data` and a thread-local second buffer (grown once
/// to the largest size a thread transforms) with twiddles from a shared
/// per-size plan. The vector backend has no bit-reversal pass, and its
/// exact power-of-two `1/N` folds into the last stage. (The realtime
/// block transform of the vector backend runs the same stages between the
/// spectrum row and the output row instead, without the second buffer.)
///
/// Any other length falls back to the Bluestein chirp-z transform. Its
/// chirp and filter spectrum live in a process-wide plan cache (keyed by
/// length, direction and backend) and its convolution work buffer is
/// thread-local, so after the first transform of a given length **this path
/// is also steady-state allocation-free** — pinned, together with the
/// power-of-two path, by the `alloc_regression` suite. The fallback is
/// numerically identical to [`ifft`] and covered by
/// `ifft_in_place_matches_ifft` and the `bluestein_fallback_*` tests.
pub(crate) fn ifft_in_place(data: &mut [Complex64]) {
    ifft_in_place_with(backend(), data);
}

/// In-place inverse DFT on an explicit kernel backend — the entry point the
/// scalar-vs-vector equivalence tests and the `kernel_dispatch` benchmark
/// drive; the library calls it with the process-wide backend.
pub fn ifft_in_place_with(b: Backend, data: &mut [Complex64]) {
    let n = data.len();
    if n == 0 {
        return;
    }
    let scale = 1.0 / n as f64;
    match b {
        // `1/n` is an exact power of two: folding it into the last stage
        // rounds exactly as a separate pass would.
        Backend::Vector if is_power_of_two(n) => return stockham_in_place(data, true, scale),
        _ if is_power_of_two(n) => fft_pow2_in_place(b, data, true),
        _ => fft_bluestein_into(b, data, true),
    }
    for z in data.iter_mut() {
        *z = z.scale(scale);
    }
}

/// The vector backend's inverse DFT of `src` into `dst`: the values of
/// [`ifft_in_place_with`]`(Backend::Vector, src)`, bit for bit, written to
/// `dst`. **`src` is clobbered.** For a power-of-two length the Stockham
/// stages ping-pong between `src` and `dst` and end in `dst`, so the
/// transform needs neither the thread-local second buffer nor a copy; any
/// other length transforms `src` in place (Bluestein) and copies it.
///
/// # Panics
/// Panics if the slices have different lengths.
pub(crate) fn ifft_vector_into(src: &mut [Complex64], dst: &mut [Complex64]) {
    let n = src.len();
    assert_eq!(n, dst.len(), "ifft_vector_into: length mismatch");
    if is_power_of_two(n) {
        stockham(src, dst, true, true, 1.0 / n as f64);
    } else {
        ifft_in_place_with(Backend::Vector, src);
        dst.copy_from_slice(src);
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

    fn assert_bits(a: &[Complex64], b: &[Complex64], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: index {i}: {x:?} vs {y:?}"
            );
        }
    }

    /// A test signal with exact zeros of both signs mixed in.
    fn signal_with_signed_zeros(n: usize) -> Vec<Complex64> {
        let mut x = test_signal(n);
        for (i, z) in x.iter_mut().enumerate().filter(|(i, _)| i % 5 < 2) {
            let zero = if i % 2 == 0 { 0.0 } else { -0.0 };
            *z = if i % 3 == 0 {
                c64(zero, -zero)
            } else {
                c64(zero, z.im)
            };
        }
        x
    }

    /// The AVX2 stage bodies do the portable FMA body's arithmetic,
    /// operation for operation: every stage of every size, both directions,
    /// and the last stage out of place and in place.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_stages_match_the_portable_fma_body_bit_for_bit() {
        if !corrfade_linalg::kernel::vector_uses_fma() {
            return;
        }
        for n in [8usize, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
            let plan = StockhamPlan::new(n);
            let x = signal_with_signed_zeros(n);
            let mut s = 1;
            for tw in &plan.stages {
                for inverse in [false, true] {
                    let (mut fast, mut portable) =
                        (vec![Complex64::ZERO; n], vec![Complex64::ZERO; n]);
                    // SAFETY: AVX2+FMA detected above.
                    unsafe { avx2::stage4(&x, &mut fast, s, tw, inverse) };
                    stage4_portable::<true>(&x, &mut portable, s, tw, inverse);
                    assert_bits(
                        &fast,
                        &portable,
                        &format!("n = {n}, s = {s}, inverse = {inverse}"),
                    );
                }
                s *= 4;
            }
            let radix = n / s;
            for inverse in [false, true] {
                for scale in [1.0, 1.0 / n as f64] {
                    let what = format!("last stage, n = {n}, inverse = {inverse}, scale = {scale}");
                    let mut portable = vec![Complex64::ZERO; n];
                    last_stage_portable(Some(&x), &mut portable, radix, scale, inverse);
                    let mut fast = vec![Complex64::ZERO; n];
                    // SAFETY: AVX2+FMA detected; both buffers hold n values.
                    unsafe {
                        avx2::last_stage(x.as_ptr(), fast.as_mut_ptr(), n, radix, scale, inverse)
                    };
                    assert_bits(&fast, &portable, &what);
                    let mut in_place = x.clone();
                    let p = in_place.as_mut_ptr();
                    // SAFETY: as above, reading and writing one buffer.
                    unsafe { avx2::last_stage(p, p, n, radix, scale, inverse) };
                    assert_bits(&in_place, &portable, &what);
                    let mut in_place = x.clone();
                    last_stage_portable(None, &mut in_place, radix, scale, inverse);
                    assert_bits(&in_place, &portable, &what);
                }
            }
        }
    }

    /// The portable bodies without FMA — what a CPU without AVX2+FMA runs —
    /// agree with the scalar backend in both directions.
    #[test]
    fn portable_stages_agree_with_the_scalar_backend() {
        for log in 1..=12 {
            let n = 1usize << log;
            let plan = StockhamPlan::new(n);
            for inverse in [false, true] {
                let (mut x, mut y) = (signal_with_signed_zeros(n), vec![Complex64::ZERO; n]);
                let mut s = 1;
                for tw in &plan.stages {
                    stage4_portable::<false>(&x, &mut y, s, tw, inverse);
                    std::mem::swap(&mut x, &mut y);
                    s *= 4;
                }
                last_stage_portable(None, &mut x, n / s, 1.0, inverse);
                let mut reference = signal_with_signed_zeros(n);
                fft_radix2_in_place(&mut reference, inverse);
                let peak = reference.iter().map(|z| z.abs()).fold(1.0, f64::max);
                assert_close(&x, &reference, 1e-12 * peak);
            }
        }
    }

    /// Folding the inverse's `1/M` into the last stage rounds exactly as a
    /// separate scaling pass, on Doppler-sparse spectra whose stop band is
    /// signed zeros, at every `M` the library streams.
    #[test]
    fn folded_inverse_scale_matches_a_separate_pass_bit_for_bit() {
        use crate::doppler::{DopplerFilter, IdftRayleighGenerator};
        for m in [128usize, 256, 1024, 2048, 4096] {
            let gen =
                IdftRayleighGenerator::new(DopplerFilter::new(m, 0.05).unwrap(), 0.5).unwrap();
            let mut spectrum = vec![Complex64::ZERO; m];
            gen.fill_spectrum_into(
                &mut corrfade_randn::RandomStream::new(m as u64),
                &mut spectrum,
            );
            for sign in [0.0f64, -0.0] {
                assert!(
                    spectrum.iter().any(|z| z.re.to_bits() == sign.to_bits()),
                    "M = {m}: no {sign:?} bin"
                );
            }
            let scale = 1.0 / m as f64;
            let mut folded = spectrum.clone();
            stockham_in_place(&mut folded, true, scale);
            let mut separate = spectrum;
            stockham_in_place(&mut separate, true, 1.0);
            for z in &mut separate {
                *z = z.scale(scale);
            }
            assert!(folded.iter().all(|z| z.re.is_finite() && z.im.is_finite()));
            assert_bits(&folded, &separate, &format!("M = {m}"));
        }
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
    fn vector_transform_into_a_second_buffer_matches_in_place_bit_for_bit() {
        for n in [0usize, 1, 2, 4, 8, 16, 32, 2048, 4096, 12, 1000] {
            let x = signal_with_signed_zeros(n);
            let mut expected = x.clone();
            ifft_in_place_with(Backend::Vector, &mut expected);
            let mut src = x;
            let mut dst = vec![Complex64::new(f64::NAN, f64::NAN); n];
            ifft_vector_into(&mut src, &mut dst);
            assert_bits(&dst, &expected, &format!("n = {n}"));
        }
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
