//! The vectorized kernel backend.
//!
//! All routines are written as fixed-width lane loops over contiguous `f64`
//! data (split-complex planes, or interleaved pairs with per-lane
//! accumulators) that LLVM autovectorizes on every supported ISA. On
//! `x86_64` the inner loops are compiled a second time as AVX2+FMA
//! multiversions (`#[target_feature]` over a shared `#[inline(always)]`
//! body) and selected once per process by runtime CPU-feature detection —
//! the `f64::mul_add` calls in the FMA bodies become single `vfmadd`
//! instructions there, while the generic bodies stick to mul+add so they
//! never fall back to a libm `fma` call on hardware without the
//! instruction.
//!
//! The one exception is the coloring matvec of single-instant generation
//! (4096 calls of a 16 × 16 matvec per `snapshot-n16` block): on AVX2+FMA
//! CPUs its whole row loop is one `core::arch` intrinsic kernel over the
//! interleaved layout, doing per lane exactly the arithmetic of the FMA
//! lane body (same FMAs, same sign flip, same `(l0 + l1) + (l2 + l3)`
//! reduction and non-fused tail), so its output is bit for bit that of the
//! lane loop it replaced.
//!
//! Nothing here is bit-compatible with the scalar backend (summation orders
//! differ); the contract is agreement to ≤ 1e-12 for unit-scale data,
//! enforced by the `kernel_proptest` suite.

use std::sync::OnceLock;

use crate::complex::{c64, Complex64};

/// Lane width of the reduction kernels: wide enough to fill one AVX2
/// register per accumulator array and to give NEON a 2×-unrolled pair.
const LANES: usize = 4;

/// `true` when the AVX2+FMA multiversions are usable on this CPU.
pub(super) fn has_fma_isa() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static CAPS: OnceLock<bool> = OnceLock::new();
        *CAPS.get_or_init(|| {
            std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static CAPS: OnceLock<bool> = OnceLock::new();
        *CAPS.get_or_init(|| false)
    }
}

// ---------------------------------------------------------------------------
// Planar complex AXPY — the inner loop of the coloring kernel
// ---------------------------------------------------------------------------

/// `y ← y + (ar + i·ai)·x` over split-complex planes.
#[inline(always)]
fn axpy_planar_body<const FMA: bool>(
    ar: f64,
    ai: f64,
    xre: &[f64],
    xim: &[f64],
    yre: &mut [f64],
    yim: &mut [f64],
) {
    for ((yr, yi), (xr, xi)) in yre
        .iter_mut()
        .zip(yim.iter_mut())
        .zip(xre.iter().zip(xim.iter()))
    {
        if FMA {
            *yr = ar.mul_add(*xr, (-ai).mul_add(*xi, *yr));
            *yi = ar.mul_add(*xi, ai.mul_add(*xr, *yi));
        } else {
            *yr += ar * *xr - ai * *xi;
            *yi += ar * *xi + ai * *xr;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn axpy_planar_avx2(
    ar: f64,
    ai: f64,
    xre: &[f64],
    xim: &[f64],
    yre: &mut [f64],
    yim: &mut [f64],
) {
    axpy_planar_body::<true>(ar, ai, xre, xim, yre, yim);
}

#[inline]
pub(super) fn axpy_planar(
    ar: f64,
    ai: f64,
    xre: &[f64],
    xim: &[f64],
    yre: &mut [f64],
    yim: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if has_fma_isa() {
        // SAFETY: guarded by the runtime AVX2+FMA detection above.
        unsafe { axpy_planar_avx2(ar, ai, xre, xim, yre, yim) };
        return;
    }
    axpy_planar_body::<false>(ar, ai, xre, xim, yre, yim);
}

/// Cache-blocked split-complex coloring: see `kernel::color_block_with`.
pub(super) fn color_block(
    n: usize,
    m: usize,
    a: &[Complex64],
    scale: f64,
    raw: &[Complex64],
    out: &mut [Complex64],
    scratch: &mut Vec<f64>,
) {
    if n == 0 || m == 0 {
        return;
    }
    let tile = super::COLOR_TILE.min(m);
    // Layout: N re-planes, N im-planes, one y re-plane, one y im-plane.
    scratch.resize((2 * n + 2) * tile, 0.0);
    let (x_planes, y_planes) = scratch.split_at_mut(2 * n * tile);
    let (xre_all, xim_all) = x_planes.split_at_mut(n * tile);
    let (yre, yim) = y_planes.split_at_mut(tile);

    let mut l0 = 0;
    while l0 < m {
        let t = tile.min(m - l0);
        for j in 0..n {
            let row = &raw[j * m + l0..j * m + l0 + t];
            super::deinterleave_into(
                row,
                &mut xre_all[j * tile..j * tile + t],
                &mut xim_all[j * tile..j * tile + t],
            );
        }
        for i in 0..n {
            yre[..t].fill(0.0);
            yim[..t].fill(0.0);
            for j in 0..n {
                let c = a[i * n + j];
                axpy_planar(
                    c.re,
                    c.im,
                    &xre_all[j * tile..j * tile + t],
                    &xim_all[j * tile..j * tile + t],
                    &mut yre[..t],
                    &mut yim[..t],
                );
            }
            super::interleave_scaled_into(
                &yre[..t],
                &yim[..t],
                scale,
                &mut out[i * m + l0..i * m + l0 + t],
            );
        }
        l0 += t;
    }
}

// ---------------------------------------------------------------------------
// Multi-lane complex reductions — matvec rows and covariance pairs
// ---------------------------------------------------------------------------

/// Reduces lane accumulators in a fixed, lane-order-independent-of-`m`
/// sequence.
#[inline(always)]
fn reduce_lanes(acc: &[f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Unconjugated dot `Σ aᵢ·bᵢ` with per-lane accumulators.
#[inline(always)]
fn dot_lanes_body<const FMA: bool>(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    let mut acc_re = [0.0f64; LANES];
    let mut acc_im = [0.0f64; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for ((p, q), (ar, ai)) in ca
            .iter()
            .zip(cb.iter())
            .zip(acc_re.iter_mut().zip(acc_im.iter_mut()))
        {
            if FMA {
                *ar = p.re.mul_add(q.re, (-p.im).mul_add(q.im, *ar));
                *ai = p.re.mul_add(q.im, p.im.mul_add(q.re, *ai));
            } else {
                *ar += p.re * q.re - p.im * q.im;
                *ai += p.re * q.im + p.im * q.re;
            }
        }
    }
    let mut re = reduce_lanes(&acc_re);
    let mut im = reduce_lanes(&acc_im);
    for (p, q) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        re += p.re * q.re - p.im * q.im;
        im += p.re * q.im + p.im * q.re;
    }
    c64(re, im)
}

/// `y = A·x`, one multi-lane dot per row: the [`matvec_avx2`] kernel on
/// AVX2+FMA CPUs, the generic [`dot_lanes_body`] loop elsewhere.
pub(super) fn matvec_into(cols: usize, a: &[Complex64], x: &[Complex64], y: &mut [Complex64]) {
    #[cfg(target_arch = "x86_64")]
    if has_fma_isa() {
        // SAFETY: guarded by the runtime AVX2+FMA detection above.
        unsafe { matvec_avx2(cols, a, x, y) };
        return;
    }
    for (i, yi) in y.iter_mut().enumerate() {
        *yi = dot_lanes_body::<false>(&a[i * cols..(i + 1) * cols], x);
    }
}

/// [`matvec_into`] with AVX2+FMA intrinsics over the interleaved layout,
/// bit for bit `dot_lanes_body::<true>` on every row.
///
/// A 256-bit register holds two complex values `[re, im, re, im]`, so one
/// accumulator carries lanes 0–1 of that body and a second carries lanes
/// 2–3. Per lane the body computes `acc_re = fma(p.re, q.re, fma(−p.im,
/// q.im, acc_re))` and `acc_im = fma(p.re, q.im, fma(p.im, q.re,
/// acc_im))`; here the inner FMA multiplies `[−p.im, p.im]` (the negation
/// is a sign-bit XOR, exactly Rust's `-`) by the swapped `[q.im, q.re]`
/// and the outer one multiplies `[p.re, p.re]` by `[q.re, q.im]`. The
/// lanes then reduce as `(l0 + l1) + (l2 + l3)` and the `cols % 4` tail
/// is added with the body's non-fused scalar arithmetic.
///
/// # Safety
/// The CPU must support AVX2 and FMA. (Short `a` or `x` slices panic: every
/// row and `x` are sliced to `cols` values before the pointer loads.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn matvec_avx2(cols: usize, a: &[Complex64], x: &[Complex64], y: &mut [Complex64]) {
    use std::arch::x86_64::*;

    let body = cols - cols % LANES;
    let x = &x[..cols];
    let xp = x.as_ptr().cast::<f64>();
    let neg_re = _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0);
    // One FMA pair over two complex values `p` (row) and `q` (vector).
    let lane_pair = |p: __m256d, q: __m256d, acc: __m256d| {
        let p_re = _mm256_movedup_pd(p);
        let p_im = _mm256_xor_pd(_mm256_permute_pd::<0b1111>(p), neg_re);
        let q_swap = _mm256_permute_pd::<0b0101>(q);
        _mm256_fmadd_pd(p_re, q, _mm256_fmadd_pd(p_im, q_swap, acc))
    };
    for (i, yi) in y.iter_mut().enumerate() {
        let row = &a[i * cols..(i + 1) * cols];
        let ap = row.as_ptr().cast::<f64>();
        let mut acc01 = _mm256_setzero_pd();
        let mut acc23 = _mm256_setzero_pd();
        for j in (0..body).step_by(LANES) {
            // SAFETY: j + 4 ≤ body ≤ cols complex values, i.e. 2j + 8 f64
            // within both `row` and `x`.
            let (p01, q01, p23, q23) = unsafe {
                (
                    _mm256_loadu_pd(ap.add(2 * j)),
                    _mm256_loadu_pd(xp.add(2 * j)),
                    _mm256_loadu_pd(ap.add(2 * j + 4)),
                    _mm256_loadu_pd(xp.add(2 * j + 4)),
                )
            };
            acc01 = lane_pair(p01, q01, acc01);
            acc23 = lane_pair(p23, q23, acc23);
        }
        // [l0 + l1] and [l2 + l3], re and im side by side, then their sum.
        let s01 = _mm_add_pd(
            _mm256_castpd256_pd128(acc01),
            _mm256_extractf128_pd::<1>(acc01),
        );
        let s23 = _mm_add_pd(
            _mm256_castpd256_pd128(acc23),
            _mm256_extractf128_pd::<1>(acc23),
        );
        let s = _mm_add_pd(s01, s23);
        let mut re = _mm_cvtsd_f64(s);
        let mut im = _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
        for (p, q) in row[body..].iter().zip(&x[body..]) {
            re += p.re * q.re - p.im * q.im;
            im += p.re * q.im + p.im * q.re;
        }
        *yi = c64(re, im);
    }
}

/// `Σ_l z_a[l]·conj(z_b[l])` over two contiguous rows.
#[inline(always)]
fn pair_fold_body<const FMA: bool>(za: &[Complex64], zb: &[Complex64]) -> Complex64 {
    let mut acc_re = [0.0f64; LANES];
    let mut acc_im = [0.0f64; LANES];
    let mut chunks_a = za.chunks_exact(LANES);
    let mut chunks_b = zb.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for ((p, q), (ar, ai)) in ca
            .iter()
            .zip(cb.iter())
            .zip(acc_re.iter_mut().zip(acc_im.iter_mut()))
        {
            if FMA {
                *ar = p.re.mul_add(q.re, p.im.mul_add(q.im, *ar));
                *ai = p.im.mul_add(q.re, (-p.re).mul_add(q.im, *ai));
            } else {
                *ar += p.re * q.re + p.im * q.im;
                *ai += p.im * q.re - p.re * q.im;
            }
        }
    }
    let mut re = reduce_lanes(&acc_re);
    let mut im = reduce_lanes(&acc_im);
    for (p, q) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        re += p.re * q.re + p.im * q.im;
        im += p.im * q.re - p.re * q.im;
    }
    c64(re, im)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn pair_fold_avx2(za: &[Complex64], zb: &[Complex64]) -> Complex64 {
    pair_fold_body::<true>(za, zb)
}

#[inline]
fn pair_fold(za: &[Complex64], zb: &[Complex64]) -> Complex64 {
    #[cfg(target_arch = "x86_64")]
    if has_fma_isa() {
        // SAFETY: guarded by the runtime AVX2+FMA detection above.
        return unsafe { pair_fold_avx2(za, zb) };
    }
    pair_fold_body::<false>(za, zb)
}

/// Pair-wise covariance fold exploiting Hermitian symmetry: the mirrored
/// entry `Σ z_b·conj(z_a)` is the exact floating-point conjugate of
/// `Σ z_a·conj(z_b)` (products commute, negation is exact), so each
/// unordered pair is reduced once.
pub(super) fn accumulate_covariance(n: usize, m: usize, data: &[Complex64], acc: &mut [Complex64]) {
    for a in 0..n {
        let za = &data[a * m..(a + 1) * m];
        for b in a..n {
            let s = pair_fold(za, &data[b * m..(b + 1) * m]);
            acc[a * n + b] += s;
            if b != a {
                acc[b * n + a] += s.conj();
            }
        }
    }
}

/// `env[i] = √(re² + im²)` — a plain lane loop; hardware `sqrt` vectorizes
/// on every supported ISA, and the generators never produce magnitudes
/// anywhere near the over/underflow thresholds `hypot` guards against.
pub(super) fn envelope_into(data: &[Complex64], env: &mut [f64]) {
    for (e, z) in env.iter_mut().zip(data.iter()) {
        *e = (z.re * z.re + z.im * z.im).sqrt();
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;

    const SPECIALS: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

    /// `len` complex values in (−1, 1) from a xorshift stream; with `special`
    /// set, every third real or imaginary part is a signed zero, an
    /// infinity or NaN instead.
    fn entries(len: usize, seed: u64, special: bool) -> Vec<Complex64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = |k: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if special && k.is_multiple_of(3) {
                SPECIALS[(state % SPECIALS.len() as u64) as usize]
            } else {
                (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            }
        };
        (0..len)
            .map(|k| c64(next(2 * k), next(2 * k + 1)))
            .collect()
    }

    /// Equal bits, or NaN on both sides: Rust leaves the sign and payload
    /// of an arithmetic NaN unspecified (LLVM folds `fma(−a, b, c)` into a
    /// negated multiply-add that does not flip a NaN's sign, where the
    /// kernel's sign-bit XOR does), so only NaN-ness is an output.
    fn same_bits(got: f64, want: f64) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    #[test]
    fn avx2_matvec_matches_the_fma_lane_body_bit_for_bit() {
        if !has_fma_isa() {
            eprintln!("skipped: this CPU lacks AVX2+FMA");
            return;
        }
        for rows in [1, 3, 16] {
            for cols in [1, 3, 4, 5, 8, 15, 16, 17, 33] {
                for (seed, special) in [(1, false), (2, true), (3, true)] {
                    let a = entries(rows * cols, seed, special);
                    let x = entries(cols, seed + 10, special);
                    let mut y = vec![Complex64::ZERO; rows];
                    // SAFETY: AVX2+FMA detected above.
                    unsafe { matvec_avx2(cols, &a, &x, &mut y) };
                    for (i, yi) in y.iter().enumerate() {
                        let want = dot_lanes_body::<true>(&a[i * cols..(i + 1) * cols], &x);
                        assert!(
                            same_bits(yi.re, want.re) && same_bits(yi.im, want.im),
                            "rows {rows}, cols {cols}, seed {seed}, row {i}: {yi:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }
}
