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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_lanes_avx2(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    dot_lanes_body::<true>(a, b)
}

#[inline]
fn dot_lanes(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    #[cfg(target_arch = "x86_64")]
    if has_fma_isa() {
        // SAFETY: guarded by the runtime AVX2+FMA detection above.
        return unsafe { dot_lanes_avx2(a, b) };
    }
    dot_lanes_body::<false>(a, b)
}

/// `y = A·x` with the multi-lane dot kernel per row.
pub(super) fn matvec_into(cols: usize, a: &[Complex64], x: &[Complex64], y: &mut [Complex64]) {
    for (i, yi) in y.iter_mut().enumerate() {
        *yi = dot_lanes(&a[i * cols..(i + 1) * cols], x);
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
