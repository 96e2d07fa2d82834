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
//! Two kernels are `core::arch` intrinsics instead, each doing per element
//! exactly the arithmetic of the lane loop it replaced, so their output is
//! bit for bit that loop's:
//!
//! * the coloring matvec of single-instant generation (4096 calls of a
//!   16 × 16 matvec per `snapshot-n16` block): on AVX2+FMA CPUs its whole
//!   row loop runs over the interleaved layout with the FMA lane body's
//!   FMAs, sign flip, `(l0 + l1) + (l2 + l3)` reduction and non-fused tail;
//! * the realtime coloring micro-kernel [`color_planes`] behind
//!   [`color_block_with`](super::color_block_with): a block of output
//!   rows × samples (4 × 16 on AVX-512F, 3 × 8 on AVX2+FMA, 2 × 4 in the
//!   generic lane loop) stays in registers across the whole `j` sum and is
//!   written once, scaled and interleaved. Every element is still the
//!   planar AXPY chain it replaced, in `j` order from `+0.0`.
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
pub(crate) fn has_fma_isa() -> bool {
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

/// `true` when the coloring micro-kernel and the Jacobi rotation run their
/// AVX-512F bodies: the CPU has AVX-512F on top of the AVX2+FMA the other
/// multiversions need.
pub(crate) fn has_avx512_isa() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static CAPS: OnceLock<bool> = OnceLock::new();
        *CAPS.get_or_init(|| has_fma_isa() && std::is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// Register-blocked coloring micro-kernel
// ---------------------------------------------------------------------------

/// One coloring tile as raw pointers, bounds-checked by [`color_planes`]:
/// `len` samples of `n` split-complex input planes (plane `j` starts at
/// `re/im + j·stride`) colored into `n` interleaved output rows (row `i`
/// starts at `out + i·out_stride`).
struct Tile {
    n: usize,
    len: usize,
    a: *const Complex64,
    scale: f64,
    re: *const f64,
    im: *const f64,
    stride: usize,
    out: *mut Complex64,
    out_stride: usize,
}

impl Tile {
    /// The scalar tail, samples `l0..len` of rows `i0..i0 + rows`: each
    /// element by the chain every body keeps, `j = 0..n` in order from
    /// `+0.0`, fused or not, then `scale·y`.
    ///
    /// # Safety
    /// `i0 + rows ≤ n` of a tile built by [`color_planes`].
    #[inline(always)]
    unsafe fn tail<const FMA: bool>(&self, i0: usize, rows: usize, l0: usize) {
        for i in i0..i0 + rows {
            for l in l0..self.len {
                let (mut yr, mut yi) = (0.0f64, 0.0f64);
                for j in 0..self.n {
                    // SAFETY: i < n, j < n and l < len.
                    let (c, xr, xi) = unsafe {
                        (
                            *self.a.add(i * self.n + j),
                            *self.re.add(j * self.stride + l),
                            *self.im.add(j * self.stride + l),
                        )
                    };
                    if FMA {
                        yr = c.re.mul_add(xr, (-c.im).mul_add(xi, yr));
                        yi = c.re.mul_add(xi, c.im.mul_add(xr, yi));
                    } else {
                        yr += c.re * xr - c.im * xi;
                        yi += c.re * xi + c.im * xr;
                    }
                }
                let z = c64(self.scale * yr, self.scale * yi);
                // SAFETY: i < n and l < len.
                unsafe { *self.out.add(i * self.out_stride + l) = z };
            }
        }
    }
}

/// The coloring micro-kernel over split-complex planes:
/// `out[i·out_stride + l] = scale · Σ_j a[i·n + j] · (re[j·stride + l] +
/// i·im[j·stride + l])` for `i < n` and `l < len`; output elements outside
/// the `n` rows of `len` samples are left untouched. Checks the bounds
/// every body relies on (it panics if `a` is not `n × n`, `len` exceeds a
/// stride, or a plane or output row runs past its slice), then runs the
/// AVX-512F body, the AVX2 one or the generic lane loop. Each body computes every element by the chain
/// of [`Tile::tail`], so the blocking only changes which element is
/// computed when.
#[allow(clippy::too_many_arguments)]
pub(super) fn color_planes(
    n: usize,
    len: usize,
    a: &[Complex64],
    scale: f64,
    re: &[f64],
    im: &[f64],
    stride: usize,
    out: &mut [Complex64],
    out_stride: usize,
) {
    assert_eq!(
        n.checked_mul(n),
        Some(a.len()),
        "color_planes: coloring matrix storage"
    );
    if n == 0 || len == 0 {
        return;
    }
    assert!(
        len <= stride && len <= out_stride,
        "color_planes: rows of {len} samples overlap (plane stride {stride}, output stride {out_stride})"
    );
    // Row n − 1 ends at (n − 1)·stride + len; checked, so that no index a
    // body computes can wrap.
    let fits = |stride: usize, have: usize| {
        (n - 1)
            .checked_mul(stride)
            .and_then(|start| start.checked_add(len))
            .is_some_and(|end| end <= have)
    };
    assert!(
        fits(stride, re.len()) && fits(stride, im.len()) && fits(out_stride, out.len()),
        "color_planes: planes or output rows run past their slices"
    );
    let t = Tile {
        n,
        len,
        a: a.as_ptr(),
        scale,
        re: re.as_ptr(),
        im: im.as_ptr(),
        stride,
        out: out.as_mut_ptr(),
        out_stride,
    };
    // SAFETY: the tile's bounds were checked above, each ISA body is
    // guarded by the runtime CPU detection.
    unsafe {
        #[cfg(target_arch = "x86_64")]
        if has_avx512_isa() {
            return color_planes_avx512(&t);
        } else if has_fma_isa() {
            return color_planes_avx2(&t);
        }
        color_planes_generic(&t);
    }
}

/// The generic non-FMA body: blocks of 2 rows × [`LANES`] samples (the
/// eight accumulators SSE2 keeps in registers), then 1-row blocks; then
/// the scalar tail.
///
/// # Safety
/// `t` was built by [`color_planes`].
unsafe fn color_planes_generic(t: &Tile) {
    let full = t.n - t.n % 2;
    // SAFETY: every row block lies inside the tile's n rows.
    unsafe {
        for i0 in (0..full).step_by(2) {
            rows_generic::<2>(t, i0);
        }
        for i0 in full..t.n {
            rows_generic::<1>(t, i0);
        }
    }
}

/// # Safety
/// As [`color_planes_generic`], with `i0 + R ≤ n`.
#[inline(always)]
unsafe fn rows_generic<const R: usize>(t: &Tile, i0: usize) {
    let full = t.len - t.len % LANES;
    for l0 in (0..full).step_by(LANES) {
        let mut yr = [[0.0f64; LANES]; R];
        let mut yi = [[0.0f64; LANES]; R];
        for j in 0..t.n {
            // SAFETY: samples l0..l0 + LANES of plane j and row i0 + r < n
            // of `a` are in bounds.
            let (xr, xi) = unsafe {
                (
                    t.re.add(j * t.stride + l0).cast::<[f64; LANES]>().read(),
                    t.im.add(j * t.stride + l0).cast::<[f64; LANES]>().read(),
                )
            };
            for (r, (yr, yi)) in yr.iter_mut().zip(yi.iter_mut()).enumerate() {
                // SAFETY: as above.
                let c = unsafe { *t.a.add((i0 + r) * t.n + j) };
                for s in 0..LANES {
                    yr[s] += c.re * xr[s] - c.im * xi[s];
                    yi[s] += c.re * xi[s] + c.im * xr[s];
                }
            }
        }
        for (r, (yr, yi)) in yr.iter().zip(yi.iter()).enumerate() {
            let z: [Complex64; LANES] =
                std::array::from_fn(|s| c64(t.scale * yr[s], t.scale * yi[s]));
            // SAFETY: samples l0..l0 + LANES of row i0 + r are in bounds.
            unsafe {
                t.out
                    .add((i0 + r) * t.out_stride + l0)
                    .cast::<[Complex64; LANES]>()
                    .write(z)
            };
        }
    }
    // SAFETY: forwarded.
    unsafe { t.tail::<false>(i0, R, full) };
}

/// The AVX2+FMA body: blocks of 3 rows × 8 samples (12 `ymm`
/// accumulators), then 1-row blocks; samples in pairs of `ymm`, then one
/// `ymm`, then the scalar `mul_add` tail.
///
/// # Safety
/// The CPU must support AVX2 and FMA; `t` was built by [`color_planes`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn color_planes_avx2(t: &Tile) {
    let full = t.n - t.n % 3;
    // SAFETY: every row block lies inside the tile's n rows.
    unsafe {
        for i0 in (0..full).step_by(3) {
            rows_avx2::<3>(t, i0);
        }
        for i0 in full..t.n {
            rows_avx2::<1>(t, i0);
        }
    }
}

/// # Safety
/// As [`color_planes_avx2`], with `i0 + R ≤ n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn rows_avx2<const R: usize>(t: &Tile, i0: usize) {
    let mut l0 = t.len - t.len % 8;
    // SAFETY: every sample block lies inside the tile's len samples.
    unsafe {
        for l in (0..l0).step_by(8) {
            block_avx2::<R, 2>(t, i0, l);
        }
        if l0 + 4 <= t.len {
            block_avx2::<R, 1>(t, i0, l0);
            l0 += 4;
        }
        t.tail::<true>(i0, R, l0);
    }
}

/// Rows `i0..i0 + R` × samples `l0..l0 + 4·V` held in `2·R·V` registers.
///
/// # Safety
/// As [`rows_avx2`], with `l0 + 4·V ≤ len`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn block_avx2<const R: usize, const V: usize>(t: &Tile, i0: usize, l0: usize) {
    use std::arch::x86_64::*;

    let mut yr = [[_mm256_setzero_pd(); V]; R];
    let mut yi = [[_mm256_setzero_pd(); V]; R];
    let s = _mm256_set1_pd(t.scale);
    // SAFETY: rows i0..i0 + R and samples l0..l0 + 4V are in bounds.
    unsafe {
        for j in 0..t.n {
            let plane = j * t.stride + l0;
            let xr: [__m256d; V] =
                std::array::from_fn(|v| _mm256_loadu_pd(t.re.add(plane + 4 * v)));
            let xi: [__m256d; V] =
                std::array::from_fn(|v| _mm256_loadu_pd(t.im.add(plane + 4 * v)));
            for r in 0..R {
                let c = *t.a.add((i0 + r) * t.n + j);
                let (ar, ai) = (_mm256_set1_pd(c.re), _mm256_set1_pd(c.im));
                for v in 0..V {
                    // fnmadd(ai, xi, y) = −(ai·xi) + y, rounded once: fma(−ai, xi, y).
                    yr[r][v] = _mm256_fmadd_pd(ar, xr[v], _mm256_fnmadd_pd(ai, xi[v], yr[r][v]));
                    yi[r][v] = _mm256_fmadd_pd(ar, xi[v], _mm256_fmadd_pd(ai, xr[v], yi[r][v]));
                }
            }
        }
        for r in 0..R {
            let row = t.out.add((i0 + r) * t.out_stride + l0).cast::<f64>();
            for v in 0..V {
                let zr = _mm256_mul_pd(s, yr[r][v]);
                let zi = _mm256_mul_pd(s, yi[r][v]);
                // [r0 i0 r2 i2] and [r1 i1 r3 i3], then their 128-bit halves.
                let even = _mm256_unpacklo_pd(zr, zi);
                let odd = _mm256_unpackhi_pd(zr, zi);
                _mm256_storeu_pd(row.add(8 * v), _mm256_permute2f128_pd::<0x20>(even, odd));
                _mm256_storeu_pd(
                    row.add(8 * v + 4),
                    _mm256_permute2f128_pd::<0x31>(even, odd),
                );
            }
        }
    }
}

/// The AVX-512F body: blocks of 4 rows × 16 samples (16 `zmm`
/// accumulators), then 1-row blocks; samples in pairs of `zmm`, then one
/// `zmm`, then the scalar `mul_add` tail.
///
/// # Safety
/// The CPU must support AVX-512F, AVX2 and FMA; `t` was built by
/// [`color_planes`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn color_planes_avx512(t: &Tile) {
    let full = t.n - t.n % 4;
    // SAFETY: every row block lies inside the tile's n rows.
    unsafe {
        for i0 in (0..full).step_by(4) {
            rows_avx512::<4>(t, i0);
        }
        for i0 in full..t.n {
            rows_avx512::<1>(t, i0);
        }
    }
}

/// # Safety
/// As [`color_planes_avx512`], with `i0 + R ≤ n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
unsafe fn rows_avx512<const R: usize>(t: &Tile, i0: usize) {
    let mut l0 = t.len - t.len % 16;
    // SAFETY: every sample block lies inside the tile's len samples.
    unsafe {
        for l in (0..l0).step_by(16) {
            block_avx512::<R, 2>(t, i0, l);
        }
        if l0 + 8 <= t.len {
            block_avx512::<R, 1>(t, i0, l0);
            l0 += 8;
        }
        t.tail::<true>(i0, R, l0);
    }
}

/// Rows `i0..i0 + R` × samples `l0..l0 + 8·V` held in `2·R·V` registers.
///
/// # Safety
/// As [`rows_avx512`], with `l0 + 8·V ≤ len`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
unsafe fn block_avx512<const R: usize, const V: usize>(t: &Tile, i0: usize, l0: usize) {
    use std::arch::x86_64::*;

    let mut yr = [[_mm512_setzero_pd(); V]; R];
    let mut yi = [[_mm512_setzero_pd(); V]; R];
    let s = _mm512_set1_pd(t.scale);
    // Interleave re/im: lane k of the index takes re[k] (< 8) or im[k − 8].
    let lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    let hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    // SAFETY: rows i0..i0 + R and samples l0..l0 + 8V are in bounds.
    unsafe {
        for j in 0..t.n {
            let plane = j * t.stride + l0;
            let xr: [__m512d; V] =
                std::array::from_fn(|v| _mm512_loadu_pd(t.re.add(plane + 8 * v)));
            let xi: [__m512d; V] =
                std::array::from_fn(|v| _mm512_loadu_pd(t.im.add(plane + 8 * v)));
            for r in 0..R {
                let c = *t.a.add((i0 + r) * t.n + j);
                let (ar, ai) = (_mm512_set1_pd(c.re), _mm512_set1_pd(c.im));
                for v in 0..V {
                    // fnmadd(ai, xi, y) = −(ai·xi) + y, rounded once: fma(−ai, xi, y).
                    yr[r][v] = _mm512_fmadd_pd(ar, xr[v], _mm512_fnmadd_pd(ai, xi[v], yr[r][v]));
                    yi[r][v] = _mm512_fmadd_pd(ar, xi[v], _mm512_fmadd_pd(ai, xr[v], yi[r][v]));
                }
            }
        }
        for r in 0..R {
            let row = t.out.add((i0 + r) * t.out_stride + l0).cast::<f64>();
            for v in 0..V {
                let zr = _mm512_mul_pd(s, yr[r][v]);
                let zi = _mm512_mul_pd(s, yi[r][v]);
                _mm512_storeu_pd(row.add(16 * v), _mm512_permutex2var_pd(zr, lo, zi));
                _mm512_storeu_pd(row.add(16 * v + 8), _mm512_permutex2var_pd(zr, hi, zi));
            }
        }
    }
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
    // Layout: N re-planes, then N im-planes, `tile` samples each.
    scratch.resize(2 * n * tile, 0.0);
    let (xre_all, xim_all) = scratch.split_at_mut(n * tile);

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
        color_planes(n, t, a, scale, xre_all, xim_all, tile, &mut out[l0..], m);
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

#[cfg(test)]
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

    /// `len` complex values in (−1, 1) in which each real or imaginary part
    /// is, with probability `1/every` (never for 0), a signed zero, an
    /// infinity or NaN instead, at random positions.
    fn sprinkled(len: usize, seed: u64, every: u64) -> Vec<Complex64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if every > 0 && (state >> 32).is_multiple_of(every) {
                SPECIALS[(state % SPECIALS.len() as u64) as usize]
            } else {
                (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            }
        };
        (0..len).map(|_| c64(next(), next())).collect()
    }

    /// Equal bits, or NaN on both sides: Rust leaves the sign and payload
    /// of an arithmetic NaN unspecified (LLVM folds `fma(−a, b, c)` into a
    /// negated multiply-add that does not flip a NaN's sign, where the
    /// kernel's sign-bit XOR does), so only NaN-ness is an output.
    fn same_bits(got: f64, want: f64) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    #[cfg(target_arch = "x86_64")]
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

    /// The AXPY-order coloring the micro-kernel replaced: per output row,
    /// one planar complex AXPY per `j` over the whole tile into zeroed `y`
    /// planes, then the scaled interleave.
    #[allow(clippy::too_many_arguments)]
    fn axpy_order<const FMA: bool>(
        n: usize,
        len: usize,
        a: &[Complex64],
        scale: f64,
        re: &[f64],
        im: &[f64],
        stride: usize,
    ) -> Vec<Complex64> {
        let mut out = Vec::with_capacity(n * len);
        for i in 0..n {
            let (mut yr, mut yi) = (vec![0.0f64; len], vec![0.0f64; len]);
            for j in 0..n {
                let c = a[i * n + j];
                let (xre, xim) = (&re[j * stride..j * stride + len], &im[j * stride..]);
                for (l, (r, m)) in yr.iter_mut().zip(yi.iter_mut()).enumerate() {
                    let (xr, xi) = (xre[l], xim[l]);
                    if FMA {
                        *r = c.re.mul_add(xr, (-c.im).mul_add(xi, *r));
                        *m = c.re.mul_add(xi, c.im.mul_add(xr, *m));
                    } else {
                        *r += c.re * xr - c.im * xi;
                        *m += c.re * xi + c.im * xr;
                    }
                }
            }
            out.extend(yr.iter().zip(&yi).map(|(r, m)| c64(scale * r, scale * m)));
        }
        out
    }

    /// Drives one micro-kernel body over N = 1..=70 and tile lengths around
    /// every vector width, with planes and output rows at non-zero offsets
    /// and padded strides, and compares each written element with
    /// [`axpy_order`] by `to_bits` (NaN-ness only for NaN); every element
    /// outside the rows must keep its sentinel.
    fn check_body<const FMA: bool>(body: unsafe fn(&Tile)) {
        const LENS: [usize; 13] = [1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 33, 128, 256];
        const SENTINEL: Complex64 = c64(-7.5, 7.5);
        let (in_off, out_off, scale) = (5, 3, 0.75);
        for n in 1..=70usize {
            // Every shape at N ≤ 2 (eight seeds each) and every third one
            // above sprinkles ±0/±∞/NaN: densely at small N, where outputs
            // can be exact signed zeros, and sparser as N grows.
            let seeds = if n <= 2 { 8 } else { 1 };
            for (k, &len) in LENS.iter().enumerate() {
                for rep in 0..seeds {
                    let every = if n <= 2 || (n + k) % 3 == 0 {
                        1 + n as u64
                    } else {
                        0
                    };
                    let seed = (n * 10_000 + k * 100 + rep) as u64;
                    let a = sprinkled(n * n, seed, every);
                    let (stride, out_stride) = (len + 2, len + 7);
                    let x = sprinkled(in_off + n * stride, seed + 7, every);
                    let re: Vec<f64> = x.iter().map(|z| z.re).collect();
                    let im: Vec<f64> = x.iter().map(|z| z.im).collect();
                    let mut out = vec![SENTINEL; out_off + n * out_stride + 4];
                    let tile = Tile {
                        n,
                        len,
                        a: a.as_ptr(),
                        scale,
                        re: re[in_off..].as_ptr(),
                        im: im[in_off..].as_ptr(),
                        stride,
                        out: out[out_off..].as_mut_ptr(),
                        out_stride,
                    };
                    // SAFETY: the planes hold n strides past `in_off` and the
                    // output n rows past `out_off`; the caller checked the ISA.
                    unsafe { body(&tile) };
                    let want =
                        axpy_order::<FMA>(n, len, &a, scale, &re[in_off..], &im[in_off..], stride);
                    for (p, got) in out.iter().enumerate() {
                        let (i, l) = match p.checked_sub(out_off) {
                            Some(q) => (q / out_stride, q % out_stride),
                            None => (n, 0),
                        };
                        let want = if i < n && l < len {
                            want[i * len + l]
                        } else {
                            SENTINEL
                        };
                        assert!(
                            same_bits(got.re, want.re) && same_bits(got.im, want.im),
                            "n {n}, len {len}, seed {seed}, element {p}: {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn generic_coloring_body_matches_the_axpy_order_bit_for_bit() {
        check_body::<false>(color_planes_generic);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_coloring_body_matches_the_axpy_order_bit_for_bit() {
        if !has_fma_isa() {
            eprintln!("skipped: this CPU lacks AVX2+FMA");
            return;
        }
        check_body::<true>(color_planes_avx2);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_coloring_body_matches_the_axpy_order_bit_for_bit() {
        if !has_avx512_isa() {
            eprintln!("skipped: this CPU lacks AVX-512F");
            return;
        }
        check_body::<true>(color_planes_avx512);
    }
}
