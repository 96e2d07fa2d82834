//! Eigendecomposition of Hermitian matrices by the cyclic Jacobi method.
//!
//! The paper's coloring step (Sec. 4.3) requires the eigendecomposition
//! `K = V·G·Vᴴ` of the desired covariance matrix `K`. Covariance matrices are
//! Hermitian by construction, so the unconditionally-convergent Jacobi
//! iteration is a natural fit: it is simple, backward-stable and — unlike
//! Cholesky — does not care whether the matrix is positive (semi-)definite.
//! Its cost is `O(N³)` per sweep, and at open it is a large part of a
//! network's set-up time (16 decompositions at `N = 64` for the `wsn-epoch`
//! grid).
//!
//! The matrix is diagonalized directly with complex Jacobi rotations (a
//! phase factor absorbs the argument of the pivot entry, then a real Givens
//! rotation annihilates it). Eigenvalues are returned in **descending**
//! order together with the matching orthonormal eigenvectors.
//!
//! # Storage and schedule of the Hermitian sweep
//!
//! Every generated stream depends on the eigenvector bits, so
//! [`hermitian_eigen`] keeps the operations and order of the plain cyclic
//! loop (rotate columns `p` and `q`, mirror them into rows `p` and `q`,
//! zero the pivot pair, accumulate `V`, until the off-diagonal mass reaches
//! its target or 64 sweeps have run) and changes only where the numbers
//! live and which writes are skipped because nothing reads them:
//!
//! * **Column-major, padded.** A rotation reads and writes its two columns
//!   contiguously (AVX-512F and AVX2 bodies with separate multiplies and
//!   adds, never FMA, so each element gets the scalar loop's bits); `V` is
//!   kept transposed for the same reason. The column stride is `n + 4`
//!   entries, so that the strided writes of a mirrored row do not all map
//!   to the same few L1 sets, as they would at a power-of-two stride. The
//!   padding is never read.
//! * **Row `p` mirrored once per `p`-loop.** Within the loop over `q` for
//!   one `p`, only column `p` and column `q` change, and the only entry of
//!   row `p` any later step reads is the next pivot `(p, q)`. So that pivot
//!   is mirrored just before it is read (once the loop has rotated), and
//!   the rest of row `p` up to the last rotated pivot when the loop ends,
//!   from the final column `p`: the value the last eager mirror would have
//!   written (past that pivot, column `p` has not changed since the pivots
//!   were mirrored). The pivot the last rotation zeroed keeps its `+0+0i`,
//!   as it did when the zeroing came after the mirror. Row `q` is still
//!   mirrored at every rotation.
//! * **Stop after a dead sweep.** A sweep that applies no rotation writes
//!   nothing, so the next sweep would see the same matrix and skip the same
//!   pivots until the sweep limit. The loop stops instead; a convergence
//!   failure reports the sweeps that ran, the dead one included.
//!
//! The matrix cannot instead be stored once and column `p` read as the
//! conjugate of row `p`: the pivot pair is zeroed as `+0+0i` on *both*
//! sides, so the working matrix is Hermitian only up to the sign of zero.
//! The conjugate of a zeroed entry is `+0−0i`, which later rotations carry
//! into the eigenvectors: on the 16 real-valued `wsn-epoch` group
//! covariances, 12 groups come out with up to 82 zero parts of the wrong
//! sign (the eigenvalues agree). Storing both triangles keeps every bit.

use crate::complex::{c64, Complex64};
use crate::error::LinalgError;
use crate::matrix::CMatrix;

/// Default tolerance used to accept a matrix as Hermitian before
/// decomposing it. The covariance builders in `corrfade-models` produce
/// matrices that are Hermitian to machine precision; anything larger than
/// this usually indicates a bug in the caller.
pub(crate) const DEFAULT_HERMITIAN_TOL: f64 = 1e-9;

/// Maximum number of Jacobi sweeps before reporting a convergence failure.
/// Jacobi converges quadratically once the off-diagonal mass is small; 64
/// sweeps is far beyond what any `N ≤ 1024` Hermitian matrix needs.
pub(crate) const MAX_SWEEPS: usize = 64;

/// Padding of the column stride of the sweep's working storage: with a
/// stride of exactly `n` entries (1 KiB at `n = 64`) the strided mirror
/// writes of a row fall into only a few L1 sets.
const STRIDE_PAD: usize = 4;

/// Eigendecomposition `A = V · diag(λ) · Vᴴ` of a Hermitian matrix.
#[derive(Debug, Clone)]
pub struct HermitianEigen {
    /// Eigenvalues, sorted in descending order. They are real because the
    /// input is Hermitian.
    pub eigenvalues: Vec<f64>,
    /// Unitary matrix whose `j`-th column is the eigenvector for
    /// `eigenvalues[j]`.
    pub eigenvectors: CMatrix,
}

impl HermitianEigen {
    /// Reconstructs `V · diag(λ̃) · Vᴴ` with the supplied eigenvalues — the
    /// building block of both the PSD-forcing step and the coloring matrix.
    pub fn reconstruct_with(&self, eigenvalues: &[f64]) -> CMatrix {
        assert_eq!(
            eigenvalues.len(),
            self.eigenvalues.len(),
            "reconstruct_with: eigenvalue count mismatch"
        );
        self.scaled_eigenvectors(eigenvalues)
            .matmul(&self.eigenvectors.adjoint())
    }

    /// `V·diag(d)` as a column scaling, in `O(n²)` instead of `O(n³)`: for a
    /// finite `V`, bit for bit the dense product
    /// `V.matmul(&CMatrix::from_real_diag(d))`, signed zeros included.
    ///
    /// The dense product sums entry `(i, j)` from `+0+0i` by complex
    /// `mul_add` over the row's nonzero entries `x` (zeros are skipped), and
    /// only `x = v[(i, j)]` meets a nonzero factor. Entry `(i, j)` is
    /// therefore `+0+0i` where `x` is zero, and otherwise that one fused
    /// term, `re = fma(x.re, d[j], +0)` and
    /// `im = fma(x.re, +0, fma(x.im, d[j], +0))`: an exact zero comes out
    /// `+0`, a negative product that underflows `−0`. Each later nonzero
    /// entry `y` of the row then adds `y·(+0)`, which keeps a `−0` real part
    /// only if `y.re` is negative and `y.im` positive, and a `−0` imaginary
    /// part only if both are negative (by sign bit); otherwise it becomes
    /// `+0`.
    ///
    /// # Panics
    /// Panics when `d.len()` differs from the number of eigenvectors.
    pub fn scaled_eigenvectors(&self, d: &[f64]) -> CMatrix {
        let v = &self.eigenvectors;
        assert_eq!(
            d.len(),
            v.cols(),
            "scaled_eigenvectors: scale count mismatch"
        );
        let mut out = CMatrix::zeros(v.rows(), v.cols());
        for i in 0..v.rows() {
            // Whether the row's entries right of `j` keep a −0 real or
            // imaginary part of entry `j`.
            let (mut keep_re, mut keep_im) = (true, true);
            for j in (0..v.cols()).rev() {
                let x = v[(i, j)];
                if x == Complex64::ZERO {
                    continue;
                }
                let mut z = c64(
                    x.re.mul_add(d[j], 0.0),
                    x.re.mul_add(0.0, x.im.mul_add(d[j], 0.0)),
                );
                if !keep_re && z.re == 0.0 {
                    z.re = 0.0;
                }
                if !keep_im && z.im == 0.0 {
                    z.im = 0.0;
                }
                out[(i, j)] = z;
                keep_re &= x.re.is_sign_negative() && x.im.is_sign_positive();
                keep_im &= x.re.is_sign_negative() && x.im.is_sign_negative();
            }
        }
        out
    }

    /// Reconstructs the original matrix `V · diag(λ) · Vᴴ`.
    pub fn reconstruct(&self) -> CMatrix {
        self.reconstruct_with(&self.eigenvalues)
    }

    /// `true` when every eigenvalue is ≥ `−tol`, i.e. the matrix is positive
    /// semi-definite up to the tolerance.
    pub fn is_positive_semidefinite(&self, tol: f64) -> bool {
        self.eigenvalues.iter().all(|&l| l >= -tol)
    }

    /// `true` when every eigenvalue is > `tol`.
    pub fn is_positive_definite(&self, tol: f64) -> bool {
        self.eigenvalues.iter().all(|&l| l > tol)
    }
}

/// Sum of squared moduli of the strictly-off-diagonal entries of an `n × n`
/// column-major matrix of stride `ld` — the quantity driven to zero by the
/// Jacobi sweeps. Summed in row-major order, entry `(i, j)` at `w[j·ld + i]`.
fn off_diagonal_norm_sqr_col_major(w: &[Complex64], n: usize, ld: usize) -> f64 {
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += w[j * ld + i].norm_sqr();
            }
        }
    }
    s
}

/// Computes the eigendecomposition of a Hermitian matrix using cyclic
/// complex Jacobi rotations.
///
/// # Errors
/// * [`LinalgError::NotSquare`] if the matrix is not square.
/// * [`LinalgError::NonFinite`] if an entry is NaN or infinite. Such an
///   entry would otherwise slip through: `max_abs` skips NaN, and against a
///   NaN or infinite magnitude every pivot and convergence test is false,
///   so no sweep would run and the input would come back as its own
///   eigendecomposition.
/// * [`LinalgError::NotHermitian`] if `‖A − Aᴴ‖_max` exceeds
///   `DEFAULT_HERMITIAN_TOL` (1e-9, scaled by the matrix magnitude).
/// * [`LinalgError::ConvergenceFailure`] if the off-diagonal mass does not
///   reach machine precision within `MAX_SWEEPS` (64) sweeps, or before a
///   sweep that applies no rotation (not observed in practice for Hermitian
///   inputs). Its `iterations` counts the sweeps that ran.
pub fn hermitian_eigen(a: &CMatrix) -> Result<HermitianEigen, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if let Some(i) = a
        .as_slice()
        .iter()
        .position(|z| !(z.re.is_finite() && z.im.is_finite()))
    {
        return Err(LinalgError::NonFinite {
            row: i / n,
            col: i % n,
        });
    }
    let scale = a.max_abs().max(1.0);
    let herm_dev = a.max_abs_diff(&a.adjoint());
    if herm_dev > DEFAULT_HERMITIAN_TOL * scale {
        return Err(LinalgError::NotHermitian {
            deviation: herm_dev,
        });
    }

    if n == 0 {
        return Ok(HermitianEigen {
            eigenvalues: Vec::new(),
            eigenvectors: CMatrix::zeros(0, 0),
        });
    }

    // Work on an exactly-Hermitian copy so that round-off in the caller's
    // matrix cannot leak into the iteration, stored column-major with a
    // padded stride (`w[c·ld + r]` is entry `(r, c)`) so a rotation's two
    // columns are contiguous.
    let mut m = a.clone();
    m.hermitianize();
    let frob = m.frobenius_norm().max(f64::MIN_POSITIVE);
    let target = (f64::EPSILON * frob).powi(2);
    let ld = n + STRIDE_PAD;
    let mut w = vec![Complex64::ZERO; ld * n];
    for c in 0..n {
        for r in 0..n {
            w[c * ld + r] = m[(r, c)];
        }
    }
    // Vᵀ: row `c` of `vt` is eigenvector column `c`.
    let mut vt = vec![Complex64::ZERO; ld * n];
    for c in 0..n {
        vt[c * ld + c] = Complex64::ONE;
    }

    // Column `q` after its rotation, read while row `q` is written.
    let mut col_copy = vec![Complex64::ZERO; n];
    let mut sweeps = 0;
    while off_diagonal_norm_sqr_col_major(&w, n, ld) > target && sweeps < MAX_SWEEPS {
        sweeps += 1;
        let mut sweep_applied = false;
        for p in 0..n {
            // The `q` of the last rotation this `p`-loop applied; row `p`
            // is stale from then until the flush below.
            let mut last_q = None;
            for q in (p + 1)..n {
                if last_q.is_some() {
                    // The one entry of the stale row `p` read before the
                    // flush: the pivot.
                    w[q * ld + p] = w[p * ld + q].conj();
                }
                let apq = w[q * ld + p];
                let abs_apq = apq.abs();
                if abs_apq <= f64::EPSILON * frob {
                    continue;
                }
                // Phase factor e^{iφ} of the pivot entry; dividing column q by
                // it turns the 2×2 pivot block into a real symmetric one.
                let phase = apq.unscale(abs_apq);
                let phase_conj = phase.conj();

                let app = w[p * ld + p].re;
                let aqq = w[q * ld + q].re;
                let tau = (aqq - app) / (2.0 * abs_apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Rotate columns p and q, then mirror column q into row q.
                // Rows p and q of the two columns are rotated too; the
                // diagonal block below overwrites all four of them.
                let (col_p, col_q) = two_columns_mut(&mut w, ld, n, p, q);
                rotate_columns(col_p, col_q, c, s, phase_conj);
                col_copy.copy_from_slice(col_q);
                for (col, x) in w.chunks_exact_mut(ld).zip(&col_copy) {
                    col[q] = x.conj();
                }

                // Diagonal block.
                w[p * ld + p] = c64(app - t * abs_apq, 0.0);
                w[q * ld + q] = c64(aqq + t * abs_apq, 0.0);
                w[q * ld + p] = Complex64::ZERO;
                w[p * ld + q] = Complex64::ZERO;

                // Accumulate the rotation into the eigenvector matrix:
                // V ← V · U with U = P·J as documented above.
                let (v_p, v_q) = two_columns_mut(&mut vt, ld, n, p, q);
                rotate_columns(v_p, v_q, c, s, phase_conj);
                last_q = Some(q);
            }
            // Mirror column p into row p up to the pivot the last rotation
            // zeroed, except the diagonal: the entries past it were written
            // as pivots after column p last changed.
            if let Some(last_q) = last_q {
                for r in (0..last_q).filter(|&r| r != p) {
                    w[r * ld + p] = w[p * ld + r].conj();
                }
                sweep_applied = true;
            }
        }
        if !sweep_applied {
            // Nothing changed, so every further sweep would skip the same
            // pivots until the sweep limit.
            break;
        }
    }

    let residual = off_diagonal_norm_sqr_col_major(&w, n, ld).sqrt();
    if residual * residual > target * 4.0 && residual > 1e-10 * frob {
        return Err(LinalgError::ConvergenceFailure {
            iterations: sweeps,
            residual,
        });
    }

    let mut order: Vec<usize> = (0..n).collect();
    let raw: Vec<f64> = (0..n).map(|i| w[i * ld + i].re).collect();
    order.sort_by(|&i, &j| {
        raw[j]
            .partial_cmp(&raw[i])
            .unwrap_or(core::cmp::Ordering::Equal)
    });

    let eigenvalues: Vec<f64> = order.iter().map(|&i| raw[i]).collect();
    let eigenvectors = CMatrix::from_fn(n, n, |i, j| vt[order[j] * ld + i]);

    Ok(HermitianEigen {
        eigenvalues,
        eigenvectors,
    })
}

/// The `n` entries of columns `p < q` of a column-major matrix of stride
/// `ld`, borrowed mutably.
fn two_columns_mut(
    data: &mut [Complex64],
    ld: usize,
    n: usize,
    p: usize,
    q: usize,
) -> (&mut [Complex64], &mut [Complex64]) {
    let (head, tail) = data.split_at_mut(q * ld);
    (&mut head[p * ld..p * ld + n], &mut tail[..n])
}

/// One complex Jacobi rotation of two columns, element by element:
/// `x_p ← c·x_p − s·(x_q·e^{−iφ})`, `x_q ← s·x_p + c·(x_q·e^{−iφ})`, each a
/// separate multiply, add or subtract (no FMA), so every bit is fixed. On a
/// CPU with AVX-512F or AVX2 (detected once per process) [`rotate_avx512`]
/// and [`rotate_avx2`] run the same operations on 4 and 2 elements at a time.
fn rotate_columns(
    col_p: &mut [Complex64],
    col_q: &mut [Complex64],
    c: f64,
    s: f64,
    phase_conj: Complex64,
) {
    assert_eq!(col_p.len(), col_q.len(), "rotate_columns: column lengths");
    #[cfg(target_arch = "x86_64")]
    let done = if crate::kernel::has_avx512_isa() {
        // SAFETY: the CPU has AVX-512F and AVX2; each body touches only the
        // first elements of the columns it is given, as many as it returns.
        unsafe {
            let wide = rotate_avx512(col_p, col_q, c, s, phase_conj);
            wide + rotate_avx2(&mut col_p[wide..], &mut col_q[wide..], c, s, phase_conj)
        }
    } else if crate::kernel::has_fma_isa() {
        // SAFETY: the CPU has AVX2; the body touches only the first
        // `done ≤ len` elements of both columns.
        unsafe { rotate_avx2(col_p, col_q, c, s, phase_conj) }
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for (xp, xq) in col_p[done..].iter_mut().zip(col_q[done..].iter_mut()) {
        let rotated = *xq * phase_conj;
        let new_p = xp.scale(c) - rotated.scale(s);
        let new_q = xp.scale(s) + rotated.scale(c);
        *xp = new_p;
        *xq = new_q;
    }
}

/// [`rotate_columns`] on whole quadruples of elements, 4 complex values per
/// AVX-512 register; returns how many it did. It computes `x_q·e^{−iφ}` as
/// [`rotate_avx2`] does, with the missing `addsub` as a subtract of all
/// lanes and an add of the odd (imaginary) lanes over it.
///
/// # Safety
/// The CPU must support AVX-512F (`has_avx512_isa`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rotate_avx512(
    col_p: &mut [Complex64],
    col_q: &mut [Complex64],
    c: f64,
    s: f64,
    phase_conj: Complex64,
) -> usize {
    use std::arch::x86_64::*;
    let full = col_p.len() - col_p.len() % 4;
    let (vc, vs) = (_mm512_set1_pd(c), _mm512_set1_pd(s));
    let (pr, pi) = (_mm512_set1_pd(phase_conj.re), _mm512_set1_pd(phase_conj.im));
    let (p, q) = (
        col_p.as_mut_ptr().cast::<f64>(),
        col_q.as_mut_ptr().cast::<f64>(),
    );
    for k in (0..2 * full).step_by(8) {
        // SAFETY: `Complex64` is `#[repr(C)]` (re, im), so elements
        // k/2..k/2 + 4 ≤ full are the eight doubles at k.
        unsafe {
            let xp = _mm512_loadu_pd(p.add(k));
            let xq = _mm512_loadu_pd(q.add(k));
            let re_products = _mm512_mul_pd(xq, pr);
            let im_products = _mm512_mul_pd(_mm512_permute_pd::<0b0101_0101>(xq), pi);
            let rotated = _mm512_mask_add_pd(
                _mm512_sub_pd(re_products, im_products),
                0b1010_1010,
                re_products,
                im_products,
            );
            let new_p = _mm512_sub_pd(_mm512_mul_pd(xp, vc), _mm512_mul_pd(rotated, vs));
            let new_q = _mm512_add_pd(_mm512_mul_pd(xp, vs), _mm512_mul_pd(rotated, vc));
            _mm512_storeu_pd(p.add(k), new_p);
            _mm512_storeu_pd(q.add(k), new_q);
        }
    }
    full
}

/// [`rotate_columns`] on whole pairs of elements; returns how many it did.
/// `x_q·e^{−iφ}` is `addsub(x_q·re φ̄, swap(x_q)·im φ̄)`: its imaginary part
/// adds the two products in the other order, which IEEE addition does not
/// see.
///
/// # Safety
/// The CPU must support AVX2 (`has_fma_isa`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rotate_avx2(
    col_p: &mut [Complex64],
    col_q: &mut [Complex64],
    c: f64,
    s: f64,
    phase_conj: Complex64,
) -> usize {
    use std::arch::x86_64::*;
    let full = col_p.len() - col_p.len() % 2;
    let (vc, vs) = (_mm256_set1_pd(c), _mm256_set1_pd(s));
    let (pr, pi) = (_mm256_set1_pd(phase_conj.re), _mm256_set1_pd(phase_conj.im));
    let (p, q) = (
        col_p.as_mut_ptr().cast::<f64>(),
        col_q.as_mut_ptr().cast::<f64>(),
    );
    for k in (0..2 * full).step_by(4) {
        // SAFETY: `Complex64` is `#[repr(C)]` (re, im), so elements
        // k/2..k/2 + 2 < full are the four doubles at k.
        unsafe {
            let xp = _mm256_loadu_pd(p.add(k));
            let xq = _mm256_loadu_pd(q.add(k));
            let rotated = _mm256_addsub_pd(
                _mm256_mul_pd(xq, pr),
                _mm256_mul_pd(_mm256_permute_pd::<0b0101>(xq), pi),
            );
            let new_p = _mm256_sub_pd(_mm256_mul_pd(xp, vc), _mm256_mul_pd(rotated, vs));
            let new_q = _mm256_add_pd(_mm256_mul_pd(xp, vs), _mm256_mul_pd(rotated, vc));
            _mm256_storeu_pd(p.add(k), new_p);
            _mm256_storeu_pd(q.add(k), new_q);
        }
    }
    full
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hermitian_3x3() -> CMatrix {
        CMatrix::from_rows(&[
            vec![c64(2.0, 0.0), c64(0.5, 0.5), c64(0.0, -0.25)],
            vec![c64(0.5, -0.5), c64(1.5, 0.0), c64(0.3, 0.1)],
            vec![c64(0.0, 0.25), c64(0.3, -0.1), c64(1.0, 0.0)],
        ])
    }

    // The paper's spectral covariance matrix, Eq. (22).
    fn paper_matrix_22() -> CMatrix {
        CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.3782, 0.4753), c64(0.0878, 0.2207)],
            vec![c64(0.3782, -0.4753), c64(1.0, 0.0), c64(0.3063, 0.3849)],
            vec![c64(0.0878, -0.2207), c64(0.3063, -0.3849), c64(1.0, 0.0)],
        ])
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let d = CMatrix::from_real_diag(&[3.0, 1.0, 2.0]);
        let e = hermitian_eigen(&d).unwrap();
        assert_eq!(e.eigenvalues.len(), 3);
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((e.eigenvalues[2] - 1.0).abs() < 1e-12);
        assert!(e.reconstruct().approx_eq(&d, 1e-12));
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = hermitian_3x3();
        let e = hermitian_eigen(&a).unwrap();
        assert!(e.reconstruct().approx_eq(&a, 1e-10), "VΛV^H must equal A");
    }

    #[test]
    fn eigenvectors_are_unitary() {
        let a = hermitian_3x3();
        let e = hermitian_eigen(&a).unwrap();
        let vhv = e.eigenvectors.adjoint().matmul(&e.eigenvectors);
        assert!(vhv.approx_eq(&CMatrix::identity(3), 1e-10));
        let vvh = e.eigenvectors.matmul(&e.eigenvectors.adjoint());
        assert!(vvh.approx_eq(&CMatrix::identity(3), 1e-10));
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let a = hermitian_3x3();
        let e = hermitian_eigen(&a).unwrap();
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-14);
        }
    }

    #[test]
    fn eigenvalue_equation_holds() {
        let a = paper_matrix_22();
        let e = hermitian_eigen(&a).unwrap();
        for j in 0..3 {
            let vj = e.eigenvectors.col(j);
            let av = a.matvec(&vj);
            for i in 0..3 {
                let expected = vj[i].scale(e.eigenvalues[j]);
                assert!(
                    av[i].approx_eq(expected, 1e-9),
                    "A v_{j} != lambda_{j} v_{j} at row {i}: {} vs {}",
                    av[i],
                    expected
                );
            }
        }
    }

    #[test]
    fn paper_matrix_22_is_positive_definite() {
        // The paper states Eq. (22) is positive definite; our decomposition
        // must agree.
        let e = hermitian_eigen(&paper_matrix_22()).unwrap();
        assert!(
            e.is_positive_definite(0.0),
            "eigenvalues: {:?}",
            e.eigenvalues
        );
        // Trace is preserved: sum of eigenvalues = 3.
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!((sum - 3.0).abs() < 1e-9);
    }

    #[test]
    fn indefinite_matrix_detected() {
        // A correlation-like matrix that is NOT positive semi-definite:
        // pairwise correlations of 1, 1 and -1 are mutually inconsistent.
        let a = CMatrix::from_real_slice(3, 3, &[1.0, 0.9, -0.9, 0.9, 1.0, 0.9, -0.9, 0.9, 1.0]);
        let e = hermitian_eigen(&a).unwrap();
        assert!(!e.is_positive_semidefinite(1e-12));
        assert!(e.eigenvalues[2] < 0.0);
    }

    #[test]
    fn non_square_rejected() {
        let a = CMatrix::zeros(2, 3);
        assert!(matches!(
            hermitian_eigen(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn non_hermitian_rejected() {
        let a = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(5.0, 0.0)],
            vec![c64(0.0, 0.0), c64(1.0, 0.0)],
        ]);
        assert!(matches!(
            hermitian_eigen(&a),
            Err(LinalgError::NotHermitian { .. })
        ));
    }

    #[test]
    fn empty_matrix_is_ok() {
        let e = hermitian_eigen(&CMatrix::zeros(0, 0)).unwrap();
        assert!(e.eigenvalues.is_empty());
    }

    #[test]
    fn one_by_one_matrix() {
        let a = CMatrix::from_real_slice(1, 1, &[4.2]);
        let e = hermitian_eigen(&a).unwrap();
        assert!((e.eigenvalues[0] - 4.2).abs() < 1e-14);
        assert!((e.eigenvectors[(0, 0)].abs() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn rank_deficient_matrix_has_zero_eigenvalues() {
        // Outer product v v^H has rank 1.
        let v = [c64(1.0, 1.0), c64(2.0, -1.0), c64(0.5, 0.0)];
        let a = CMatrix::from_fn(3, 3, |i, j| v[i] * v[j].conj());
        let e = hermitian_eigen(&a).unwrap();
        assert!(e.eigenvalues[0] > 1.0);
        assert!(e.eigenvalues[1].abs() < 1e-10);
        assert!(e.eigenvalues[2].abs() < 1e-10);
        assert!(e.reconstruct().approx_eq(&a, 1e-10));
    }

    #[test]
    fn reconstruct_with_clipped_eigenvalues_is_psd() {
        let a = CMatrix::from_real_slice(3, 3, &[1.0, 0.9, -0.9, 0.9, 1.0, 0.9, -0.9, 0.9, 1.0]);
        let e = hermitian_eigen(&a).unwrap();
        let clipped: Vec<f64> = e.eigenvalues.iter().map(|&l| l.max(0.0)).collect();
        let forced = e.reconstruct_with(&clipped);
        let e2 = hermitian_eigen(&forced).unwrap();
        assert!(e2.is_positive_semidefinite(1e-10));
    }

    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `scaled_eigenvectors(d)` and `reconstruct_with(d)` against their dense
    /// forms through `matmul`, by `to_bits`.
    fn assert_scaling_matches_dense(v: &CMatrix, d: &[f64], label: &str) {
        let eigen = HermitianEigen {
            eigenvalues: vec![0.0; d.len()],
            eigenvectors: v.clone(),
        };
        let dense = v.matmul(&CMatrix::from_real_diag(d));
        let scaled = eigen.scaled_eigenvectors(d);
        for (i, (a, b)) in scaled.as_slice().iter().zip(dense.as_slice()).enumerate() {
            assert!(
                same_bits(a.re, b.re) && same_bits(a.im, b.im),
                "{label}, entry {i}: {a:?} vs {b:?}"
            );
        }
        let reconstructed = eigen.reconstruct_with(d);
        let dense = dense.matmul(&v.adjoint());
        for (a, b) in reconstructed.as_slice().iter().zip(dense.as_slice()) {
            assert!(same_bits(a.re, b.re) && same_bits(a.im, b.im), "{label}");
        }
    }

    #[test]
    fn column_scaling_matches_the_dense_product_bit_for_bit() {
        // Eigenvector entries and scales with zeros of both signs, negative
        // values, products that underflow to either sign of zero (one of
        // them, −3e-300·1e-320, in the last column) and non-finite scales.
        let parts = [0.0, -0.0, 0.75, -1.25, 3.0e-300, -2.5, -3.0e-300];
        let scales = [
            0.0,
            -0.0,
            2.0,
            -0.5,
            1.0e-320,
            -3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let n = scales.len();
        let mut k = 0;
        let v = CMatrix::from_fn(n, n, |_, _| {
            k += 1;
            c64(
                parts[k % parts.len()],
                parts[(k / parts.len()) % parts.len()],
            )
        });
        for shift in 0..n {
            let d: Vec<f64> = (0..n).map(|j| scales[(j + shift) % n]).collect();
            assert_scaling_matches_dense(&v, &d, &format!("shift {shift}"));
        }

        // Random rows of signed zeros, tiny and normal parts under tiny
        // scales: every order of an underflowed product and the signs of
        // the entries after it.
        let tiny = [0.0, -0.0, 3.0e-300, -3.0e-300, 0.75, -1.25];
        let tiny_scales = [1.0e-320, -1.0e-320, 0.5, -0.0];
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut pick = move |len: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 33) as usize % len
        };
        for n in 1..=6 {
            for trial in 0..200 {
                let v = CMatrix::from_fn(n, n, |_, _| c64(tiny[pick(6)], tiny[pick(6)]));
                let d: Vec<f64> = (0..n).map(|_| tiny_scales[pick(4)]).collect();
                assert_scaling_matches_dense(&v, &d, &format!("n {n}, trial {trial}"));
            }
        }
    }

    /// Columns `p` and `q`, `c`, `s` and `e^{−iφ}` of one rotation.
    #[cfg(target_arch = "x86_64")]
    type RotationCase = (Vec<Complex64>, Vec<Complex64>, f64, f64, Complex64);

    /// Column pairs with signed zeros, tiny and large entries at every length
    /// up to 70, for checking a rotation body against the scalar one.
    #[cfg(target_arch = "x86_64")]
    fn rotation_cases() -> Vec<RotationCase> {
        let specials = [0.0, -0.0, 1.0e-310, -4.0e300, 0.5];
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            if seed.is_multiple_of(5) {
                specials[(seed >> 8) as usize % specials.len()]
            } else {
                (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            }
        };
        (0..=70)
            .map(|len| {
                let p: Vec<Complex64> = (0..len).map(|_| c64(draw(), draw())).collect();
                let q: Vec<Complex64> = (0..len).map(|_| c64(draw(), draw())).collect();
                let phase = c64(draw(), draw());
                let t = draw();
                (p, q, 1.0 / (1.0 + t * t).sqrt(), t, phase)
            })
            .collect()
    }

    /// The scalar rotation of [`rotate_columns`], element by element.
    #[cfg(target_arch = "x86_64")]
    fn scalar_rotation(case: &RotationCase) -> (Vec<Complex64>, Vec<Complex64>) {
        let (p, q, c, s, phase) = case;
        let (mut want_p, mut want_q) = (p.clone(), q.clone());
        for (xp, xq) in want_p.iter_mut().zip(want_q.iter_mut()) {
            let rotated = *xq * *phase;
            (*xp, *xq) = (
                xp.scale(*c) - rotated.scale(*s),
                xp.scale(*s) + rotated.scale(*c),
            );
        }
        (want_p, want_q)
    }

    /// Runs a rotation body on one case and checks the first `width`-multiple
    /// elements against the scalar rotation and the rest untouched.
    #[cfg(target_arch = "x86_64")]
    fn assert_body_matches_scalar(
        case: &RotationCase,
        width: usize,
        body: impl Fn(&mut [Complex64], &mut [Complex64], f64, f64, Complex64) -> usize,
    ) {
        let (p, q, c, s, phase) = case;
        let (want_p, want_q) = scalar_rotation(case);
        let (mut got_p, mut got_q) = (p.clone(), q.clone());
        let done = body(&mut got_p, &mut got_q, *c, *s, *phase);
        assert_eq!(done, p.len() - p.len() % width);
        for k in 0..p.len() {
            let want = if k < done {
                (want_p[k], want_q[k])
            } else {
                (p[k], q[k])
            };
            for (a, b) in [(want.0, got_p[k]), (want.1, got_q[k])] {
                assert!(
                    same_bits(a.re, b.re) && same_bits(a.im, b.im),
                    "width {width}, len {} element {k}: {a:?} vs {b:?}",
                    p.len()
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_rotation_body_matches_the_scalar_rotation_bit_for_bit() {
        if !crate::kernel::has_fma_isa() {
            eprintln!("skipped: this CPU lacks AVX2");
            return;
        }
        for case in rotation_cases() {
            // SAFETY: the CPU has AVX2, checked above.
            assert_body_matches_scalar(&case, 2, |p, q, c, s, phase| unsafe {
                rotate_avx2(p, q, c, s, phase)
            });
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_rotation_body_matches_the_scalar_rotation_bit_for_bit() {
        if !crate::kernel::has_avx512_isa() {
            eprintln!("skipped: this CPU lacks AVX-512F");
            return;
        }
        for case in rotation_cases() {
            // SAFETY: the CPU has AVX-512F, checked above.
            assert_body_matches_scalar(&case, 4, |p, q, c, s, phase| unsafe {
                rotate_avx512(p, q, c, s, phase)
            });
        }
        // Lengths 0..=9, through the dispatching `rotate_columns`, which
        // hands the tail past the last quadruple to the AVX2 body and the
        // scalar loop.
        for case in rotation_cases().iter().take(10) {
            assert_body_matches_scalar(case, 1, |p, q, c, s, phase| {
                rotate_columns(p, q, c, s, phase);
                p.len()
            });
        }
    }

    #[test]
    fn real_embedding_eigenvalues_are_doubled_hermitian_eigenvalues() {
        // Each eigenvalue of the N×N Hermitian matrix appears twice in the
        // spectrum of its 2N×2N real embedding.
        let a = paper_matrix_22();
        let eh = hermitian_eigen(&a).unwrap();
        let es = hermitian_eigen(&a.real_embedding()).unwrap();
        for (k, &l) in eh.eigenvalues.iter().enumerate() {
            assert!((es.eigenvalues[2 * k] - l).abs() < 1e-9);
            assert!((es.eigenvalues[2 * k + 1] - l).abs() < 1e-9);
        }
    }

    #[test]
    fn large_random_like_matrix_converges() {
        // Deterministic pseudo-random Hermitian matrix, N = 24.
        let n = 24;
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut a = CMatrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                if i == j {
                    a[(i, i)] = c64(1.0 + next().abs() * 4.0, 0.0);
                } else {
                    let z = c64(next(), next());
                    a[(i, j)] = z;
                    a[(j, i)] = z.conj();
                }
            }
        }
        let e = hermitian_eigen(&a).unwrap();
        assert!(e.reconstruct().approx_eq(&a, 1e-8));
    }
}
