//! Cholesky factorization `A = L·Lᴴ` of Hermitian positive-definite matrices.
//!
//! The conventional correlated-Rayleigh generators reviewed in Sec. 1 of the
//! paper (refs \[3\]–\[6\]) all obtain their coloring matrix from a Cholesky
//! factorization, which is exactly why they require the covariance matrix to
//! be positive **definite** and why they trip over round-off for matrices
//! with eigenvalues at or near zero. We implement the factorization here so
//! the baseline methods can be reproduced faithfully and so the benchmark
//! suite can compare its failure behaviour against the eigendecomposition
//! coloring used by the proposed algorithm.

use crate::complex::Complex64;
use crate::error::LinalgError;
use crate::matrix::CMatrix;

/// Computes the lower-triangular Cholesky factor `L` with `L·Lᴴ = A` of a
/// Hermitian positive-definite matrix.
///
/// `pivot_tol` guards the diagonal pivots: a pivot smaller than
/// `pivot_tol · max_diag` is treated as a failure. Pass `0.0` to accept any
/// strictly positive pivot (MATLAB-`chol`-like behaviour).
///
/// # Errors
/// * [`LinalgError::NotSquare`] for non-square input.
/// * [`LinalgError::NotHermitian`] if the matrix is visibly non-Hermitian.
/// * [`LinalgError::NotPositiveDefinite`] when a pivot is non-positive (the
///   matrix is indefinite, semi-definite, or round-off pushed a tiny
///   eigenvalue below zero).
pub(crate) fn cholesky_with_tol(a: &CMatrix, pivot_tol: f64) -> Result<CMatrix, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let scale = a.max_abs().max(1.0);
    let herm_dev = a.max_abs_diff(&a.adjoint());
    if herm_dev > 1e-9 * scale {
        return Err(LinalgError::NotHermitian {
            deviation: herm_dev,
        });
    }

    let max_diag = (0..n).map(|i| a[(i, i)].re).fold(0.0f64, f64::max).max(1.0);
    let threshold = pivot_tol * max_diag;

    let mut l = CMatrix::zeros(n, n);
    for j in 0..n {
        // Diagonal entry.
        let mut sum = a[(j, j)].re;
        for k in 0..j {
            sum -= l[(j, k)].norm_sqr();
        }
        if sum <= threshold || sum.is_nan() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: j,
                value: sum,
            });
        }
        let ljj = sum.sqrt();
        l[(j, j)] = Complex64::from_real(ljj);

        // Column below the diagonal.
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)].conj();
            }
            l[(i, j)] = s.unscale(ljj);
        }
    }
    Ok(l)
}

/// Cholesky factorization with a zero pivot tolerance (any strictly positive
/// pivot is accepted).
pub fn cholesky(a: &CMatrix) -> Result<CMatrix, LinalgError> {
    cholesky_with_tol(a, 0.0)
}

/// `true` when a Hermitian matrix is positive definite, decided by attempting
/// a Cholesky factorization (the cheapest reliable test).
pub fn is_positive_definite(a: &CMatrix) -> bool {
    cholesky(a).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn paper_matrix_22() -> CMatrix {
        CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.3782, 0.4753), c64(0.0878, 0.2207)],
            vec![c64(0.3782, -0.4753), c64(1.0, 0.0), c64(0.3063, 0.3849)],
            vec![c64(0.0878, -0.2207), c64(0.3063, -0.3849), c64(1.0, 0.0)],
        ])
    }

    fn paper_matrix_23() -> CMatrix {
        CMatrix::from_real_slice(
            3,
            3,
            &[
                1.0, 0.8123, 0.3730, 0.8123, 1.0, 0.8123, 0.3730, 0.8123, 1.0,
            ],
        )
    }

    #[test]
    fn identity_factors_to_identity() {
        let l = cholesky(&CMatrix::identity(4)).unwrap();
        assert!(l.approx_eq(&CMatrix::identity(4), 1e-14));
    }

    #[test]
    fn factor_reconstructs_paper_matrices() {
        for a in [paper_matrix_22(), paper_matrix_23()] {
            let l = cholesky(&a).unwrap();
            assert!(l.aat_adjoint().approx_eq(&a, 1e-12), "LL^H must equal A");
            // Lower triangular with positive real diagonal.
            for i in 0..3 {
                assert!(l[(i, i)].re > 0.0);
                assert!(l[(i, i)].im.abs() < 1e-15);
                for j in (i + 1)..3 {
                    assert_eq!(l[(i, j)], Complex64::ZERO);
                }
            }
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = CMatrix::from_real_slice(2, 2, &[1.0, 2.0, 2.0, 1.0]);
        match cholesky(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot, value }) => {
                assert_eq!(pivot, 1);
                assert!(value <= 0.0);
            }
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
        assert!(!is_positive_definite(&a));
    }

    #[test]
    fn semidefinite_matrix_rejected() {
        // Rank-1 matrix: second pivot is exactly zero.
        let a = CMatrix::from_real_slice(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        assert!(matches!(
            cholesky(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn pivot_tolerance_rejects_near_singular() {
        // Positive definite but with a tiny second eigenvalue.
        let eps = 1e-13;
        let a = CMatrix::from_real_slice(2, 2, &[1.0, 1.0 - eps, 1.0 - eps, 1.0]);
        assert!(cholesky(&a).is_ok());
        assert!(matches!(
            cholesky_with_tol(&a, 1e-10),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn non_square_and_non_hermitian_rejected() {
        assert!(matches!(
            cholesky(&CMatrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        let a = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(1.0, 0.0)],
            vec![c64(0.0, 0.0), c64(1.0, 0.0)],
        ]);
        assert!(matches!(
            cholesky(&a),
            Err(LinalgError::NotHermitian { .. })
        ));
    }

    #[test]
    fn complex_covariance_with_strong_imaginary_part() {
        // Hermitian PD matrix whose off-diagonal covariances are essentially
        // imaginary — the case ref. [5] cannot represent (it forces real
        // covariances).
        let a = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.05, 0.7)],
            vec![c64(0.05, -0.7), c64(1.0, 0.0)],
        ]);
        let l = cholesky(&a).unwrap();
        assert!(l.aat_adjoint().approx_eq(&a, 1e-12));
    }
}
