//! # corrfade-linalg
//!
//! Self-contained complex linear algebra for the `corrfade` workspace: the
//! [`Complex64`] scalar type, dense complex matrices ([`CMatrix`]),
//! Hermitian eigendecomposition by the cyclic Jacobi method, and Cholesky
//! factorization.
//!
//! The covariance matrices manipulated by correlated-Rayleigh generation are
//! small (N = number of sub-carriers or antennas, typically ≤ 64), Hermitian
//! and frequently indefinite or rank-deficient. The crate therefore favours
//! unconditionally-convergent, easily-audited algorithms over asymptotically
//! faster ones, and exposes exactly the operations the paper's algorithm
//! needs:
//!
//! * `K = V·G·Vᴴ` — [`eigen::hermitian_eigen`] (step 4 of the algorithm),
//! * `L = V·√Λ` — assembled from the decomposition by the core crate,
//! * `K = L·Lᴴ` — [`cholesky::cholesky`] for the conventional baselines,
//! * Frobenius-distance and PSD checks used throughout the test and
//!   benchmark suites.
//!
//! The per-sample hot loops (coloring matvec, covariance fold, envelope
//! pass) dispatch through the [`kernel`] module, which selects a scalar
//! (bit-exact reference) or vectorized backend once per process — see the
//! [`kernel`] docs and the `CORRFADE_KERNEL` override.

#![warn(missing_docs)]

mod block;
mod cache;
mod cholesky;
mod complex;
mod eigen;
mod error;
pub mod kernel;
mod matrix;
mod vector;

pub use block::{BlockWireError, SampleBlock};
pub use cache::{CacheStats, FactorCache, MatrixKey};
pub use cholesky::{cholesky, is_positive_definite};
pub use complex::{c64, Complex64};
pub use eigen::{hermitian_eigen, HermitianEigen};
pub use error::LinalgError;
pub use matrix::CMatrix;

#[cfg(test)]
mod integration_tests {
    //! Cross-module sanity checks combining the eigendecomposition, Cholesky
    //! and the matrix utilities the way the core crate does.
    use super::*;

    #[test]
    fn eigen_coloring_reproduces_covariance_like_cholesky() {
        // For a positive-definite K, both coloring constructions must satisfy
        // L·Lᴴ = K even though the factors themselves differ.
        let k = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.3782, 0.4753), c64(0.0878, 0.2207)],
            vec![c64(0.3782, -0.4753), c64(1.0, 0.0), c64(0.3063, 0.3849)],
            vec![c64(0.0878, -0.2207), c64(0.3063, -0.3849), c64(1.0, 0.0)],
        ]);

        let chol = cholesky(&k).unwrap();
        assert!(chol.aat_adjoint().approx_eq(&k, 1e-12));

        let e = hermitian_eigen(&k).unwrap();
        let sqrt_lambda: Vec<f64> = e.eigenvalues.iter().map(|&l| l.max(0.0).sqrt()).collect();
        let l = e
            .eigenvectors
            .matmul(&CMatrix::from_real_diag(&sqrt_lambda));
        assert!(l.aat_adjoint().approx_eq(&k, 1e-10));

        // The two factors are different matrices (Cholesky is triangular,
        // the eigen factor is not), yet both are valid coloring matrices.
        assert!(l.max_abs_diff(&chol) > 1e-3);
    }

    #[test]
    fn eigen_coloring_survives_indefinite_covariance() {
        // Cholesky must fail, eigen-based coloring (after clipping) must not.
        let k =
            CMatrix::from_real_slice(3, 3, &[1.0, 0.95, -0.95, 0.95, 1.0, 0.95, -0.95, 0.95, 1.0]);
        assert!(cholesky(&k).is_err());
        let e = hermitian_eigen(&k).unwrap();
        let clipped: Vec<f64> = e.eigenvalues.iter().map(|&l| l.max(0.0)).collect();
        let sqrt_lambda: Vec<f64> = clipped.iter().map(|&l| l.sqrt()).collect();
        let l = e
            .eigenvectors
            .matmul(&CMatrix::from_real_diag(&sqrt_lambda));
        let achieved = l.aat_adjoint();
        // The achieved covariance equals the PSD-forced approximation, not K
        // itself, but it must be Hermitian and PSD.
        assert!(achieved.is_hermitian(1e-10));
        let e2 = hermitian_eigen(&achieved).unwrap();
        assert!(e2.is_positive_semidefinite(1e-10));
        // And it equals V·Λ̂·Vᴴ.
        assert!(achieved.approx_eq(&e.reconstruct_with(&clipped), 1e-10));
    }
}
