//! Coloring-matrix computation (step 5 of the algorithm, paper Sec. 4.3).
//!
//! A *coloring matrix* of a covariance matrix `K` is any matrix `L` with
//! `L·Lᴴ = K`; multiplying a white complex Gaussian vector by `L` produces a
//! vector with covariance `K`. The conventional methods obtain `L` by
//! Cholesky factorization, which requires `K` to be positive definite. The
//! paper instead uses the eigendecomposition of the (PSD-forced) matrix:
//!
//! ```text
//! K̄ = V·Λ̂·Vᴴ,     Λ̄ = √Λ̂,     L = V·Λ̄     ⇒     L·Lᴴ = K̄
//! ```
//!
//! which exists for every Hermitian PSD matrix, including singular ones, and
//! is immune to the round-off failures MATLAB's `chol` exhibits near
//! singularity.

use corrfade_linalg::{cholesky, CMatrix};

use crate::error::CorrfadeError;
use crate::psd::{force_positive_semidefinite, PsdForcing};

/// A coloring matrix together with the PSD-forcing metadata that produced it.
#[derive(Debug, Clone)]
pub struct Coloring {
    /// The coloring matrix `L = V·√Λ̂` (square, not triangular).
    pub matrix: CMatrix,
    /// The PSD-forcing outcome (`forced` is the covariance actually realized
    /// by the generator: `L·Lᴴ = forced`).
    pub psd: PsdForcing,
}

impl Coloring {
    /// The covariance realized by this coloring, `L·Lᴴ` (equals the desired
    /// covariance when that was PSD, its Frobenius-closest PSD approximation
    /// otherwise).
    pub fn realized_covariance(&self) -> CMatrix {
        self.matrix.aat_adjoint()
    }

    /// Number of envelopes.
    pub fn dimension(&self) -> usize {
        self.matrix.rows()
    }
}

/// Computes the eigendecomposition-based coloring matrix of a (possibly
/// non-PSD) Hermitian covariance matrix: PSD-force it, then `L = V·√Λ̂`.
///
/// # Errors
/// Propagates the validation / decomposition errors of
/// [`force_positive_semidefinite`].
pub fn eigen_coloring(k: &CMatrix) -> Result<Coloring, CorrfadeError> {
    let psd = force_positive_semidefinite(k)?;
    let sqrt_lambda: Vec<f64> = psd.clipped_eigenvalues.iter().map(|&l| l.sqrt()).collect();
    let matrix = psd.eigen.scaled_eigenvectors(&sqrt_lambda);
    Ok(Coloring { matrix, psd })
}

/// Computes a lower-triangular Cholesky coloring matrix, the construction
/// used by the conventional methods (refs \[3\]–\[6\]).
///
/// # Errors
/// Fails with [`CorrfadeError::Linalg`] whenever `K` is not positive
/// definite — exactly the limitation the eigen coloring removes.
pub fn cholesky_coloring(k: &CMatrix) -> Result<CMatrix, CorrfadeError> {
    crate::psd::validate_covariance(k)?;
    Ok(cholesky(k)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};

    #[test]
    fn eigen_coloring_reproduces_psd_covariances() {
        for k in [paper_covariance_matrix_22(), paper_covariance_matrix_23()] {
            let c = eigen_coloring(&k).unwrap();
            assert_eq!(c.dimension(), 3);
            assert!(
                c.realized_covariance().approx_eq(&k, 1e-10),
                "L·L^H must reproduce the desired covariance"
            );
            assert_eq!(c.psd.clipped_count, 0);
        }
    }

    #[test]
    fn eigen_and_cholesky_colorings_realize_the_same_covariance() {
        let k = paper_covariance_matrix_22();
        let eig = eigen_coloring(&k).unwrap();
        let chol = cholesky_coloring(&k).unwrap();
        assert!(chol
            .aat_adjoint()
            .approx_eq(&eig.realized_covariance(), 1e-10));
        // The factors themselves differ (eigen coloring is not triangular).
        assert!(chol.max_abs_diff(&eig.matrix) > 1e-3);
    }

    #[test]
    fn eigen_coloring_handles_singular_covariance_where_cholesky_fails() {
        // Fully correlated pair: PSD but rank-1.
        let k = CMatrix::from_real_slice(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        assert!(cholesky_coloring(&k).is_err());
        let c = eigen_coloring(&k).unwrap();
        assert!(c.realized_covariance().approx_eq(&k, 1e-10));
    }

    #[test]
    fn eigen_coloring_handles_indefinite_covariance() {
        let k = CMatrix::from_real_slice(3, 3, &[1.0, 0.9, -0.9, 0.9, 1.0, 0.9, -0.9, 0.9, 1.0]);
        assert!(cholesky_coloring(&k).is_err());
        let c = eigen_coloring(&k).unwrap();
        // Realizes the forced (closest PSD) covariance, not K itself.
        assert!(c.realized_covariance().approx_eq(&c.psd.forced, 1e-10));
        assert!(c.psd.clipped_count > 0);
        assert!(c.realized_covariance().max_abs_diff(&k) > 1e-3);
    }

    #[test]
    fn zero_covariance_yields_zero_coloring() {
        let k = CMatrix::zeros(3, 3);
        let c = eigen_coloring(&k).unwrap();
        assert!(c.matrix.approx_eq(&CMatrix::zeros(3, 3), 1e-14));
    }
}
