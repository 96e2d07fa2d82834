//! Forced positive semi-definiteness of the covariance matrix
//! (step 4 of the algorithm, paper Sec. 4.2).
//!
//! A covariance matrix specified by a user (or produced by inconsistent
//! measurements) need not be positive semi-definite, in which case no
//! coloring matrix exists for it. The paper's remedy: eigendecompose
//! `K = V·G·Vᴴ` and clip every negative eigenvalue to **zero**,
//!
//! ```text
//! λ̂_j = max(λ_j, 0),          K̄ = V·Λ̂·Vᴴ
//! ```
//!
//! `K̄` is the closest positive semi-definite matrix to `K` in the Frobenius
//! norm, so this clipping is strictly more precise than the ε-replacement of
//! Sorooshyari & Daut (paper ref. \[6\], reproduced in `corrfade-baselines`
//! for the E7 ablation).

use corrfade_linalg::{hermitian_eigen, CMatrix, HermitianEigen, LinalgError};

use crate::error::CorrfadeError;

/// Tolerance below which an eigenvalue is considered numerically zero when
/// classifying the input as PSD / not PSD. Clipping itself uses the exact
/// `max(λ, 0)` rule of the paper.
pub(crate) const PSD_CLASSIFICATION_TOL: f64 = 1e-12;

/// Outcome of the PSD-forcing step.
#[derive(Debug, Clone)]
pub struct PsdForcing {
    /// The forced covariance matrix `K̄ = V·Λ̂·Vᴴ` (equal to the input when it
    /// was already PSD).
    pub forced: CMatrix,
    /// The eigendecomposition of the input matrix (eigenvalues **before**
    /// clipping, descending).
    pub eigen: HermitianEigen,
    /// The clipped eigenvalues `λ̂_j = max(λ_j, 0)`, in the same order.
    pub clipped_eigenvalues: Vec<f64>,
    /// How many eigenvalues were negative and got clipped.
    pub clipped_count: usize,
    /// `true` when the input was already positive semi-definite (up to
    /// `PSD_CLASSIFICATION_TOL` (1e-12) scaled by the largest eigenvalue).
    pub was_positive_semidefinite: bool,
    /// Frobenius distance `‖K − K̄‖_F` — zero when the input was PSD.
    pub frobenius_gap: f64,
}

/// Validates that `k` is a usable covariance matrix: square, non-empty,
/// finite, Hermitian, with non-negative real diagonal.
pub(crate) fn validate_covariance(k: &CMatrix) -> Result<(), CorrfadeError> {
    if !k.is_square() {
        return Err(CorrfadeError::NotSquare {
            rows: k.rows(),
            cols: k.cols(),
        });
    }
    if k.rows() == 0 {
        return Err(CorrfadeError::EmptyCovariance);
    }
    // Before the Hermitian and power tests: a NaN passes the first and a
    // NaN or −∞ power would read as a negative one in the second.
    if let Some((row, col)) = k.first_non_finite() {
        return Err(LinalgError::NonFinite { row, col }.into());
    }
    let scale = k.max_abs().max(1.0);
    let dev = k.max_abs_diff(&k.adjoint());
    if dev > 1e-9 * scale {
        return Err(CorrfadeError::NotHermitian { deviation: dev });
    }
    for i in 0..k.rows() {
        let d = k[(i, i)].re;
        if d < 0.0 {
            return Err(CorrfadeError::NegativePower { index: i, value: d });
        }
    }
    Ok(())
}

/// Performs the paper's PSD-forcing step on a Hermitian covariance matrix.
///
/// # Errors
/// * [`CorrfadeError::NotSquare`], [`CorrfadeError::EmptyCovariance`],
///   [`CorrfadeError::NotHermitian`] or [`CorrfadeError::NegativePower`]
///   if `k` is not square, Hermitian and non-empty with a non-negative
///   real diagonal,
/// * [`CorrfadeError::Linalg`] with [`LinalgError::NonFinite`] for the first
///   NaN or infinite entry in row-major order, or if the eigendecomposition
///   fails (it cannot for a finite Hermitian matrix, but the error path is
///   kept honest).
pub fn force_positive_semidefinite(k: &CMatrix) -> Result<PsdForcing, CorrfadeError> {
    validate_covariance(k)?;
    let eigen = hermitian_eigen(k)?;

    let lambda_max = eigen
        .eigenvalues
        .first()
        .copied()
        .unwrap_or(0.0)
        .max(f64::MIN_POSITIVE);
    let was_psd = eigen
        .eigenvalues
        .iter()
        .all(|&l| l >= -PSD_CLASSIFICATION_TOL * lambda_max);

    let clipped_eigenvalues: Vec<f64> = eigen.eigenvalues.iter().map(|&l| l.max(0.0)).collect();
    let clipped_count = eigen.eigenvalues.iter().filter(|&&l| l < 0.0).count();

    let forced = if clipped_count == 0 {
        // Re-use the caller's matrix exactly (modulo Hermitian cleanup) so a
        // PSD input round-trips bit-for-bit through this step.
        let mut m = k.clone();
        m.hermitianize();
        m
    } else {
        eigen.reconstruct_with(&clipped_eigenvalues)
    };

    let frobenius_gap = forced.frobenius_distance(k);

    Ok(PsdForcing {
        forced,
        eigen,
        clipped_eigenvalues,
        clipped_count,
        was_positive_semidefinite: was_psd,
        frobenius_gap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_linalg::c64;

    fn indefinite_matrix() -> CMatrix {
        // Correlation pattern (+,+,−) across three envelopes that no joint
        // Gaussian can realize — the smallest eigenvalue is negative.
        CMatrix::from_real_slice(3, 3, &[1.0, 0.9, -0.9, 0.9, 1.0, 0.9, -0.9, 0.9, 1.0])
    }

    #[test]
    fn psd_matrix_passes_through_unchanged() {
        let k = corrfade_models::paper_covariance_matrix_22();
        let f = force_positive_semidefinite(&k).unwrap();
        assert!(f.was_positive_semidefinite);
        assert_eq!(f.clipped_count, 0);
        assert!(f.frobenius_gap < 1e-12);
        assert!(f.forced.approx_eq(&k, 1e-12));
    }

    #[test]
    fn indefinite_matrix_is_clipped_to_psd() {
        let k = indefinite_matrix();
        let f = force_positive_semidefinite(&k).unwrap();
        assert!(!f.was_positive_semidefinite);
        assert_eq!(f.clipped_count, 1);
        assert!(f.frobenius_gap > 0.0);
        // The forced matrix is PSD.
        let e = corrfade_linalg::hermitian_eigen(&f.forced).unwrap();
        assert!(e.is_positive_semidefinite(1e-10));
        // Clipped eigenvalues are max(λ, 0).
        for (&raw, &clip) in f.eigen.eigenvalues.iter().zip(f.clipped_eigenvalues.iter()) {
            assert_eq!(clip, raw.max(0.0));
        }
    }

    #[test]
    fn clipping_is_the_frobenius_optimal_psd_approximation() {
        // For any Hermitian K, the PSD matrix closest in Frobenius norm is
        // obtained exactly by zeroing the negative eigenvalues. Verify our
        // forced matrix beats the ε-style replacement used by ref. [6].
        let k = indefinite_matrix();
        let f = force_positive_semidefinite(&k).unwrap();

        let epsilon = 1e-3;
        let eps_eigenvalues: Vec<f64> = f
            .eigen
            .eigenvalues
            .iter()
            .map(|&l| if l > 0.0 { l } else { epsilon })
            .collect();
        let eps_forced = f.eigen.reconstruct_with(&eps_eigenvalues);
        assert!(
            f.frobenius_gap < eps_forced.frobenius_distance(&k),
            "zero-clipping must be closer to K than epsilon-replacement"
        );
    }

    #[test]
    fn rank_deficient_psd_matrix_is_not_modified() {
        // Fully-correlated pair: eigenvalues {2, 0} — PSD but singular.
        let k = CMatrix::from_real_slice(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        let f = force_positive_semidefinite(&k).unwrap();
        assert!(f.was_positive_semidefinite);
        assert_eq!(f.clipped_count, 0);
        assert!(f.forced.approx_eq(&k, 1e-12));
        // Cholesky would fail on this matrix; the eigen path must not.
        assert!(corrfade_linalg::cholesky(&k).is_err());
    }

    #[test]
    fn validation_rejects_malformed_covariances() {
        assert!(matches!(
            force_positive_semidefinite(&CMatrix::zeros(2, 3)),
            Err(CorrfadeError::NotSquare { .. })
        ));
        assert!(matches!(
            force_positive_semidefinite(&CMatrix::zeros(0, 0)),
            Err(CorrfadeError::EmptyCovariance)
        ));
        let non_herm = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.5, 0.0)],
            vec![c64(0.1, 0.0), c64(1.0, 0.0)],
        ]);
        assert!(matches!(
            force_positive_semidefinite(&non_herm),
            Err(CorrfadeError::NotHermitian { .. })
        ));
        let neg_diag = CMatrix::from_real_slice(2, 2, &[-1.0, 0.0, 0.0, 1.0]);
        assert!(matches!(
            force_positive_semidefinite(&neg_diag),
            Err(CorrfadeError::NegativePower { .. })
        ));
    }
}
