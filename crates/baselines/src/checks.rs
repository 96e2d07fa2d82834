//! The input checks the baselines share.

use corrfade_linalg::{cholesky, CMatrix, LinalgError};

use crate::error::BaselineError;

/// Rejects what no method accepts: a matrix that is not square, is empty,
/// has a NaN or infinite entry, or is not Hermitian.
pub(crate) fn check_covariance(k: &CMatrix) -> Result<(), BaselineError> {
    if !k.is_square() || k.rows() == 0 {
        return Err(BaselineError::Invalid {
            reason: "covariance matrix must be square and non-empty",
        });
    }
    // Checked before the Hermitian test, which NaN entries would pass.
    if k.first_non_finite().is_some() {
        return Err(BaselineError::Invalid {
            reason: "covariance matrix entries must be finite",
        });
    }
    if !k.is_hermitian(1e-9 * k.max_abs().max(1.0)) {
        return Err(BaselineError::Invalid {
            reason: "covariance matrix must be Hermitian",
        });
    }
    Ok(())
}

/// The equal-power restriction of refs \[1\]–\[4\] and \[6\]: every
/// diagonal entry must equal the first to within `1e-9` (relative).
pub(crate) fn require_equal_powers(k: &CMatrix, method: &'static str) -> Result<(), BaselineError> {
    let p0 = k[(0, 0)].re;
    if (0..k.rows()).any(|i| (k[(i, i)].re - p0).abs() > 1e-9 * p0.abs().max(1.0)) {
        return Err(BaselineError::UnequalPowersUnsupported { method });
    }
    Ok(())
}

/// The Cholesky factor of `k`; a non-positive pivot is the method's
/// positive-definiteness restriction, [`BaselineError::CholeskyFailed`].
pub(crate) fn cholesky_or_error(
    k: &CMatrix,
    method: &'static str,
) -> Result<CMatrix, BaselineError> {
    cholesky(k).map_err(|e| match e {
        LinalgError::NotPositiveDefinite { pivot, .. } => {
            BaselineError::CholeskyFailed { method, pivot }
        }
        _ => BaselineError::Invalid {
            reason: "Cholesky factorization failed",
        },
    })
}
