//! Baselines \[4\] and \[5\]: Cholesky colorings.
//!
//! * **Beaulieu & Merani \[4\]** — generalizes the two-envelope method to
//!   `N ≥ 2` **equal-power** envelopes by Cholesky-factorizing the desired
//!   covariance matrix. Requires positive definiteness.
//! * **Natarajan, Nassar & Chandrasekhar \[5\]** — allows **unequal** powers,
//!   but (a) still relies on Cholesky factorization and (b) forces the
//!   covariances of the complex Gaussians to be **real** (Eq. 8 of that
//!   letter), which biases the result whenever the true covariances are
//!   complex (e.g. the paper's Eq. 22 scenario).
//!
//! Both are reproduced with their original restrictions so that the
//! experiment harness can chart exactly where they fail and by how much.

use corrfade_linalg::{c64, CMatrix};

use crate::checks::{cholesky_or_error, require_equal_powers};
use crate::error::BaselineError;

/// The Beaulieu–Merani coloring (baseline \[4\]): the Cholesky factor of an
/// equal-power `K`.
///
/// # Errors
/// Unequal powers and non-positive-definite covariances are rejected —
/// the two restrictions the paper's Sec. 1 attributes to this method.
pub(crate) fn beaulieu_merani(k: &CMatrix, method: &'static str) -> Result<CMatrix, BaselineError> {
    require_equal_powers(k, method)?;
    cholesky_or_error(k, method)
}

/// The Natarajan–Nassar–Chandrasekhar coloring (baseline \[5\]),
/// **rejecting** covariance matrices with significant imaginary parts (the
/// honest behaviour: the method cannot represent them).
///
/// # Errors
/// [`BaselineError::ComplexCovarianceUnsupported`] when an off-diagonal
/// entry has `|Im| > 1e−9` (relative), plus the Cholesky failure.
pub(crate) fn natarajan(k: &CMatrix, method: &'static str) -> Result<CMatrix, BaselineError> {
    let max_imag = (0..k.rows())
        .flat_map(|i| (0..k.cols()).map(move |j| (i, j)))
        .filter(|&(i, j)| i != j)
        .map(|(i, j)| k[(i, j)].im.abs())
        .fold(0.0f64, f64::max);
    if max_imag > 1e-9 * k.max_abs().max(1.0) {
        return Err(BaselineError::ComplexCovarianceUnsupported {
            method,
            max_imaginary: max_imag,
        });
    }
    natarajan_lossy(k, method)
}

/// Ref. \[5\] the way it actually behaves on complex covariances: the
/// imaginary parts are silently dropped (`K ← Re(K)`) and `Re(K)` is
/// Cholesky-factorized.
pub(crate) fn natarajan_lossy(k: &CMatrix, method: &'static str) -> Result<CMatrix, BaselineError> {
    let realified = CMatrix::from_fn(k.rows(), k.cols(), |i, j| c64(k[(i, j)].re, 0.0));
    cholesky_or_error(&realified, method)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};
    use corrfade_stats::relative_frobenius_error;

    use crate::sampler::stream_covariance;
    use crate::{natarajan_lossy_stream, BaselineMethod};

    #[test]
    fn beaulieu_merani_reproduces_equal_power_pd_covariance() {
        let k = paper_covariance_matrix_23();
        let mut g = BaselineMethod::BeaulieuMerani.try_stream(&k, 2).unwrap();
        assert_eq!(g.dimension(), 3);
        let khat = stream_covariance(g.as_mut(), 59);
        assert!(relative_frobenius_error(&khat, &k) < 0.04);
    }

    #[test]
    fn beaulieu_merani_rejects_unequal_powers_and_singular_matrices() {
        let unequal = CMatrix::from_real_slice(2, 2, &[1.0, 0.1, 0.1, 3.0]);
        assert!(matches!(
            BaselineMethod::BeaulieuMerani.try_generate(&unequal, 1),
            Err(BaselineError::UnequalPowersUnsupported { .. })
        ));
        let singular = CMatrix::from_real_slice(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        assert!(matches!(
            BaselineMethod::BeaulieuMerani.try_generate(&singular, 1),
            Err(BaselineError::CholeskyFailed { .. })
        ));
    }

    #[test]
    fn natarajan_supports_unequal_powers_with_real_covariances() {
        let k = CMatrix::from_real_slice(3, 3, &[2.0, 0.4, 0.1, 0.4, 1.0, 0.3, 0.1, 0.3, 0.5]);
        let mut g = BaselineMethod::Natarajan.try_stream(&k, 4).unwrap();
        let khat = stream_covariance(g.as_mut(), 59);
        assert!(relative_frobenius_error(&khat, &k) < 0.04);
    }

    #[test]
    fn natarajan_rejects_complex_covariances_honestly() {
        let k = paper_covariance_matrix_22();
        assert!(matches!(
            BaselineMethod::Natarajan.try_generate(&k, 1),
            Err(BaselineError::ComplexCovarianceUnsupported { .. })
        ));
    }

    #[test]
    fn natarajan_lossy_mode_is_biased_on_complex_covariances() {
        // E10's quantitative point: dropping the imaginary parts realizes the
        // wrong covariance matrix.
        let k = paper_covariance_matrix_22();
        let mut g = natarajan_lossy_stream(&k, 7).unwrap();
        assert_eq!(g.dimension(), 3);
        let khat = stream_covariance(g.as_mut(), 59);
        let realified = CMatrix::from_fn(3, 3, |i, j| c64(k[(i, j)].re, 0.0));
        // It converges to Re(K) ...
        assert!(relative_frobenius_error(&khat, &realified) < 0.04);
        // ... which is far from the true target K.
        assert!(relative_frobenius_error(&realified, &k) > 0.2);
    }

    #[test]
    fn malformed_inputs_rejected() {
        let non_herm = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.5, 0.0)],
            vec![c64(0.2, 0.0), c64(1.0, 0.0)],
        ]);
        assert!(BaselineMethod::BeaulieuMerani
            .try_generate(&non_herm, 1)
            .is_err());
        assert!(BaselineMethod::Natarajan
            .try_generate(&CMatrix::zeros(0, 0), 1)
            .is_err());
    }
}
