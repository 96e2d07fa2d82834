//! Baselines \[2\] and \[3\]: the two-envelope, equal-power generators of
//! Ertel & Reed and of Beaulieu.
//!
//! Both papers predate the general-N methods and generate exactly **two**
//! equal-power correlated Rayleigh envelopes:
//!
//! * **Ertel–Reed \[2\]** — draws an independent pair `(u₁, u₂)` of complex
//!   Gaussians of variance `σ²` and forms `z₁ = u₁`,
//!   `z₂ = ρ*·u₁ + √(1 − |ρ|²)·u₂`, where `ρ` is the desired complex
//!   correlation coefficient of the underlying Gaussians. That is the
//!   lower-triangular coloring
//!   `L = σ·[[1, 0], [ρ*, √(max(0, 1 − |ρ|²))]]` of a unit-variance pair.
//! * **Beaulieu \[3\]** — an equivalent construction restricted to a **real**
//!   correlation coefficient (the in-phase/quadrature rotation used in that
//!   letter cannot produce a complex cross-covariance).
//!
//! Their shortcomings, as listed in the paper's Sec. 1, are reproduced
//! faithfully: `N = 2` only, equal power only, and (for \[3\]) real
//! correlations only.

use corrfade_linalg::{c64, CMatrix, Complex64};

use crate::checks::require_equal_powers;
use crate::error::BaselineError;

/// Checks the two-envelope restrictions on a covariance that passed
/// [`crate::checks::check_covariance`] and builds the Ertel–Reed coloring
/// `L` directly (not through `cholesky`, so that `|ρ| = 1` is accepted).
pub(crate) fn ertel_reed(k: &CMatrix, method: &'static str) -> Result<CMatrix, BaselineError> {
    if k.rows() != 2 {
        return Err(BaselineError::UnsupportedDimension {
            method,
            supported: 2,
            requested: k.rows(),
        });
    }
    let p0 = k[(0, 0)].re;
    if p0 <= 0.0 || k[(1, 1)].re <= 0.0 {
        return Err(BaselineError::Invalid {
            reason: "powers must be strictly positive",
        });
    }
    require_equal_powers(k, method)?;
    let rho = k[(0, 1)].unscale(p0);
    if rho.abs() > 1.0 + 1e-9 {
        return Err(BaselineError::NotPositiveSemidefinite {
            method,
            min_eigenvalue: p0 * (1.0 - rho.abs()),
        });
    }
    let sigma = p0.sqrt();
    let tail = (1.0 - rho.norm_sqr()).max(0.0).sqrt();
    Ok(CMatrix::from_rows(&[
        vec![c64(sigma, 0.0), Complex64::ZERO],
        vec![rho.conj().scale(sigma), c64(sigma * tail, 0.0)],
    ]))
}

/// The Beaulieu coloring: the [`ertel_reed`] one, for a **real**
/// cross-covariance only.
///
/// # Errors
/// In addition to the Ertel–Reed restrictions, a complex cross-covariance
/// is rejected with [`BaselineError::ComplexCovarianceUnsupported`].
pub(crate) fn beaulieu(k: &CMatrix, method: &'static str) -> Result<CMatrix, BaselineError> {
    let coloring = ertel_reed(k, method)?;
    let rho_im = k[(0, 1)].unscale(k[(0, 0)].re).im.abs();
    if rho_im > 1e-9 {
        return Err(BaselineError::ComplexCovarianceUnsupported {
            method,
            max_imaginary: rho_im,
        });
    }
    Ok(coloring)
}

/// Builds the 2×2 equal-power covariance matrix with complex correlation
/// coefficient `rho`.
#[cfg(test)]
pub(crate) fn two_envelope_covariance(sigma_sq: f64, rho: Complex64) -> CMatrix {
    CMatrix::from_rows(&[
        vec![c64(sigma_sq, 0.0), rho.scale(sigma_sq)],
        vec![rho.conj().scale(sigma_sq), c64(sigma_sq, 0.0)],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SnapshotSampler;
    use crate::BaselineMethod;
    use corrfade_stats::{relative_frobenius_error, sample_covariance_from_paths};

    /// Sample covariance of a run of length-2 snapshots.
    fn sample_covariance(snaps: &[Vec<Complex64>]) -> CMatrix {
        let paths: Vec<Vec<Complex64>> = (0..2)
            .map(|j| snaps.iter().map(|s| s[j]).collect())
            .collect();
        sample_covariance_from_paths(&paths)
    }

    #[test]
    fn ertel_reed_achieves_the_desired_complex_correlation() {
        let rho = c64(0.5, 0.3);
        let k = two_envelope_covariance(1.0, rho);
        let coloring = ertel_reed(&k, "Ertel-Reed [2]").unwrap();
        assert!(coloring[(1, 0)].conj().approx_eq(rho, 1e-12));
        let mut g = SnapshotSampler::new(coloring, 11);
        let snaps: Vec<_> = (0..80_000).map(|_| g.sample_gaussian()).collect();
        let khat = sample_covariance(&snaps);
        assert!(relative_frobenius_error(&khat, &k) < 0.03);
    }

    #[test]
    fn ertel_reed_envelopes_are_rayleigh() {
        let k = two_envelope_covariance(2.0, c64(0.7, 0.0));
        let mut g = SnapshotSampler::new(ertel_reed(&k, "Ertel-Reed [2]").unwrap(), 3);
        let env: Vec<f64> = (0..20_000).map(|_| g.sample_gaussian()[1].abs()).collect();
        let sigma = corrfade_stats::rayleigh_scale(2.0);
        let t = corrfade_stats::ks_test(&env, |r| corrfade_specfun::rayleigh_cdf(r, sigma));
        assert!(t.passes(0.001), "{t:?}");
    }

    #[test]
    fn ertel_reed_rejects_more_than_two_envelopes() {
        let k = corrfade_models::paper_covariance_matrix_22();
        assert!(matches!(
            BaselineMethod::ErtelReed.try_generate(&k, 1),
            Err(BaselineError::UnsupportedDimension {
                supported: 2,
                requested: 3,
                ..
            })
        ));
    }

    #[test]
    fn ertel_reed_rejects_unequal_powers() {
        let k = CMatrix::from_real_slice(2, 2, &[1.0, 0.3, 0.3, 2.0]);
        assert!(matches!(
            BaselineMethod::ErtelReed.try_generate(&k, 1),
            Err(BaselineError::UnequalPowersUnsupported { .. })
        ));
    }

    #[test]
    fn ertel_reed_rejects_infeasible_correlation() {
        let k = two_envelope_covariance(1.0, c64(0.9, 0.9));
        assert!(matches!(
            BaselineMethod::ErtelReed.try_generate(&k, 1),
            Err(BaselineError::NotPositiveSemidefinite { .. })
        ));
        // |ρ| = 1 is the feasible edge: singular, so no Cholesky factor,
        // but the closed-form coloring exists and z₂ = ρ*·z₁.
        let edge = two_envelope_covariance(1.0, c64(0.6, 0.8));
        let z = BaselineMethod::ErtelReed.try_generate(&edge, 1).unwrap();
        assert!(z[1].approx_eq(c64(0.6, -0.8) * z[0], 1e-12));
    }

    #[test]
    fn beaulieu_accepts_real_and_rejects_complex_correlation() {
        let real_k = two_envelope_covariance(1.0, c64(0.6, 0.0));
        let mut g = SnapshotSampler::new(beaulieu(&real_k, "Beaulieu [3]").unwrap(), 5);
        let snaps: Vec<_> = (0..60_000).map(|_| g.sample_gaussian()).collect();
        let khat = sample_covariance(&snaps);
        assert!(relative_frobenius_error(&khat, &real_k) < 0.03);

        let complex_k = two_envelope_covariance(1.0, c64(0.4, 0.4));
        assert!(matches!(
            BaselineMethod::Beaulieu.try_generate(&complex_k, 5),
            Err(BaselineError::ComplexCovarianceUnsupported { .. })
        ));
    }

    #[test]
    fn malformed_inputs_rejected() {
        let er = BaselineMethod::ErtelReed;
        assert!(er.try_generate(&CMatrix::zeros(0, 0), 1).is_err());
        let non_herm = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.5, 0.0)],
            vec![c64(0.2, 0.0), c64(1.0, 0.0)],
        ]);
        assert!(er.try_generate(&non_herm, 1).is_err());
        let bad_power = CMatrix::from_real_slice(2, 2, &[0.0, 0.0, 0.0, 0.0]);
        assert!(er.try_generate(&bad_power, 1).is_err());
    }
}
