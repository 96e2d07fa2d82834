//! Baselines \[2\] and \[3\]: the two-envelope, equal-power generators of
//! Ertel & Reed and of Beaulieu.
//!
//! Both papers predate the general-N methods and generate exactly **two**
//! equal-power correlated Rayleigh envelopes:
//!
//! * **Ertel–Reed \[2\]** — draws an independent pair `(u₁, u₂)` of unit
//!   complex Gaussians and forms `z₁ = u₁`,
//!   `z₂ = ρ*·u₁ + √(1 − |ρ|²)·u₂`, where `ρ` is the desired complex
//!   correlation coefficient of the underlying Gaussians.
//! * **Beaulieu \[3\]** — an equivalent construction restricted to a **real**
//!   correlation coefficient (the in-phase/quadrature rotation used in that
//!   letter cannot produce a complex cross-covariance).
//!
//! Their shortcomings, as listed in the paper's Sec. 1, are reproduced
//! faithfully: `N = 2` only, equal power only, and (for \[3\]) real
//! correlations only.

use corrfade_linalg::{CMatrix, Complex64};
use corrfade_randn::{ComplexGaussian, RandomStream};

use crate::error::BaselineError;

/// Checks the target covariance and extracts `(σ², ρ)` for a two-envelope
/// equal-power generator.
fn extract_two_envelope_params(
    k: &CMatrix,
    method: &'static str,
) -> Result<(f64, Complex64), BaselineError> {
    if !k.is_square() || k.rows() == 0 {
        return Err(BaselineError::Invalid {
            reason: "covariance matrix must be square and non-empty",
        });
    }
    if k.rows() != 2 {
        return Err(BaselineError::UnsupportedDimension {
            method,
            supported: 2,
            requested: k.rows(),
        });
    }
    if !k.is_hermitian(1e-9 * k.max_abs().max(1.0)) {
        return Err(BaselineError::Invalid {
            reason: "covariance matrix must be Hermitian",
        });
    }
    let p0 = k[(0, 0)].re;
    let p1 = k[(1, 1)].re;
    if p0 <= 0.0 || p1 <= 0.0 {
        return Err(BaselineError::Invalid {
            reason: "powers must be strictly positive",
        });
    }
    if (p0 - p1).abs() > 1e-9 * p0.max(1.0) {
        return Err(BaselineError::UnequalPowersUnsupported { method });
    }
    let rho = k[(0, 1)].unscale(p0);
    if rho.abs() > 1.0 + 1e-9 {
        return Err(BaselineError::NotPositiveSemidefinite {
            method,
            min_eigenvalue: p0 * (1.0 - rho.abs()),
        });
    }
    Ok((p0, rho))
}

/// The Ertel–Reed two-envelope generator (baseline \[2\]).
#[derive(Debug, Clone)]
pub(crate) struct ErtelReedGenerator {
    sigma_sq: f64,
    rho: Complex64,
    rng: RandomStream,
    gaussian: ComplexGaussian,
}

impl ErtelReedGenerator {
    /// Builds the generator from the desired 2×2 covariance matrix of the
    /// complex Gaussians.
    ///
    /// # Errors
    /// See [`BaselineError`]; N ≠ 2 and unequal powers are rejected.
    pub(crate) fn new(k: &CMatrix, seed: u64) -> Result<Self, BaselineError> {
        let (sigma_sq, rho) = extract_two_envelope_params(k, "Ertel-Reed [2]")?;
        Ok(Self {
            sigma_sq,
            rho,
            rng: RandomStream::new(seed),
            gaussian: ComplexGaussian::default(),
        })
    }

    /// Draws one correlated complex Gaussian pair.
    pub(crate) fn sample_gaussian(&mut self) -> Vec<Complex64> {
        let u1 = self.gaussian.sample(&mut self.rng, self.sigma_sq);
        let u2 = self.gaussian.sample(&mut self.rng, self.sigma_sq);
        // z2 = conj(rho)·u1 + sqrt(1-|rho|²)·u2 so that E[z1·conj(z2)] = rho·σ².
        let z2 = self.rho.conj() * u1 + u2.scale((1.0 - self.rho.norm_sqr()).max(0.0).sqrt());
        vec![u1, z2]
    }
}

/// The Beaulieu two-envelope generator (baseline \[3\]), which additionally
/// requires the cross-covariance to be **real**.
#[derive(Debug, Clone)]
pub(crate) struct BeaulieuGenerator {
    inner: ErtelReedGenerator,
}

impl BeaulieuGenerator {
    /// Builds the generator from the desired 2×2 covariance matrix.
    ///
    /// # Errors
    /// In addition to the [`ErtelReedGenerator`] restrictions, a complex
    /// cross-covariance is rejected with
    /// [`BaselineError::ComplexCovarianceUnsupported`].
    pub(crate) fn new(k: &CMatrix, seed: u64) -> Result<Self, BaselineError> {
        let (_, rho) = extract_two_envelope_params(k, "Beaulieu [3]")?;
        if rho.im.abs() > 1e-9 {
            return Err(BaselineError::ComplexCovarianceUnsupported {
                method: "Beaulieu [3]",
                max_imaginary: rho.im.abs(),
            });
        }
        Ok(Self {
            inner: ErtelReedGenerator::new(k, seed)?,
        })
    }

    /// Draws one correlated complex Gaussian pair.
    pub(crate) fn sample_gaussian(&mut self) -> Vec<Complex64> {
        self.inner.sample_gaussian()
    }
}

/// Builds the 2×2 equal-power covariance matrix with complex correlation
/// coefficient `rho`.
#[cfg(test)]
pub(crate) fn two_envelope_covariance(sigma_sq: f64, rho: Complex64) -> CMatrix {
    CMatrix::from_rows(&[
        vec![corrfade_linalg::c64(sigma_sq, 0.0), rho.scale(sigma_sq)],
        vec![
            rho.conj().scale(sigma_sq),
            corrfade_linalg::c64(sigma_sq, 0.0),
        ],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_linalg::c64;
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
        let mut g = ErtelReedGenerator::new(&k, 11).unwrap();
        assert!(g.rho.approx_eq(rho, 1e-12));
        let snaps: Vec<_> = (0..80_000).map(|_| g.sample_gaussian()).collect();
        let khat = sample_covariance(&snaps);
        assert!(relative_frobenius_error(&khat, &k) < 0.03);
    }

    #[test]
    fn ertel_reed_envelopes_are_rayleigh() {
        let k = two_envelope_covariance(2.0, c64(0.7, 0.0));
        let mut g = ErtelReedGenerator::new(&k, 3).unwrap();
        let env: Vec<f64> = (0..20_000).map(|_| g.sample_gaussian()[1].abs()).collect();
        let sigma = corrfade_stats::rayleigh_scale(2.0);
        let t = corrfade_stats::ks_test(&env, |r| corrfade_specfun::rayleigh_cdf(r, sigma));
        assert!(t.passes(0.001), "{t:?}");
    }

    #[test]
    fn ertel_reed_rejects_more_than_two_envelopes() {
        let k = corrfade_models::paper_covariance_matrix_22();
        assert!(matches!(
            ErtelReedGenerator::new(&k, 1),
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
            ErtelReedGenerator::new(&k, 1),
            Err(BaselineError::UnequalPowersUnsupported { .. })
        ));
    }

    #[test]
    fn ertel_reed_rejects_infeasible_correlation() {
        let k = two_envelope_covariance(1.0, c64(0.9, 0.9));
        assert!(matches!(
            ErtelReedGenerator::new(&k, 1),
            Err(BaselineError::NotPositiveSemidefinite { .. })
        ));
    }

    #[test]
    fn beaulieu_accepts_real_and_rejects_complex_correlation() {
        let real_k = two_envelope_covariance(1.0, c64(0.6, 0.0));
        let mut g = BeaulieuGenerator::new(&real_k, 5).unwrap();
        let snaps: Vec<_> = (0..60_000).map(|_| g.sample_gaussian()).collect();
        let khat = sample_covariance(&snaps);
        assert!(relative_frobenius_error(&khat, &real_k) < 0.03);

        let complex_k = two_envelope_covariance(1.0, c64(0.4, 0.4));
        assert!(matches!(
            BeaulieuGenerator::new(&complex_k, 5),
            Err(BaselineError::ComplexCovarianceUnsupported { .. })
        ));
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(ErtelReedGenerator::new(&CMatrix::zeros(0, 0), 1).is_err());
        let non_herm = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.5, 0.0)],
            vec![c64(0.2, 0.0), c64(1.0, 0.0)],
        ]);
        assert!(ErtelReedGenerator::new(&non_herm, 1).is_err());
        let bad_power = CMatrix::from_real_slice(2, 2, &[0.0, 0.0, 0.0, 0.0]);
        assert!(ErtelReedGenerator::new(&bad_power, 1).is_err());
    }
}
