//! Desired-power specification (step 1 of the algorithm, paper Eq. 11).
//!
//! The user can start either from the desired powers of the **Rayleigh
//! envelopes** (`σ_r²`, what a link-budget usually specifies) or from the
//! powers of the underlying **complex Gaussian** variables (`σ_g²`, what the
//! covariance matrix contains on its diagonal). Eq. (11) converts the first
//! into the second:
//!
//! ```text
//! σ_g² = σ_r² / (1 − π/4)
//! ```

use corrfade_stats::gaussian_variance_from_envelope_variance;

use crate::error::CorrfadeError;

/// How the per-envelope powers are specified.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PowerSpec {
    /// Powers of the complex Gaussian variables, `σ_g²_j` (used directly on
    /// the diagonal of the covariance matrix).
    Gaussian(Vec<f64>),
    /// Desired variances of the Rayleigh envelopes, `σ_r²_j`; converted by
    /// Eq. (11).
    Envelope(Vec<f64>),
}

impl PowerSpec {
    /// Resolves the specification into the Gaussian powers `σ_g²_j` that go
    /// on the diagonal of the covariance matrix (applying Eq. 11 where
    /// needed).
    ///
    /// # Errors
    /// [`CorrfadeError::NegativePower`] if any power is negative or NaN,
    /// [`CorrfadeError::EmptyCovariance`] if the list is empty.
    pub(crate) fn gaussian_powers(&self) -> Result<Vec<f64>, CorrfadeError> {
        let raw = match self {
            PowerSpec::Gaussian(v) | PowerSpec::Envelope(v) => v,
        };
        if raw.is_empty() {
            return Err(CorrfadeError::EmptyCovariance);
        }
        for (i, &p) in raw.iter().enumerate() {
            if p < 0.0 || p.is_nan() {
                return Err(CorrfadeError::NegativePower { index: i, value: p });
            }
        }
        Ok(match self {
            PowerSpec::Gaussian(v) => v.clone(),
            PowerSpec::Envelope(v) => v
                .iter()
                .map(|&sr2| gaussian_variance_from_envelope_variance(sr2))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_spec_passes_through() {
        let p = PowerSpec::Gaussian(vec![1.0, 2.0]);
        assert_eq!(p.gaussian_powers().unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn envelope_spec_applies_eq_11() {
        let p = PowerSpec::Envelope(vec![1.0]);
        let g = p.gaussian_powers().unwrap();
        assert!((g[0] - 1.0 / (1.0 - core::f64::consts::PI / 4.0)).abs() < 1e-12);
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(matches!(
            PowerSpec::Gaussian(vec![]).gaussian_powers(),
            Err(CorrfadeError::EmptyCovariance)
        ));
        assert!(matches!(
            PowerSpec::Envelope(vec![1.0, -2.0]).gaussian_powers(),
            Err(CorrfadeError::NegativePower { index: 1, .. })
        ));
        assert!(matches!(
            PowerSpec::Gaussian(vec![f64::NAN]).gaussian_powers(),
            Err(CorrfadeError::NegativePower { index: 0, .. })
        ));
    }
}
