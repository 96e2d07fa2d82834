//! Rayleigh-distribution helpers and the paper's power-conversion relations.
//!
//! The paper works with two notions of "power":
//!
//! * `σ_g²` — the variance (power) of the complex Gaussian variable
//!   `z = x + iy`, i.e. `E|z|²`,
//! * `σ_r²` — the variance of the Rayleigh envelope `r = |z|`.
//!
//! They are linked by Eq. (11), (14), (15):
//!
//! ```text
//! E[r]      = σ_g·√(π)/2        ≈ 0.8862·σ_g      (Eq. 14)
//! Var[r]    = σ_g²·(1 − π/4)    ≈ 0.2146·σ_g²     (Eq. 15)
//! σ_g²      = σ_r² / (1 − π/4)                     (Eq. 11)
//! ```
//!
//! In the classical parameterization `Rayleigh(σ)` (σ = mode), the envelope
//! of a complex Gaussian with total variance `σ_g²` has `σ = σ_g/√2`.

use core::f64::consts::PI;

/// Theoretical mean of the envelope `r = |z|` for a complex Gaussian with
/// total variance `sigma_g_sq` (paper Eq. 14).
pub fn envelope_mean(sigma_g_sq: f64) -> f64 {
    assert!(sigma_g_sq >= 0.0, "variance must be non-negative");
    sigma_g_sq.sqrt() * PI.sqrt() / 2.0
}

/// Theoretical variance of the envelope (paper Eq. 15).
pub fn envelope_variance(sigma_g_sq: f64) -> f64 {
    assert!(sigma_g_sq >= 0.0, "variance must be non-negative");
    sigma_g_sq * (1.0 - PI / 4.0)
}

/// Theoretical mean-square (power) of the envelope, `E[r²] = σ_g²`.
pub(crate) fn envelope_mean_square(sigma_g_sq: f64) -> f64 {
    assert!(sigma_g_sq >= 0.0, "variance must be non-negative");
    sigma_g_sq
}

/// Converts a desired Rayleigh-envelope variance `σ_r²` into the complex
/// Gaussian variance `σ_g²` the generator must use (paper Eq. 11).
pub fn gaussian_variance_from_envelope_variance(sigma_r_sq: f64) -> f64 {
    assert!(sigma_r_sq >= 0.0, "variance must be non-negative");
    sigma_r_sq / (1.0 - PI / 4.0)
}

/// Classical Rayleigh scale parameter `σ` (the mode) of the envelope of a
/// complex Gaussian with total variance `sigma_g_sq`: `σ = σ_g/√2`.
pub fn rayleigh_scale(sigma_g_sq: f64) -> f64 {
    assert!(sigma_g_sq >= 0.0, "variance must be non-negative");
    (sigma_g_sq / 2.0).sqrt()
}

/// Summary of how closely an envelope sample matches the Rayleigh statistics
/// predicted by the paper for a given `σ_g²`.
#[derive(Debug, Clone, Copy)]
pub struct EnvelopeMomentCheck {
    /// Sample mean of the envelope.
    pub sample_mean: f64,
    /// Theoretical mean `0.8862·σ_g` (Eq. 14).
    pub theoretical_mean: f64,
    /// Sample variance of the envelope.
    pub sample_variance: f64,
    /// Theoretical variance `0.2146·σ_g²` (Eq. 15).
    pub theoretical_variance: f64,
    /// Sample mean square (power) of the envelope.
    pub sample_power: f64,
    /// Theoretical power `σ_g²`.
    pub theoretical_power: f64,
}

impl EnvelopeMomentCheck {
    /// Largest relative deviation among mean, variance and power.
    pub fn max_relative_error(&self) -> f64 {
        let e1 = relative_error(self.sample_mean, self.theoretical_mean);
        let e2 = relative_error(self.sample_variance, self.theoretical_variance);
        let e3 = relative_error(self.sample_power, self.theoretical_power);
        e1.max(e2).max(e3)
    }
}

fn relative_error(measured: f64, expected: f64) -> f64 {
    if expected == 0.0 {
        measured.abs()
    } else {
        (measured - expected).abs() / expected.abs()
    }
}

/// Compares the sample moments of an envelope sequence against the
/// theoretical Rayleigh moments for a complex Gaussian variance `sigma_g_sq`.
///
/// # Panics
/// Panics if `envelope` is empty.
pub fn check_envelope_moments(envelope: &[f64], sigma_g_sq: f64) -> EnvelopeMomentCheck {
    assert!(!envelope.is_empty(), "check_envelope_moments: empty data");
    let sample_mean = crate::descriptive::mean(envelope);
    let sample_variance = crate::descriptive::variance(envelope);
    let sample_power = crate::descriptive::mean_square(envelope);
    EnvelopeMomentCheck {
        sample_mean,
        theoretical_mean: envelope_mean(sigma_g_sq),
        sample_variance,
        theoretical_variance: envelope_variance(sigma_g_sq),
        sample_power,
        theoretical_power: envelope_mean_square(sigma_g_sq),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        // Eq. (14): E{r} = 0.8862 σg for σg = 1.
        assert!((envelope_mean(1.0) - 0.8862).abs() < 1e-4);
        // Eq. (15): Var{r} = 0.2146 σg².
        assert!((envelope_variance(1.0) - 0.2146).abs() < 1e-4);
        assert_eq!(envelope_mean_square(2.5), 2.5);
    }

    #[test]
    fn power_conversion_round_trip() {
        // Eq. (11) composed with Eq. (15) must be the identity.
        for &sr2 in &[0.1, 1.0, 3.7] {
            let sg2 = gaussian_variance_from_envelope_variance(sr2);
            assert!((envelope_variance(sg2) - sr2).abs() < 1e-12);
        }
        // Explicit constant: 1/(1 - π/4) ≈ 4.6598.
        assert!((gaussian_variance_from_envelope_variance(1.0) - 4.659792366325487).abs() < 1e-9);
    }

    #[test]
    fn mean_and_variance_consistent_with_envelope_power() {
        // E[r²] = Var[r] + E[r]² = σg².
        let sg2 = 1.8;
        let total = envelope_variance(sg2) + envelope_mean(sg2).powi(2);
        assert!((total - sg2).abs() < 1e-12);
    }

    #[test]
    fn scale_relation() {
        assert!((rayleigh_scale(2.0) - 1.0).abs() < 1e-12);
        assert!((rayleigh_scale(1.0) - core::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn moment_check_on_synthetic_rayleigh_data() {
        // Deterministic construction: envelopes drawn via inverse-CDF from a
        // uniform grid are "perfectly Rayleigh".
        let sigma_g_sq = 2.0;
        let sigma = rayleigh_scale(sigma_g_sq);
        let n = 200_000;
        let data: Vec<f64> = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                sigma * (-2.0 * (1.0 - u).ln()).sqrt()
            })
            .collect();
        let check = check_envelope_moments(&data, sigma_g_sq);
        assert!(
            check.max_relative_error() < 0.01,
            "moment check failed: {check:?}"
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_variance_rejected() {
        let _ = envelope_mean(-1.0);
    }
}
