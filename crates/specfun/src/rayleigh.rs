//! The Rayleigh CDF.
//!
//! The statistics crate tests every generated envelope against it with a
//! one-sample Kolmogorov–Smirnov test.

/// CDF of the Rayleigh distribution with scale `sigma` (mode):
/// `F(r) = 1 − exp(−r²/(2σ²))` for `r ≥ 0`.
///
/// In the paper's notation an envelope `r = |z|` of a complex Gaussian with
/// total variance `σg²` is Rayleigh with scale `σ = σg/√2`.
pub fn rayleigh_cdf(r: f64, sigma: f64) -> f64 {
    assert!(sigma > 0.0, "rayleigh_cdf requires sigma > 0");
    if r <= 0.0 {
        0.0
    } else {
        -(-r * r / (2.0 * sigma * sigma)).exp_m1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rayleigh_cdf_properties() {
        assert_eq!(rayleigh_cdf(-1.0, 1.0), 0.0);
        assert_eq!(rayleigh_cdf(0.0, 1.0), 0.0);
        // Median of Rayleigh(sigma) is sigma*sqrt(2 ln 2).
        let sigma = 1.7;
        let median = sigma * (2.0f64 * (2.0f64).ln()).sqrt();
        assert!((rayleigh_cdf(median, sigma) - 0.5).abs() < 1e-12);
        assert!(rayleigh_cdf(1e9, sigma) <= 1.0);
        assert!((rayleigh_cdf(1e3, sigma) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sigma > 0")]
    fn rayleigh_cdf_rejects_bad_sigma() {
        let _ = rayleigh_cdf(1.0, 0.0);
    }
}
