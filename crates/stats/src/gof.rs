//! Goodness-of-fit tests.
//!
//! The paper validates its generator visually (envelope plots) and
//! analytically (Eq. 14–15). The experiment harness replaces the visual check
//! with a quantitative one applied to every generated envelope: a one-sample
//! **Kolmogorov–Smirnov** test against the theoretical Rayleigh CDF.

/// Result of a one-sample Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsTest {
    /// The KS statistic `D_n = sup_x |F̂(x) − F(x)|`.
    pub statistic: f64,
    /// Asymptotic p-value `Pr[D > D_n]` under the null hypothesis.
    pub p_value: f64,
    /// Number of samples.
    pub n: usize,
}

impl KsTest {
    /// `true` when the null hypothesis is **not** rejected at significance
    /// level `alpha`.
    pub fn passes(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

/// Survival function of the Kolmogorov distribution,
/// `Q(λ) = 2·Σ_{k≥1} (−1)^{k−1}·e^{−2k²λ²}`.
fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        if term < 1e-16 {
            break;
        }
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// One-sample Kolmogorov–Smirnov test of `data` against the hypothesized CDF
/// `cdf`.
///
/// # Panics
/// Panics if `data` is empty.
pub fn ks_test(data: &[f64], cdf: impl Fn(f64) -> f64) -> KsTest {
    assert!(!data.is_empty(), "ks_test: empty data");
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
    let n = sorted.len();
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x);
        let before = i as f64 / n as f64;
        let after = (i + 1) as f64 / n as f64;
        d = d.max((f - before).abs()).max((after - f).abs());
    }
    // Asymptotic p-value with the standard finite-n correction.
    let sqrt_n = (n as f64).sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    KsTest {
        statistic: d,
        p_value: kolmogorov_sf(lambda),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_specfun::rayleigh_cdf;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn kolmogorov_sf_reference_values() {
        // Known values of the Kolmogorov distribution.
        assert!((kolmogorov_sf(1.3581015157406195) - 0.05).abs() < 1e-6);
        assert!((kolmogorov_sf(1.2238478702170825) - 0.10).abs() < 1e-6);
        assert!(kolmogorov_sf(0.0) == 1.0);
        assert!(kolmogorov_sf(3.0) < 1e-7);
    }

    #[test]
    fn ks_accepts_samples_from_the_hypothesized_distribution() {
        let mut rng = StdRng::seed_from_u64(1);
        // Uniform(0,1) samples against the uniform CDF.
        let data: Vec<f64> = (0..5000).map(|_| rng.gen::<f64>()).collect();
        let t = ks_test(&data, |x| x.clamp(0.0, 1.0));
        assert!(t.passes(0.01), "KS should accept: {t:?}");
        assert!(t.statistic < 0.03);
        assert_eq!(t.n, 5000);
    }

    #[test]
    fn ks_rejects_samples_from_a_different_distribution() {
        let mut rng = StdRng::seed_from_u64(2);
        // Uniform(0,1)^2 is not uniform.
        let data: Vec<f64> = (0..5000).map(|_| rng.gen::<f64>().powi(2)).collect();
        let t = ks_test(&data, |x| x.clamp(0.0, 1.0));
        assert!(!t.passes(0.01), "KS should reject: {t:?}");
    }

    #[test]
    fn ks_accepts_rayleigh_envelope_of_gaussian_pairs() {
        let mut rng = StdRng::seed_from_u64(3);
        let sigma: f64 = 0.7;
        let mut sampler = corrfade_randn::NormalSampler::default();
        let data: Vec<f64> = (0..20000)
            .map(|_| {
                let x = sampler.sample_with(&mut rng, 0.0, sigma);
                let y = sampler.sample_with(&mut rng, 0.0, sigma);
                (x * x + y * y).sqrt()
            })
            .collect();
        let t = ks_test(&data, |r| rayleigh_cdf(r, sigma));
        assert!(t.passes(0.01), "Rayleigh envelope rejected: {t:?}");
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn ks_empty_panics() {
        let _ = ks_test(&[], |x| x);
    }
}
