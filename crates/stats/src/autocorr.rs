//! Autocorrelation estimation.
//!
//! The real-time experiments (E6, E8) verify that each generated fading
//! process has the normalized autocorrelation `J₀(2π·f_m·d)` predicted by
//! Eq. (16)–(20) of the paper.

use corrfade_linalg::Complex64;

/// Biased sample autocorrelation of a complex sequence at lags
/// `0 … max_lag`: `r[d] = (1/L)·Σ_{l} u[l+d]·conj(u[l])`.
///
/// The biased (divide-by-`L`) estimator is used because it guarantees a
/// positive semi-definite correlation sequence, matching the convention of
/// ref. \[7\].
///
/// # Panics
/// Panics if `data` is empty or `max_lag >= data.len()`.
pub(crate) fn autocorrelation(data: &[Complex64], max_lag: usize) -> Vec<Complex64> {
    assert!(!data.is_empty(), "autocorrelation: empty data");
    assert!(
        max_lag < data.len(),
        "autocorrelation: max_lag {max_lag} must be < data length {}",
        data.len()
    );
    let l = data.len();
    (0..=max_lag)
        .map(|d| {
            let mut acc = Complex64::ZERO;
            for i in 0..(l - d) {
                acc += data[i + d] * data[i].conj();
            }
            acc.unscale(l as f64)
        })
        .collect()
}

/// Normalized autocorrelation `r[d]/r[0]` (real part), the quantity compared
/// against the `J₀(2π·f_m·d)` target.
///
/// # Panics
/// Panics if `data` is empty, `max_lag >= data.len()`, or the zero-lag
/// power vanishes.
pub fn normalized_autocorrelation(data: &[Complex64], max_lag: usize) -> Vec<f64> {
    let r = autocorrelation(data, max_lag);
    let r0 = r[0].re;
    assert!(r0 > 0.0, "normalized_autocorrelation: zero power sequence");
    r.iter().map(|c| c.re / r0).collect()
}

/// Maximum absolute deviation between an estimated normalized
/// autocorrelation and a theoretical target over the common lag range.
pub fn max_autocorrelation_deviation(estimated: &[f64], target: &[f64]) -> f64 {
    estimated
        .iter()
        .zip(target.iter())
        .map(|(&a, &b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_linalg::c64;

    #[test]
    fn zero_lag_is_the_power() {
        let data = vec![c64(1.0, 1.0), c64(2.0, 0.0), c64(0.0, -1.0)];
        let r = autocorrelation(&data, 0);
        let power: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / 3.0;
        assert!((r[0].re - power).abs() < 1e-12);
        assert!(r[0].im.abs() < 1e-12);
    }

    #[test]
    fn constant_sequence_has_flat_triangular_autocorrelation() {
        let data = vec![c64(1.0, 0.0); 10];
        let r = autocorrelation(&data, 5);
        for (d, &rd) in r.iter().enumerate() {
            // Biased estimator: r[d] = (L-d)/L.
            assert!((rd.re - (10 - d) as f64 / 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn complex_exponential_has_rotating_autocorrelation() {
        let omega = 0.3;
        let data: Vec<Complex64> = (0..2000)
            .map(|l| Complex64::cis(omega * l as f64))
            .collect();
        let r = normalized_autocorrelation(&data, 10);
        for (d, &rd) in r.iter().enumerate() {
            // The real part of the normalized autocorrelation is cos(ω d)
            // up to the small bias of the estimator.
            assert!(
                (rd - (omega * d as f64).cos()).abs() < 0.02,
                "lag {d}: {rd} vs {}",
                (omega * d as f64).cos()
            );
        }
    }

    #[test]
    fn deviation_metric() {
        let a = [1.0, 0.5, 0.2];
        let b = [1.0, 0.4, 0.25];
        assert!((max_autocorrelation_deviation(&a, &b) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "max_lag")]
    fn out_of_range_lag_panics() {
        let _ = autocorrelation(&[Complex64::ZERO], 1);
    }
}
