//! Descriptive statistics of real-valued samples.
//!
//! These are the primitives the experiment harness uses to check the
//! envelope statistics the paper derives analytically (Eq. 14–15): sample
//! means, variances and higher moments of Rayleigh envelopes and of the
//! real/imaginary parts of the generated complex Gaussian variables.

/// Arithmetic mean. Returns `0.0` for an empty slice.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Population variance (division by `n`). Returns `0.0` for fewer than two
/// samples.
pub fn variance(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64
}

/// Mean of the squares, `E[x²]` — for a zero-mean process this is the power.
pub fn mean_square(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().map(|&x| x * x).sum::<f64>() / data.len() as f64
}

/// Root-mean-square value.
pub fn rms(data: &[f64]) -> f64 {
    mean_square(data).sqrt()
}

/// Sample skewness (third standardized moment). Returns `0.0` when the
/// variance vanishes.
pub fn skewness(data: &[f64]) -> f64 {
    let m = mean(data);
    let v = variance(data);
    if v <= 0.0 || data.is_empty() {
        return 0.0;
    }
    let n = data.len() as f64;
    data.iter().map(|&x| (x - m).powi(3)).sum::<f64>() / n / v.powf(1.5)
}

/// Sample excess-free kurtosis (fourth standardized moment; 3 for a normal
/// distribution). Returns `0.0` when the variance vanishes.
pub fn kurtosis(data: &[f64]) -> f64 {
    let m = mean(data);
    let v = variance(data);
    if v <= 0.0 || data.is_empty() {
        return 0.0;
    }
    let n = data.len() as f64;
    data.iter().map(|&x| (x - m).powi(4)).sum::<f64>() / n / (v * v)
}

/// Minimum value. Returns `f64::NAN` for an empty slice.
pub fn min(data: &[f64]) -> f64 {
    data.iter().copied().fold(f64::NAN, f64::min)
}

/// Maximum value. Returns `f64::NAN` for an empty slice.
pub fn max(data: &[f64]) -> f64 {
    data.iter().copied().fold(f64::NAN, f64::max)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of the data.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]` or the slice is empty.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0, 1], got {q}"
    );
    assert!(!data.is_empty(), "quantile of empty slice");
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Median (the 0.5 quantile).
pub fn median(data: &[f64]) -> f64 {
    quantile(data, 0.5)
}

/// Pearson correlation coefficient between two equally-long real sequences.
///
/// # Panics
/// Panics if the lengths differ.
pub fn pearson_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson_correlation: length mismatch");
    if a.len() < 2 {
        return 0.0;
    }
    let ma = mean(a);
    let mb = mean(b);
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        num += (x - ma) * (y - mb);
        da += (x - ma) * (x - ma);
        db += (y - mb) * (y - mb);
    }
    if da <= 0.0 || db <= 0.0 {
        return 0.0;
    }
    num / (da * db).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((mean(&data) - 3.0).abs() < 1e-15);
        assert!((variance(&data) - 2.0).abs() < 1e-15);
        assert!((mean_square(&data) - 11.0).abs() < 1e-15);
        assert!((rms(&data) - 11.0f64.sqrt()).abs() < 1e-15);
        assert!(skewness(&data).abs() < 1e-12, "symmetric data has no skew");
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(skewness(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(kurtosis(&[2.0, 2.0]), 0.0);
        assert!(min(&[]).is_nan());
        assert!(max(&[]).is_nan());
    }

    #[test]
    fn min_max_median_quantiles() {
        let data = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(min(&data), 1.0);
        assert_eq!(max(&data), 5.0);
        assert_eq!(median(&data), 3.0);
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 1.0), 5.0);
        assert!((quantile(&data, 0.25) - 2.0).abs() < 1e-15);
        assert!((quantile(&data, 0.125) - 1.5).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn quantile_range_checked() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn kurtosis_of_two_point_distribution() {
        // Symmetric ±1 distribution has kurtosis 1.
        let data = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        assert!((kurtosis(&data) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_correlation_limits() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let c = [4.0, 3.0, 2.0, 1.0];
        assert!((pearson_correlation(&a, &b) - 1.0).abs() < 1e-12);
        assert!((pearson_correlation(&a, &c) + 1.0).abs() < 1e-12);
        let flat = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(pearson_correlation(&a, &flat), 0.0);
        assert_eq!(pearson_correlation(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn skewness_of_asymmetric_data_is_positive() {
        let data = [0.0, 0.0, 0.0, 0.0, 10.0];
        assert!(skewness(&data) > 1.0);
    }
}
