//! Descriptive statistics of real-valued samples.
//!
//! These are the primitives the experiment harness uses to check the
//! envelope statistics the paper derives analytically (Eq. 14–15): sample
//! means, variances and correlations of Rayleigh envelopes and of the
//! real/imaginary parts of the generated complex Gaussian variables.

/// Arithmetic mean. Returns `0.0` for an empty slice.
pub(crate) fn mean(data: &[f64]) -> f64 {
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
pub(crate) fn rms(data: &[f64]) -> f64 {
    mean_square(data).sqrt()
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
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
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
}
