//! Free functions on complex and real vectors (slices).
//!
//! The generators in `corrfade` shuttle sample vectors around as plain
//! `Vec<Complex64>` / `&[Complex64]`; these helpers provide the inner
//! products and the deviation metric used by the matrix routines and the
//! scalar kernel without forcing a dedicated vector type on the public API.

use crate::complex::Complex64;

/// Unconjugated dot product `Σ aᵢ·bᵢ`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub(crate) fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    a.iter()
        .zip(b.iter())
        .fold(Complex64::ZERO, |acc, (&x, &y)| x.mul_add(y, acc))
}

/// Maximum absolute deviation between two complex vectors.
///
/// # Panics
/// Panics if the slices have different lengths.
pub(crate) fn max_abs_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn dot_products() {
        let a = vec![c64(1.0, 1.0), c64(2.0, 0.0)];
        let b = vec![c64(0.0, 1.0), c64(1.0, -1.0)];
        // dot = (1+i)(i) + 2(1-i) = (i - 1) + (2 - 2i) = 1 - i
        assert!(dot(&a, &b).approx_eq(c64(1.0, -1.0), 1e-12));
    }

    #[test]
    fn max_abs_diff_works() {
        let a = vec![c64(1.0, 0.0), c64(0.0, 1.0)];
        let b = vec![c64(1.0, 0.0), c64(0.0, 3.0)];
        assert!((max_abs_diff(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = dot(&[c64(1.0, 0.0)], &[]);
    }
}
