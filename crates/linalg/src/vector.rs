//! Free functions on complex and real vectors (slices).
//!
//! The generators in `corrfade` shuttle sample vectors around as plain
//! `Vec<Complex64>` / `&[Complex64]`; these helpers provide the inner
//! products, norms and element-wise kernels used by the matrix routines and
//! by the statistics crate without forcing a dedicated vector type on the
//! public API.

use crate::complex::Complex64;

/// Unconjugated dot product `Σ aᵢ·bᵢ`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
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

/// Hermitian inner product `Σ conj(aᵢ)·bᵢ` (conjugate-linear in the first
/// argument, matching the convention `⟨a, b⟩ = aᴴ b`).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn hdot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    assert_eq!(
        a.len(),
        b.len(),
        "hdot: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    a.iter()
        .zip(b.iter())
        .fold(Complex64::ZERO, |acc, (&x, &y)| x.conj().mul_add(y, acc))
}

/// Euclidean (ℓ²) norm `‖a‖₂ = √(Σ |aᵢ|²)`.
pub fn norm2(a: &[Complex64]) -> f64 {
    a.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
}

/// Squared Euclidean norm `Σ |aᵢ|²`.
pub fn norm2_sqr(a: &[Complex64]) -> f64 {
    a.iter().map(|z| z.norm_sqr()).sum::<f64>()
}

/// Maximum modulus `max |aᵢ|` (0 for an empty slice).
pub fn norm_inf(a: &[Complex64]) -> f64 {
    a.iter().map(|z| z.abs()).fold(0.0, f64::max)
}

/// `y ← α·x + y` (complex AXPY).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(
        x.len(),
        y.len(),
        "axpy: length mismatch {} vs {}",
        x.len(),
        y.len()
    );
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi = alpha.mul_add(xi, *yi);
    }
}

/// Scales a vector in place: `x ← α·x`.
pub fn scale_in_place(alpha: Complex64, x: &mut [Complex64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Returns a new vector `α·x`.
pub fn scaled(alpha: Complex64, x: &[Complex64]) -> Vec<Complex64> {
    x.iter().map(|&xi| xi * alpha).collect()
}

/// Element-wise sum `a + b`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn add(a: &[Complex64], b: &[Complex64]) -> Vec<Complex64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x + y).collect()
}

/// Element-wise difference `a − b`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sub(a: &[Complex64], b: &[Complex64]) -> Vec<Complex64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x - y).collect()
}

/// Element-wise (Hadamard) product `a ⊙ b`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn hadamard(a: &[Complex64], b: &[Complex64]) -> Vec<Complex64> {
    assert_eq!(a.len(), b.len(), "hadamard: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).collect()
}

/// Moduli of every element — the Rayleigh envelope of a complex Gaussian
/// sample vector.
pub fn envelope(a: &[Complex64]) -> Vec<f64> {
    a.iter().map(|z| z.abs()).collect()
}

/// Conjugates every element.
pub fn conj(a: &[Complex64]) -> Vec<Complex64> {
    a.iter().map(|z| z.conj()).collect()
}

/// Lifts a real vector into a complex one with zero imaginary parts.
pub fn complexify(a: &[f64]) -> Vec<Complex64> {
    a.iter().map(|&x| Complex64::from_real(x)).collect()
}

/// Real parts of every element.
pub fn real_parts(a: &[Complex64]) -> Vec<f64> {
    a.iter().map(|z| z.re).collect()
}

/// Imaginary parts of every element.
pub fn imag_parts(a: &[Complex64]) -> Vec<f64> {
    a.iter().map(|z| z.im).collect()
}

/// Real dot product `Σ aᵢ·bᵢ`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn rdot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rdot: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Real Euclidean norm.
pub fn rnorm2(a: &[f64]) -> f64 {
    a.iter().map(|&x| x * x).sum::<f64>().sqrt()
}

/// Maximum absolute deviation between two complex vectors.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
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
    fn dot_and_hdot() {
        let a = vec![c64(1.0, 1.0), c64(2.0, 0.0)];
        let b = vec![c64(0.0, 1.0), c64(1.0, -1.0)];
        // dot = (1+i)(i) + 2(1-i) = (i - 1) + (2 - 2i) = 1 - i
        assert!(dot(&a, &b).approx_eq(c64(1.0, -1.0), 1e-12));
        // hdot = (1-i)(i) + 2(1-i) = (i + 1) + (2 - 2i) = 3 - i
        assert!(hdot(&a, &b).approx_eq(c64(3.0, -1.0), 1e-12));
    }

    #[test]
    fn hdot_with_self_is_norm_squared() {
        let a = vec![c64(1.0, 2.0), c64(-3.0, 0.5)];
        let h = hdot(&a, &a);
        assert!((h.re - norm2_sqr(&a)).abs() < 1e-12);
        assert!(h.im.abs() < 1e-12);
    }

    #[test]
    fn norms() {
        let a = vec![c64(3.0, 0.0), c64(0.0, 4.0)];
        assert!((norm2(&a) - 5.0).abs() < 1e-12);
        assert!((norm2_sqr(&a) - 25.0).abs() < 1e-12);
        assert!((norm_inf(&a) - 4.0).abs() < 1e-12);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_and_scale() {
        let x = vec![c64(1.0, 0.0), c64(0.0, 1.0)];
        let mut y = vec![c64(1.0, 1.0), c64(1.0, 1.0)];
        axpy(c64(2.0, 0.0), &x, &mut y);
        assert!(y[0].approx_eq(c64(3.0, 1.0), 1e-12));
        assert!(y[1].approx_eq(c64(1.0, 3.0), 1e-12));

        let mut z = x.clone();
        scale_in_place(c64(0.0, 1.0), &mut z);
        assert!(z[0].approx_eq(c64(0.0, 1.0), 1e-12));
        assert!(z[1].approx_eq(c64(-1.0, 0.0), 1e-12));
        assert_eq!(scaled(c64(2.0, 0.0), &x)[0], c64(2.0, 0.0));
    }

    #[test]
    fn elementwise_ops() {
        let a = vec![c64(1.0, 0.0), c64(2.0, 2.0)];
        let b = vec![c64(0.5, 0.5), c64(1.0, -1.0)];
        assert_eq!(add(&a, &b)[0], c64(1.5, 0.5));
        assert_eq!(sub(&a, &b)[1], c64(1.0, 3.0));
        assert!(hadamard(&a, &b)[1].approx_eq(c64(4.0, 0.0), 1e-12));
    }

    #[test]
    fn envelope_and_parts() {
        let a = vec![c64(3.0, 4.0), c64(0.0, -2.0)];
        assert_eq!(envelope(&a), vec![5.0, 2.0]);
        assert_eq!(real_parts(&a), vec![3.0, 0.0]);
        assert_eq!(imag_parts(&a), vec![4.0, -2.0]);
        assert_eq!(conj(&a)[0], c64(3.0, -4.0));
        assert_eq!(complexify(&[1.0, 2.0])[1], c64(2.0, 0.0));
    }

    #[test]
    fn real_helpers() {
        assert!((rdot(&[1.0, 2.0], &[3.0, 4.0]) - 11.0).abs() < 1e-12);
        assert!((rnorm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
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
