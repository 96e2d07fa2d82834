//! Parametric covariance-matrix families.
//!
//! These functions build the synthetic covariance matrices behind the
//! extended entries of the [scenario registry](crate::registry) — scaling
//! sweeps, PSD-forcing stress cases, unequal-power profiles. They are also
//! used directly by the ablation experiments (E7, E9, E10) and the
//! decomposition / scaling benches in `corrfade-bench` whenever a parameter
//! sweep needs matrices outside the registered operating points.
//!
//! Every family is parameterized by the envelope count `n`, so a registered
//! [`Scenario`](crate::Scenario) using one of these families can be resized
//! with [`Scenario::with_envelopes`](crate::Scenario::with_envelopes).

use corrfade_linalg::{c64, CMatrix};

/// An exponentially-decaying equal-power correlation matrix
/// `K_{kj} = ρ^{|k−j|}` — always positive definite; used for scaling
/// benchmarks at arbitrary `N`.
pub(crate) fn exponential_correlation(n: usize, rho: f64) -> CMatrix {
    assert!((0.0..1.0).contains(&rho), "rho must lie in [0, 1)");
    CMatrix::from_fn(n, n, |i, j| c64(rho.powi((i as i32 - j as i32).abs()), 0.0))
}

/// A complex-valued Hermitian positive-definite covariance with phase ramp
/// `K_{kj} = ρ^{|k−j|}·e^{iθ(k−j)}` — exercises the complex-covariance path
/// that ref. \[5\] cannot represent.
pub(crate) fn complex_exponential_correlation(n: usize, rho: f64, theta: f64) -> CMatrix {
    assert!((0.0..1.0).contains(&rho), "rho must lie in [0, 1)");
    CMatrix::from_fn(n, n, |i, j| {
        let d = i as i32 - j as i32;
        corrfade_linalg::Complex64::from_polar(rho.powi(d.abs()), theta * d as f64)
    })
}

/// A deliberately **indefinite** "covariance" matrix: a consistent
/// exponential-correlation matrix whose single most-negative-impact entry
/// pair is overwritten with an inconsistent sign. Used to exercise the
/// PSD-forcing path. The returned matrix is Hermitian but has at least
/// one negative eigenvalue for `n ≥ 3` and `rho ≥ 0.6`.
pub(crate) fn indefinite_correlation(n: usize, rho: f64) -> CMatrix {
    assert!(
        n >= 3,
        "need at least 3 envelopes to build an indefinite example"
    );
    let mut k = exponential_correlation(n, rho);
    // Make the (0, n-1) correlation strongly negative while the chain of
    // intermediate correlations stays strongly positive — jointly infeasible.
    k[(0, n - 1)] = c64(-rho, 0.0);
    k[(n - 1, 0)] = c64(-rho, 0.0);
    k
}

/// A nearly-singular positive-definite matrix: equal powers, pairwise
/// correlation `1 − eps` between all envelopes. For small `eps` the smallest
/// eigenvalue is ≈ `eps`, which is where MATLAB-style Cholesky round-off
/// failures live.
pub(crate) fn near_singular_correlation(n: usize, eps: f64) -> CMatrix {
    assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0, 1)");
    CMatrix::from_fn(n, n, |i, j| {
        if i == j {
            c64(1.0, 0.0)
        } else {
            c64(1.0 - eps, 0.0)
        }
    })
}

/// Unequal-power variant of [`exponential_correlation`]: powers follow a
/// geometric profile `p_j = base^j`.
pub(crate) fn unequal_power_exponential(n: usize, rho: f64, base: f64) -> CMatrix {
    let corr = exponential_correlation(n, rho);
    let powers: Vec<f64> = (0..n).map(|j| base.powi(j as i32)).collect();
    CMatrix::from_fn(n, n, |i, j| {
        corr[(i, j)].scale((powers[i] * powers[j]).sqrt())
    })
}

/// The covariance matrix of exactly two envelopes with equal power
/// `sigma_sq` and complex correlation coefficient `rho` — the restricted
/// setting of the paper's two-envelope references, used by the
/// `two-envelope-complex` registry entry.
pub(crate) fn two_envelope_complex(sigma_sq: f64, rho_re: f64, rho_im: f64) -> CMatrix {
    assert!(sigma_sq > 0.0, "power must be strictly positive");
    let rho = c64(rho_re, rho_im);
    CMatrix::from_rows(&[
        vec![c64(sigma_sq, 0.0), rho.scale(sigma_sq)],
        vec![rho.conj().scale(sigma_sq), c64(sigma_sq, 0.0)],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_linalg::{hermitian_eigen, is_positive_definite};

    #[test]
    fn exponential_correlation_is_positive_definite() {
        for n in [2usize, 4, 8, 16] {
            let k = exponential_correlation(n, 0.7);
            assert!(k.is_hermitian(1e-12));
            assert!(is_positive_definite(&k), "n = {n}");
        }
    }

    #[test]
    fn complex_exponential_is_hermitian_positive_definite() {
        let k = complex_exponential_correlation(6, 0.8, 0.9);
        assert!(k.is_hermitian(1e-12));
        assert!(is_positive_definite(&k));
        assert!(
            k[(0, 1)].im.abs() > 0.1,
            "must have genuinely complex entries"
        );
    }

    #[test]
    fn indefinite_correlation_has_a_negative_eigenvalue() {
        for n in [3usize, 5, 8] {
            let k = indefinite_correlation(n, 0.9);
            let e = hermitian_eigen(&k).unwrap();
            assert!(
                e.eigenvalues.last().copied().unwrap() < -1e-6,
                "n = {n}: {:?}",
                e.eigenvalues
            );
        }
    }

    #[test]
    fn near_singular_matrix_has_tiny_smallest_eigenvalue() {
        let eps = 1e-8;
        let k = near_singular_correlation(4, eps);
        let e = hermitian_eigen(&k).unwrap();
        let min = e.eigenvalues.last().copied().unwrap();
        assert!(min > 0.0 && min < 10.0 * eps, "min eigenvalue {min}");
    }

    #[test]
    fn unequal_power_profile_is_on_the_diagonal() {
        let k = unequal_power_exponential(4, 0.5, 0.5);
        assert!((k[(0, 0)].re - 1.0).abs() < 1e-12);
        assert!((k[(1, 1)].re - 0.5).abs() < 1e-12);
        assert!((k[(3, 3)].re - 0.125).abs() < 1e-12);
        assert!(is_positive_definite(&k));
    }

    #[test]
    fn two_envelope_complex_is_hermitian() {
        let k = two_envelope_complex(1.0, 0.5, 0.4);
        assert_eq!(k.rows(), 2);
        assert!(k.is_hermitian(1e-12));
        assert!((k[(0, 1)].im - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rho must lie")]
    fn invalid_rho_rejected() {
        let _ = exponential_correlation(3, 1.5);
    }
}
