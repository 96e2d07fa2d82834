//! Covariance-matrix assembly (paper Eq. 12–13).
//!
//! The proposed algorithm is driven entirely by the covariance matrix **K**
//! of the complex Gaussian variables (as opposed to the covariance of the
//! Rayleigh envelopes used by several conventional methods). Its entries are
//!
//! ```text
//! µ_{k,j} = σ_g²_j                                    for k = j
//! µ_{k,j} = (Rxx + Ryy) − i·(Rxy − Ryx)               for k ≠ j
//! ```
//!
//! where `Rxx`, `Ryy`, `Rxy`, `Ryx` are the four real covariances between the
//! real/imaginary parts of processes `k` and `j` (Eq. 1–2). The
//! [`CovarianceBuilder`] assembles that matrix from per-pair covariances
//! supplied either directly or by one of the correlation models in this
//! crate.

use corrfade_linalg::{c64, CMatrix, Complex64};

/// The four real covariances between the real and imaginary parts of two
/// zero-mean complex Gaussian processes `z_k` and `z_j` (paper Eq. 1–2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuadCovariance {
    /// `Rxx = E[x_k·x_j]`.
    pub rxx: f64,
    /// `Ryy = E[y_k·y_j]`.
    pub ryy: f64,
    /// `Rxy = E[x_k·y_j]`.
    pub rxy: f64,
    /// `Ryx = E[y_k·x_j]`.
    pub ryx: f64,
}

impl QuadCovariance {
    /// Creates the quadruple from its four components.
    pub fn new(rxx: f64, ryy: f64, rxy: f64, ryx: f64) -> Self {
        Self { rxx, ryy, rxy, ryx }
    }

    /// The symmetric special case `Rxx = Ryy`, `Rxy = −Ryx` that both the
    /// Jakes and the Salz–Winters models produce.
    pub fn symmetric(rxx: f64, rxy: f64) -> Self {
        Self {
            rxx,
            ryy: rxx,
            rxy,
            ryx: -rxy,
        }
    }

    /// The complex covariance `µ_{k,j} = (Rxx + Ryy) − i·(Rxy − Ryx)`
    /// (paper Eq. 13, off-diagonal case).
    pub fn complex_covariance(&self) -> Complex64 {
        c64(self.rxx + self.ryy, -(self.rxy - self.ryx))
    }
}

/// Errors produced while assembling a covariance matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum CovarianceBuildError {
    /// A variance (power) is negative.
    NegativePower {
        /// Index of the offending envelope.
        index: usize,
        /// The supplied power.
        value: f64,
    },
    /// The number of supplied powers does not match the requested dimension.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Supplied dimension.
        actual: usize,
    },
}

impl core::fmt::Display for CovarianceBuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CovarianceBuildError::NegativePower { index, value } => {
                write!(
                    f,
                    "power of envelope {index} must be non-negative, got {value}"
                )
            }
            CovarianceBuildError::DimensionMismatch { expected, actual } => {
                write!(f, "expected {expected} powers, got {actual}")
            }
        }
    }
}

impl std::error::Error for CovarianceBuildError {}

/// Incremental builder of the covariance matrix **K** of Eq. (12)–(13).
#[derive(Debug, Clone)]
pub(crate) struct CovarianceBuilder {
    n: usize,
    matrix: CMatrix,
}

impl CovarianceBuilder {
    /// Starts a builder for `N` envelopes with the given complex-Gaussian
    /// powers `σ_g²_j` on the diagonal.
    ///
    /// # Errors
    /// [`CovarianceBuildError::NegativePower`] if any power is negative.
    pub(crate) fn new(gaussian_powers: &[f64]) -> Result<Self, CovarianceBuildError> {
        for (i, &p) in gaussian_powers.iter().enumerate() {
            if p < 0.0 || p.is_nan() {
                return Err(CovarianceBuildError::NegativePower { index: i, value: p });
            }
        }
        let n = gaussian_powers.len();
        let mut matrix = CMatrix::zeros(n, n);
        for (i, &p) in gaussian_powers.iter().enumerate() {
            matrix[(i, i)] = c64(p, 0.0);
        }
        Ok(Self { n, matrix })
    }

    /// Sets the off-diagonal pair `(k, j)` (and its Hermitian mirror) from a
    /// covariance quadruple.
    ///
    /// # Panics
    /// Panics if `k == j` or either index is out of range.
    pub(crate) fn set_pair(&mut self, k: usize, j: usize, cov: QuadCovariance) -> &mut Self {
        assert!(
            k != j,
            "set_pair: use the constructor powers for the diagonal"
        );
        assert!(k < self.n && j < self.n, "set_pair: index out of range");
        let mu = cov.complex_covariance();
        self.matrix[(k, j)] = mu;
        self.matrix[(j, k)] = mu.conj();
        self
    }

    /// Sets the off-diagonal pair `(k, j)` (and its Hermitian mirror)
    /// directly from a complex covariance `µ_{k,j} = E[z_k·conj(z_j)]`.
    ///
    /// # Panics
    /// Panics if `k == j` or either index is out of range.
    pub(crate) fn set_complex_pair(&mut self, k: usize, j: usize, mu: Complex64) -> &mut Self {
        assert!(
            k != j,
            "set_complex_pair: use the constructor powers for the diagonal"
        );
        assert!(
            k < self.n && j < self.n,
            "set_complex_pair: index out of range"
        );
        self.matrix[(k, j)] = mu;
        self.matrix[(j, k)] = mu.conj();
        self
    }

    /// Fills every off-diagonal pair from a closure producing the covariance
    /// quadruple for `(k, j)` with `k < j`.
    pub(crate) fn fill_pairs(
        &mut self,
        mut f: impl FnMut(usize, usize) -> QuadCovariance,
    ) -> &mut Self {
        for k in 0..self.n {
            for j in (k + 1)..self.n {
                self.set_pair(k, j, f(k, j));
            }
        }
        self
    }

    /// Finishes the build and returns the Hermitian covariance matrix.
    pub(crate) fn build(&self) -> CMatrix {
        self.matrix.clone()
    }
}

/// Convenience: builds the covariance matrix for equal-power envelopes from a
/// closure giving the covariance quadruple of each pair `k < j`.
pub(crate) fn covariance_matrix_equal_power(
    n: usize,
    sigma_g_sq: f64,
    f: impl FnMut(usize, usize) -> QuadCovariance,
) -> Result<CMatrix, CovarianceBuildError> {
    let mut b = CovarianceBuilder::new(&vec![sigma_g_sq; n])?;
    b.fill_pairs(f);
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_covariance_composition() {
        let q = QuadCovariance::new(0.2, 0.3, 0.1, -0.05);
        let mu = q.complex_covariance();
        assert!(mu.approx_eq(c64(0.5, -0.15), 1e-15));
        // Symmetric constructor implements Rxx=Ryy, Rxy=-Ryx.
        let s = QuadCovariance::symmetric(0.25, 0.1);
        assert_eq!(s.ryy, 0.25);
        assert_eq!(s.ryx, -0.1);
        assert!(s.complex_covariance().approx_eq(c64(0.5, -0.2), 1e-15));
    }

    #[test]
    fn builder_produces_hermitian_matrix_with_powers_on_diagonal() {
        let powers = [1.0, 2.0, 0.5];
        let mut b = CovarianceBuilder::new(&powers).unwrap();
        b.set_pair(0, 1, QuadCovariance::symmetric(0.3, 0.1));
        b.set_complex_pair(0, 2, c64(0.2, -0.4));
        b.set_pair(1, 2, QuadCovariance::new(0.05, 0.1, 0.0, 0.02));
        let k = b.build();
        assert_eq!(k.rows(), 3);
        assert!(k.is_hermitian(1e-14));
        for (i, &p) in powers.iter().enumerate() {
            assert!(k[(i, i)].approx_eq(c64(p, 0.0), 1e-15));
        }
        assert!(k[(0, 1)].approx_eq(c64(0.6, -0.2), 1e-15));
        assert!(k[(1, 0)].approx_eq(c64(0.6, 0.2), 1e-15));
        assert!(k[(0, 2)].approx_eq(c64(0.2, -0.4), 1e-15));
        assert!(k[(2, 0)].approx_eq(c64(0.2, 0.4), 1e-15));
    }

    #[test]
    fn fill_pairs_visits_upper_triangle_once() {
        let mut visited = Vec::new();
        let k = covariance_matrix_equal_power(4, 1.0, |a, b| {
            visited.push((a, b));
            QuadCovariance::symmetric(0.1 * (a + b) as f64, 0.0)
        })
        .unwrap();
        assert_eq!(visited.len(), 6);
        assert!(visited.iter().all(|&(a, b)| a < b));
        assert!(k.is_hermitian(1e-14));
    }

    #[test]
    fn negative_power_rejected() {
        let err = CovarianceBuilder::new(&[1.0, -0.5]).unwrap_err();
        assert!(matches!(
            err,
            CovarianceBuildError::NegativePower { index: 1, .. }
        ));
        assert!(err.to_string().contains("envelope 1"));
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn diagonal_pair_rejected() {
        let mut b = CovarianceBuilder::new(&[1.0, 1.0]).unwrap();
        b.set_pair(1, 1, QuadCovariance::default());
    }
}
