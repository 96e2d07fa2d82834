//! Error type shared by the baseline (conventional) generators.
//!
//! Each variant corresponds to one of the shortcomings the paper's Sec. 1
//! attributes to the conventional methods; the experiment harness (E10)
//! tabulates which method fails on which scenario by matching on these
//! variants.

use core::fmt;

/// Failure modes of the conventional correlated-Rayleigh generators.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// The method only supports equal-power envelopes (refs \[1\], \[2\], \[3\],
    /// \[4\], \[6\]).
    UnequalPowersUnsupported {
        /// Human-readable method name.
        method: &'static str,
    },
    /// The method only supports a fixed number of envelopes (refs \[2\], \[3\]
    /// support N = 2 only).
    UnsupportedDimension {
        /// Human-readable method name.
        method: &'static str,
        /// The dimension the method supports.
        supported: usize,
        /// The dimension requested.
        requested: usize,
    },
    /// The method requires a positive-definite covariance matrix and its
    /// Cholesky factorization failed (refs \[4\], \[5\], and \[6\] when the
    /// ε-forced matrix is still numerically singular).
    CholeskyFailed {
        /// Human-readable method name.
        method: &'static str,
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// The method requires a positive semi-definite covariance matrix
    /// (ref. \[1\]).
    NotPositiveSemidefinite {
        /// Human-readable method name.
        method: &'static str,
        /// The most negative eigenvalue encountered.
        min_eigenvalue: f64,
    },
    /// The method cannot represent complex covariances (ref. \[5\] forces them
    /// to be real). This is reported when the requested covariance has a
    /// significant imaginary part so the caller knows the result will be
    /// biased.
    ComplexCovarianceUnsupported {
        /// Human-readable method name.
        method: &'static str,
        /// Largest imaginary magnitude found among the off-diagonal entries.
        max_imaginary: f64,
    },
    /// Any other invalid configuration.
    Invalid {
        /// Description of the problem.
        reason: &'static str,
    },
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::UnequalPowersUnsupported { method } => {
                write!(f, "{method} only supports equal-power envelopes")
            }
            BaselineError::UnsupportedDimension {
                method,
                supported,
                requested,
            } => write!(
                f,
                "{method} only supports N = {supported} envelopes (requested {requested})"
            ),
            BaselineError::CholeskyFailed { method, pivot } => write!(
                f,
                "{method}: Cholesky factorization failed at pivot {pivot} (covariance not positive definite)"
            ),
            BaselineError::NotPositiveSemidefinite {
                method,
                min_eigenvalue,
            } => write!(
                f,
                "{method}: covariance is not positive semi-definite (min eigenvalue {min_eigenvalue:.3e})"
            ),
            BaselineError::ComplexCovarianceUnsupported { method, max_imaginary } => write!(
                f,
                "{method} forces covariances to be real but the target has imaginary parts up to {max_imaginary:.3e}"
            ),
            BaselineError::Invalid { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for BaselineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_method() {
        let e = BaselineError::UnequalPowersUnsupported {
            method: "Ertel-Reed [2]",
        };
        assert!(e.to_string().contains("Ertel-Reed"));
        let e = BaselineError::UnsupportedDimension {
            method: "Beaulieu [3]",
            supported: 2,
            requested: 5,
        };
        assert!(e.to_string().contains("N = 2"));
        let e = BaselineError::CholeskyFailed {
            method: "Natarajan [5]",
            pivot: 3,
        };
        assert!(e.to_string().contains("pivot 3"));
        let e = BaselineError::NotPositiveSemidefinite {
            method: "Salz-Winters [1]",
            min_eigenvalue: -0.2,
        };
        assert!(e.to_string().contains("semi-definite"));
        let e = BaselineError::ComplexCovarianceUnsupported {
            method: "Natarajan [5]",
            max_imaginary: 0.4,
        };
        assert!(e.to_string().contains("imaginary"));
        let e = BaselineError::Invalid { reason: "empty" };
        assert!(e.to_string().contains("empty"));
    }
}
