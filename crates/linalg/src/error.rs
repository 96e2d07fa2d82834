//! Error types shared by the matrix factorizations.

use core::fmt;

/// Errors produced by the factorizations in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The operation requires a square matrix.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// An entry of the matrix is NaN or infinite.
    NonFinite {
        /// Row of the first non-finite entry, in row-major order.
        row: usize,
        /// Column of that entry.
        col: usize,
    },
    /// The operation requires a Hermitian (or real-symmetric) matrix.
    NotHermitian {
        /// Largest deviation `max |a_ij − conj(a_ji)|` found.
        deviation: f64,
    },
    /// Cholesky factorization hit a non-positive pivot — the matrix is not
    /// positive definite. This is exactly the failure mode the paper's
    /// eigendecomposition-based coloring avoids.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// Value of the failing pivot (≤ 0 or NaN).
        value: f64,
    },
    /// An iterative factorization did not converge.
    ConvergenceFailure {
        /// Number of sweeps/iterations performed before giving up.
        iterations: usize,
        /// Residual off-diagonal norm at the point of failure.
        residual: f64,
    },
    /// Two operands have incompatible dimensions.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        context: &'static str,
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}×{cols}")
            }
            LinalgError::NonFinite { row, col } => {
                write!(f, "matrix entry ({row}, {col}) is not finite")
            }
            LinalgError::NotHermitian { deviation } => {
                write!(f, "matrix is not Hermitian (max |a_ij - conj(a_ji)| = {deviation:.3e})")
            }
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite: pivot {pivot} has value {value:.3e}"
            ),
            LinalgError::ConvergenceFailure { iterations, residual } => write!(
                f,
                "factorization failed to converge after {iterations} iterations (residual {residual:.3e})"
            ),
            LinalgError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(f, "{context}: expected dimension {expected}, got {actual}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LinalgError::NotSquare { rows: 2, cols: 3 };
        assert!(e.to_string().contains("2×3"));
        let e = LinalgError::NonFinite { row: 1, col: 2 };
        assert!(e.to_string().contains("(1, 2)"));
        let e = LinalgError::NotHermitian { deviation: 0.5 };
        assert!(e.to_string().contains("Hermitian"));
        let e = LinalgError::NotPositiveDefinite {
            pivot: 1,
            value: -0.25,
        };
        assert!(e.to_string().contains("positive definite"));
        let e = LinalgError::ConvergenceFailure {
            iterations: 30,
            residual: 1e-3,
        };
        assert!(e.to_string().contains("30"));
        let e = LinalgError::DimensionMismatch {
            context: "matvec",
            expected: 3,
            actual: 2,
        };
        assert!(e.to_string().contains("matvec"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&LinalgError::NotSquare { rows: 1, cols: 2 });
    }
}
