//! Error type of the core generator.

use core::fmt;

use corrfade_dsp::DspError;
use corrfade_linalg::LinalgError;
use corrfade_models::CovarianceBuildError;

/// Errors produced while configuring or running the correlated Rayleigh
/// generators.
#[derive(Debug, Clone, PartialEq)]
pub enum CorrfadeError {
    /// The supplied covariance matrix is not square.
    NotSquare {
        /// Rows of the offending matrix.
        rows: usize,
        /// Columns of the offending matrix.
        cols: usize,
    },
    /// The supplied covariance matrix is not Hermitian.
    NotHermitian {
        /// Largest deviation `max |K_ij − conj(K_ji)|`.
        deviation: f64,
    },
    /// A diagonal entry (power) of the covariance matrix is negative.
    NegativePower {
        /// Index of the offending envelope.
        index: usize,
        /// The value found on the diagonal.
        value: f64,
    },
    /// The generator was asked for zero envelopes.
    EmptyCovariance,
    /// The driving variance `σ_g²` of the white Gaussian vector `W` must be
    /// strictly positive.
    InvalidDrivingVariance {
        /// The supplied variance.
        value: f64,
    },
    /// An error bubbled up from the linear-algebra layer.
    Linalg(LinalgError),
    /// An error bubbled up from the DSP layer (Doppler filter / IDFT).
    Dsp(DspError),
    /// An error bubbled up from the covariance-model layer.
    Model(CovarianceBuildError),
    /// Builder misuse: no covariance source was configured.
    MissingCovariance,
    /// Builder misuse: the number of powers does not match the covariance
    /// dimension.
    PowerDimensionMismatch {
        /// Dimension of the covariance matrix.
        expected: usize,
        /// Number of powers supplied.
        actual: usize,
    },
    /// A caller-owned output buffer has the wrong length.
    BufferLength {
        /// The length the call needs.
        expected: usize,
        /// The length supplied.
        got: usize,
    },
}

impl fmt::Display for CorrfadeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorrfadeError::NotSquare { rows, cols } => {
                write!(f, "covariance matrix must be square, got {rows}×{cols}")
            }
            CorrfadeError::NotHermitian { deviation } => write!(
                f,
                "covariance matrix must be Hermitian (max |K_ij - conj(K_ji)| = {deviation:.3e})"
            ),
            CorrfadeError::NegativePower { index, value } => write!(
                f,
                "diagonal entry {index} of the covariance matrix must be a non-negative power, got {value}"
            ),
            CorrfadeError::EmptyCovariance => write!(f, "covariance matrix must have at least one envelope"),
            CorrfadeError::InvalidDrivingVariance { value } => {
                write!(f, "driving variance must be strictly positive, got {value}")
            }
            CorrfadeError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            CorrfadeError::Dsp(e) => write!(f, "DSP error: {e}"),
            CorrfadeError::Model(e) => write!(f, "covariance model error: {e}"),
            CorrfadeError::MissingCovariance => {
                write!(f, "no covariance source configured: call covariance(), spectral_model() or spatial_model()")
            }
            CorrfadeError::PowerDimensionMismatch { expected, actual } => write!(
                f,
                "number of powers ({actual}) does not match the covariance dimension ({expected})"
            ),
            CorrfadeError::BufferLength { expected, got } => {
                write!(f, "output buffer must hold {expected} values, got {got}")
            }
        }
    }
}

impl std::error::Error for CorrfadeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorrfadeError::Linalg(e) => Some(e),
            CorrfadeError::Dsp(e) => Some(e),
            CorrfadeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for CorrfadeError {
    fn from(e: LinalgError) -> Self {
        CorrfadeError::Linalg(e)
    }
}

impl From<DspError> for CorrfadeError {
    fn from(e: DspError) -> Self {
        CorrfadeError::Dsp(e)
    }
}

impl From<CovarianceBuildError> for CorrfadeError {
    fn from(e: CovarianceBuildError) -> Self {
        CorrfadeError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let cases: Vec<CorrfadeError> = vec![
            CorrfadeError::NotSquare { rows: 2, cols: 3 },
            CorrfadeError::NotHermitian { deviation: 0.1 },
            CorrfadeError::NegativePower {
                index: 0,
                value: -1.0,
            },
            CorrfadeError::EmptyCovariance,
            CorrfadeError::InvalidDrivingVariance { value: 0.0 },
            CorrfadeError::MissingCovariance,
            CorrfadeError::PowerDimensionMismatch {
                expected: 3,
                actual: 2,
            },
            CorrfadeError::BufferLength {
                expected: 3,
                got: 2,
            },
            CorrfadeError::Linalg(LinalgError::NotSquare { rows: 1, cols: 2 }),
            CorrfadeError::Dsp(DspError::InvalidVariance { value: -1.0 }),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn conversions_preserve_the_source() {
        use std::error::Error;
        let e: CorrfadeError = LinalgError::NotSquare { rows: 1, cols: 2 }.into();
        assert!(e.source().is_some());
        let e: CorrfadeError = DspError::InvalidLength {
            length: 1,
            minimum: 8,
        }
        .into();
        assert!(e.source().is_some());
        let e = CorrfadeError::EmptyCovariance;
        assert!(e.source().is_none());
    }
}
