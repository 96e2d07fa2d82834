//! Baselines \[4\] and \[5\]: Cholesky-coloring generators.
//!
//! * **Beaulieu & Merani \[4\]** — generalizes the two-envelope method to
//!   `N ≥ 2` **equal-power** envelopes by Cholesky-factorizing the desired
//!   covariance matrix. Requires positive definiteness.
//! * **Natarajan, Nassar & Chandrasekhar \[5\]** — allows **unequal** powers,
//!   but (a) still relies on Cholesky factorization and (b) forces the
//!   covariances of the complex Gaussians to be **real** (Eq. 8 of that
//!   letter), which biases the result whenever the true covariances are
//!   complex (e.g. the paper's Eq. 22 scenario).
//!
//! Both are reproduced with their original restrictions so that the
//! experiment harness can chart exactly where they fail and by how much.

use corrfade::{ChannelStream, CorrfadeError};
use corrfade_linalg::{c64, cholesky, CMatrix, Complex64, LinalgError, SampleBlock};
use corrfade_randn::{ComplexGaussian, RandomStream};

use crate::error::BaselineError;
use crate::streaming::{fill_snapshot_block, SNAPSHOT_STREAM_BLOCK_LEN};

fn validate_square_hermitian(k: &CMatrix, _method: &'static str) -> Result<(), BaselineError> {
    if !k.is_square() || k.rows() == 0 {
        return Err(BaselineError::Invalid {
            reason: "covariance matrix must be square and non-empty",
        });
    }
    if !k.is_hermitian(1e-9 * k.max_abs().max(1.0)) {
        return Err(BaselineError::Invalid {
            reason: "covariance matrix must be Hermitian",
        });
    }
    Ok(())
}

fn cholesky_or_error(k: &CMatrix, method: &'static str) -> Result<CMatrix, BaselineError> {
    match cholesky(k) {
        Ok(l) => Ok(l),
        Err(LinalgError::NotPositiveDefinite { pivot, .. }) => {
            Err(BaselineError::CholeskyFailed { method, pivot })
        }
        Err(_) => Err(BaselineError::Invalid {
            reason: "Cholesky factorization failed",
        }),
    }
}

/// The Beaulieu–Merani equal-power, N ≥ 2, Cholesky-based generator
/// (baseline \[4\]).
///
/// Implements [`ChannelStream`] by batching independent snapshots into
/// planar blocks.
#[derive(Debug, Clone)]
pub(crate) struct BeaulieuMeraniGenerator {
    coloring: CMatrix,
    rng: RandomStream,
    gaussian: ComplexGaussian,
    /// White/colored vector scratch for the streaming path.
    w: Vec<Complex64>,
    z: Vec<Complex64>,
}

impl BeaulieuMeraniGenerator {
    /// Builds the generator from the desired covariance matrix.
    ///
    /// # Errors
    /// Unequal powers and non-positive-definite covariances are rejected —
    /// the two restrictions the paper's Sec. 1 attributes to this method.
    pub(crate) fn new(k: &CMatrix, seed: u64) -> Result<Self, BaselineError> {
        const METHOD: &str = "Beaulieu-Merani [4]";
        validate_square_hermitian(k, METHOD)?;
        let p0 = k[(0, 0)].re;
        for i in 0..k.rows() {
            if (k[(i, i)].re - p0).abs() > 1e-9 * p0.abs().max(1.0) {
                return Err(BaselineError::UnequalPowersUnsupported { method: METHOD });
            }
        }
        let coloring = cholesky_or_error(k, METHOD)?;
        Ok(Self {
            coloring,
            rng: RandomStream::new(seed),
            gaussian: ComplexGaussian::default(),
            w: Vec::new(),
            z: Vec::new(),
        })
    }

    /// Draws one correlated complex Gaussian vector.
    pub(crate) fn sample_gaussian(&mut self) -> Vec<Complex64> {
        let w = self
            .gaussian
            .sample_vec(&mut self.rng, self.coloring.rows(), 1.0);
        self.coloring.matvec(&w)
    }
}

impl ChannelStream for BeaulieuMeraniGenerator {
    fn dimension(&self) -> usize {
        self.coloring.rows()
    }

    fn block_len(&self) -> usize {
        SNAPSHOT_STREAM_BLOCK_LEN
    }

    fn next_block_into(&mut self, block: &mut SampleBlock) -> Result<(), CorrfadeError> {
        let Self {
            coloring,
            gaussian,
            rng,
            w,
            z,
        } = self;
        fill_snapshot_block(coloring, gaussian, rng, w, z, block);
        Ok(())
    }
}

/// The Natarajan–Nassar–Chandrasekhar generator (baseline \[5\]): arbitrary
/// powers, Cholesky coloring, covariances forced to be real.
///
/// Implements [`ChannelStream`] by batching independent snapshots into
/// planar blocks.
#[derive(Debug, Clone)]
pub struct NatarajanGenerator {
    coloring: CMatrix,
    target_after_realification: CMatrix,
    rng: RandomStream,
    gaussian: ComplexGaussian,
    /// White/colored vector scratch for the streaming path.
    w: Vec<Complex64>,
    z: Vec<Complex64>,
}

impl NatarajanGenerator {
    /// Builds the generator, **rejecting** covariance matrices with
    /// significant imaginary parts (the honest behaviour: the method cannot
    /// represent them).
    ///
    /// # Errors
    /// [`BaselineError::ComplexCovarianceUnsupported`] when any off-diagonal
    /// entry has `|Im| > 1e−9`, plus the usual Cholesky/validation failures.
    pub fn new(k: &CMatrix, seed: u64) -> Result<Self, BaselineError> {
        const METHOD: &str = "Natarajan [5]";
        validate_square_hermitian(k, METHOD)?;
        let max_imag = (0..k.rows())
            .flat_map(|i| (0..k.cols()).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j)
            .map(|(i, j)| k[(i, j)].im.abs())
            .fold(0.0f64, f64::max);
        if max_imag > 1e-9 * k.max_abs().max(1.0) {
            return Err(BaselineError::ComplexCovarianceUnsupported {
                method: METHOD,
                max_imaginary: max_imag,
            });
        }
        Self::new_lossy(k, seed)
    }

    /// Builds the generator the way ref. \[5\] actually behaves on complex
    /// covariances: the imaginary parts are silently dropped (`K ← Re(K)`)
    /// and generation proceeds. Used by the E10 experiment to quantify the
    /// resulting bias.
    ///
    /// # Errors
    /// Validation and Cholesky failures.
    pub fn new_lossy(k: &CMatrix, seed: u64) -> Result<Self, BaselineError> {
        const METHOD: &str = "Natarajan [5]";
        validate_square_hermitian(k, METHOD)?;
        let realified = CMatrix::from_fn(k.rows(), k.cols(), |i, j| c64(k[(i, j)].re, 0.0));
        let coloring = cholesky_or_error(&realified, METHOD)?;
        Ok(Self {
            coloring,
            target_after_realification: realified,
            rng: RandomStream::new(seed),
            gaussian: ComplexGaussian::default(),
            w: Vec::new(),
            z: Vec::new(),
        })
    }

    /// Number of envelopes.
    pub fn dimension(&self) -> usize {
        self.coloring.rows()
    }

    /// The covariance this generator actually targets after dropping the
    /// imaginary parts — compare against the original to measure the bias.
    pub fn realified_covariance(&self) -> &CMatrix {
        &self.target_after_realification
    }

    /// Draws one correlated complex Gaussian vector.
    pub fn sample_gaussian(&mut self) -> Vec<Complex64> {
        let w = self
            .gaussian
            .sample_vec(&mut self.rng, self.coloring.rows(), 1.0);
        self.coloring.matvec(&w)
    }

    /// Draws one vector of correlated Rayleigh envelopes.
    pub fn sample_envelopes(&mut self) -> Vec<f64> {
        self.sample_gaussian().iter().map(|z| z.abs()).collect()
    }
}

impl ChannelStream for NatarajanGenerator {
    fn dimension(&self) -> usize {
        self.coloring.rows()
    }

    fn block_len(&self) -> usize {
        SNAPSHOT_STREAM_BLOCK_LEN
    }

    fn next_block_into(&mut self, block: &mut SampleBlock) -> Result<(), CorrfadeError> {
        let Self {
            coloring,
            gaussian,
            rng,
            w,
            z,
            ..
        } = self;
        fill_snapshot_block(coloring, gaussian, rng, w, z, block);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_linalg::c64;
    use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};
    use corrfade_stats::relative_frobenius_error;

    use crate::streaming::stream_covariance;

    #[test]
    fn beaulieu_merani_reproduces_equal_power_pd_covariance() {
        let k = paper_covariance_matrix_23();
        let mut g = BeaulieuMeraniGenerator::new(&k, 2).unwrap();
        assert_eq!(g.dimension(), 3);
        let khat = stream_covariance(&mut g, 59);
        assert!(relative_frobenius_error(&khat, &k) < 0.04);
    }

    #[test]
    fn beaulieu_merani_rejects_unequal_powers_and_singular_matrices() {
        let unequal = CMatrix::from_real_slice(2, 2, &[1.0, 0.1, 0.1, 3.0]);
        assert!(matches!(
            BeaulieuMeraniGenerator::new(&unequal, 1),
            Err(BaselineError::UnequalPowersUnsupported { .. })
        ));
        let singular = CMatrix::from_real_slice(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        assert!(matches!(
            BeaulieuMeraniGenerator::new(&singular, 1),
            Err(BaselineError::CholeskyFailed { .. })
        ));
    }

    #[test]
    fn natarajan_supports_unequal_powers_with_real_covariances() {
        let k = CMatrix::from_real_slice(3, 3, &[2.0, 0.4, 0.1, 0.4, 1.0, 0.3, 0.1, 0.3, 0.5]);
        let mut g = NatarajanGenerator::new(&k, 4).unwrap();
        let khat = stream_covariance(&mut g, 59);
        assert!(relative_frobenius_error(&khat, &k) < 0.04);
    }

    #[test]
    fn natarajan_rejects_complex_covariances_honestly() {
        let k = paper_covariance_matrix_22();
        assert!(matches!(
            NatarajanGenerator::new(&k, 1),
            Err(BaselineError::ComplexCovarianceUnsupported { .. })
        ));
    }

    #[test]
    fn natarajan_lossy_mode_is_biased_on_complex_covariances() {
        // E10's quantitative point: dropping the imaginary parts realizes the
        // wrong covariance matrix.
        let k = paper_covariance_matrix_22();
        let mut g = NatarajanGenerator::new_lossy(&k, 7).unwrap();
        assert_eq!(g.dimension(), 3);
        let khat = stream_covariance(&mut g, 59);
        // It converges to Re(K) ...
        assert!(relative_frobenius_error(&khat, g.realified_covariance()) < 0.04);
        // ... which is far from the true target K.
        assert!(relative_frobenius_error(g.realified_covariance(), &k) > 0.2);
    }

    #[test]
    fn malformed_inputs_rejected() {
        let non_herm = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.5, 0.0)],
            vec![c64(0.2, 0.0), c64(1.0, 0.0)],
        ]);
        assert!(BeaulieuMeraniGenerator::new(&non_herm, 1).is_err());
        assert!(NatarajanGenerator::new(&CMatrix::zeros(0, 0), 1).is_err());
    }
}
