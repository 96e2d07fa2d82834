//! Baseline \[1\]: Salz & Winters' real-embedding generator.
//!
//! Salz & Winters (paper ref. \[1\]) generate `N` correlated complex Gaussian
//! fades by coloring a vector of `2N` **real** Gaussian variables with a
//! square root of the `2N × 2N` real covariance matrix
//! `[[Rxx, Rxy], [Ryx, Ryy]]` assembled from the four covariance blocks of
//! Eq. (1)–(2). The square root is taken through the Hermitian Jacobi
//! ([`hermitian_eigen`]) on that real embedding: a real symmetric matrix is
//! Hermitian, and on a real input every rotation stays real, so the
//! eigenvectors come out with zero imaginary parts.
//!
//! Shortcomings reproduced here (and called out in the paper's Sec. 1):
//!
//! * only **equal-power** envelopes are supported (the derivation assumes a
//!   common `σ²`),
//! * if the desired covariance matrix is **not positive semi-definite**, the
//!   square root would be complex and the method fails — this implementation
//!   reports [`BaselineError::NotPositiveSemidefinite`] instead of silently
//!   producing a wrong (complex) coloring matrix.

use corrfade::{ChannelStream, CorrfadeError};
use corrfade_linalg::{c64, hermitian_eigen, CMatrix, Complex64, SampleBlock};
use corrfade_randn::{NormalSampler, RandomStream};

use crate::checks::require_equal_powers;
use crate::error::BaselineError;
use crate::sampler::SNAPSHOT_STREAM_BLOCK_LEN;

/// Relative tolerance below which a negative eigenvalue of the real
/// embedding is attributed to round-off rather than genuine indefiniteness.
const PSD_TOL: f64 = 1e-10;

/// The real `2N × 2N` coloring matrix (row-major) of the Salz–Winters
/// embedding of a covariance that passed
/// [`crate::checks::check_covariance`].
///
/// # Errors
/// * [`BaselineError::UnequalPowersUnsupported`] if the diagonal entries
///   differ (the method was derived for equal powers only),
/// * [`BaselineError::NotPositiveSemidefinite`] if the embedding has a
///   negative eigenvalue (the real square root does not exist).
pub(crate) fn real_root(k: &CMatrix, method: &'static str) -> Result<Vec<f64>, BaselineError> {
    require_equal_powers(k, method)?;

    // 2N×2N real covariance of (x_1..x_N, y_1..y_N). For a circularly
    // symmetric complex Gaussian vector with covariance K = A + iB:
    // Cov(x,x) = Cov(y,y) = A/2, Cov(x,y) = -B/2, Cov(y,x) = B/2.
    let embedding = k.real_embedding().scale_real(0.5);
    let eig = hermitian_eigen(&embedding).map_err(|_| BaselineError::Invalid {
        reason: "eigendecomposition of the real embedding failed",
    })?;
    let lambda_max = eig.eigenvalues.first().copied().unwrap_or(0.0).max(1e-300);
    if eig.eigenvalues.iter().any(|&l| l < -PSD_TOL * lambda_max) {
        return Err(BaselineError::NotPositiveSemidefinite {
            method,
            min_eigenvalue: *eig.eigenvalues.last().expect("non-empty eigenvalue list"),
        });
    }

    // Real coloring matrix: V·√Λ (clamping round-off negatives to zero).
    // The eigenvectors of a real embedding are real, so `.re` drops
    // nothing.
    let dim = 2 * k.rows();
    let mut coloring = Vec::with_capacity(dim * dim);
    for i in 0..dim {
        for j in 0..dim {
            coloring.push(eig.eigenvectors[(i, j)].re * eig.eigenvalues[j].max(0.0).sqrt());
        }
    }
    Ok(coloring)
}

/// Draws Salz–Winters snapshots: `2N` white real Gaussians colored by
/// [`real_root`], the first `N` the real parts and the last `N` the
/// imaginary parts.
#[derive(Debug, Clone)]
pub(crate) struct SalzWintersSampler {
    n: usize,
    /// Real coloring matrix of the 2N×2N embedding, row-major.
    coloring: Vec<f64>,
    rng: RandomStream,
    sampler: NormalSampler,
    /// White `2N` real vector scratch.
    a: Vec<f64>,
    /// Colored `2N` real vector scratch.
    c: Vec<f64>,
}

impl SalzWintersSampler {
    pub(crate) fn new(n: usize, coloring: Vec<f64>, seed: u64) -> Self {
        Self {
            n,
            coloring,
            rng: RandomStream::new(seed),
            sampler: NormalSampler::default(),
            a: vec![0.0; 2 * n],
            c: vec![0.0; 2 * n],
        }
    }

    /// Draws one real `2N` colored embedding vector into the internal
    /// scratch — the allocation-free primitive behind both the per-snapshot
    /// sampling methods and the streaming path.
    fn draw_embedding(&mut self) {
        let dim = 2 * self.n;
        let Self {
            rng,
            sampler,
            a,
            c,
            coloring,
            ..
        } = self;
        sampler.fill(rng, a, 0.0, 1.0);
        for (ci, row) in c.iter_mut().zip(coloring.chunks_exact(dim)) {
            *ci = row.iter().zip(a.iter()).map(|(&x, &y)| x * y).sum();
        }
    }

    /// Draws one correlated complex Gaussian vector.
    pub(crate) fn sample_gaussian(&mut self) -> Vec<Complex64> {
        self.draw_embedding();
        (0..self.n)
            .map(|j| c64(self.c[j], self.c[j + self.n]))
            .collect()
    }
}

impl ChannelStream for SalzWintersSampler {
    fn dimension(&self) -> usize {
        self.n
    }

    fn block_len(&self) -> usize {
        SNAPSHOT_STREAM_BLOCK_LEN
    }

    fn next_block_into(&mut self, block: &mut SampleBlock) -> Result<(), CorrfadeError> {
        let n = self.n;
        let m = SNAPSHOT_STREAM_BLOCK_LEN;
        block.resize(n, m);
        for l in 0..m {
            self.draw_embedding();
            let data = block.as_mut_slice();
            for j in 0..n {
                data[j * m + l] = c64(self.c[j], self.c[j + self.n]);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};
    use corrfade_stats::relative_frobenius_error;

    use crate::sampler::stream_covariance;
    use crate::BaselineMethod;

    const METHOD: &str = "Salz-Winters [1]";

    #[test]
    fn reproduces_equal_power_psd_covariance() {
        for k in [paper_covariance_matrix_22(), paper_covariance_matrix_23()] {
            let mut g = BaselineMethod::SalzWinters.try_stream(&k, 5).unwrap();
            assert_eq!(g.dimension(), 3);
            let khat = stream_covariance(g.as_mut(), 59);
            let err = relative_frobenius_error(&khat, &k);
            assert!(err < 0.04, "relative covariance error {err}");
        }
    }

    #[test]
    fn envelopes_are_rayleigh_distributed() {
        let k = paper_covariance_matrix_23();
        let mut g = SalzWintersSampler::new(3, real_root(&k, METHOD).unwrap(), 9);
        let env: Vec<f64> = (0..20_000).map(|_| g.sample_gaussian()[0].abs()).collect();
        let sigma = corrfade_stats::rayleigh_scale(1.0);
        let t = corrfade_stats::ks_test(&env, |r| corrfade_specfun::rayleigh_cdf(r, sigma));
        assert!(t.passes(0.001), "{t:?}");
    }

    #[test]
    fn rejects_unequal_powers() {
        let k = CMatrix::from_real_slice(2, 2, &[1.0, 0.2, 0.2, 2.0]);
        assert!(matches!(
            BaselineMethod::SalzWinters.try_generate(&k, 1),
            Err(BaselineError::UnequalPowersUnsupported { .. })
        ));
    }

    #[test]
    fn rejects_non_psd_covariance() {
        // The failure mode the paper highlights: a non-PSD target makes the
        // real square root complex, so the method cannot proceed.
        let k = CMatrix::from_real_slice(3, 3, &[1.0, 0.9, -0.9, 0.9, 1.0, 0.9, -0.9, 0.9, 1.0]);
        assert!(matches!(
            BaselineMethod::SalzWinters.try_generate(&k, 1),
            Err(BaselineError::NotPositiveSemidefinite { .. })
        ));
    }

    #[test]
    fn rejects_malformed_input() {
        let sw = BaselineMethod::SalzWinters;
        assert!(sw.try_generate(&CMatrix::zeros(2, 3), 1).is_err());
        let non_herm = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.5, 0.0)],
            vec![c64(0.1, 0.0), c64(1.0, 0.0)],
        ]);
        assert!(sw.try_generate(&non_herm, 1).is_err());
    }

    #[test]
    fn handles_singular_psd_covariance() {
        // Fully correlated equal-power pair — PSD but singular; the
        // eigen-based square root still exists.
        let k = CMatrix::from_real_slice(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        let s = BaselineMethod::SalzWinters.try_generate(&k, 3).unwrap();
        assert!(
            (s[0] - s[1]).abs() < 1e-9,
            "fully correlated fades must coincide"
        );
    }

    #[test]
    fn real_embedding_decomposes_into_a_real_coloring() {
        // K_{kj} = ρ^{|k−j|}·e^{iθ(k−j)} with ρ = 0.7, θ = 0.3: a complex
        // covariance, so the embedding has nonzero off-diagonal blocks.
        let complex_exponential = |n: usize| {
            CMatrix::from_fn(n, n, |i, j| {
                let d = i as i32 - j as i32;
                Complex64::from_polar(0.7f64.powi(d.abs()), 0.3 * f64::from(d))
            })
        };
        let mut ks = vec![
            paper_covariance_matrix_22(),
            paper_covariance_matrix_23(),
            CMatrix::from_real_slice(2, 2, &[1.0, 1.0, 1.0, 1.0]),
        ];
        ks.extend([4, 8, 16].map(complex_exponential));
        for k in &ks {
            let embedding = k.real_embedding().scale_real(0.5);
            // Every rotation of a real input stays real, so taking `.re` of
            // the eigenvectors drops nothing.
            let eig = hermitian_eigen(&embedding).unwrap();
            assert!(eig.eigenvectors.as_slice().iter().all(|z| z.im == 0.0));

            let c = real_root(k, METHOD).unwrap();
            let dim = 2 * k.rows();
            for i in 0..dim {
                for j in 0..dim {
                    let cct: f64 = (0..dim).map(|l| c[i * dim + l] * c[j * dim + l]).sum();
                    let want = embedding[(i, j)].re;
                    assert!(
                        (cct - want).abs() <= 1e-10,
                        "N = {}, ({i}, {j}): {cct} vs {want}",
                        k.rows()
                    );
                }
            }
        }
    }
}
