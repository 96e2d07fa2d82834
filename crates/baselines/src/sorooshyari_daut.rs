//! Baseline \[6\]: Sorooshyari & Daut's generator, including its flawed
//! real-time (Doppler) combination.
//!
//! Sorooshyari & Daut handle covariance matrices that are not positive
//! definite by replacing every non-positive eigenvalue with a small
//! `ε > 0` and then Cholesky-factorizing the rebuilt matrix. Compared with
//! the paper's zero-clipping this is (a) a strictly worse Frobenius
//! approximation, and (b) still at the mercy of Cholesky round-off when the
//! resulting matrix is near-singular.
//!
//! For the real-time scenario, ref. \[6\] feeds Young–Beaulieu Doppler
//! generator outputs into its coloring step **assuming unit variance** of
//! those outputs. In reality the Doppler filter changes the variance to
//! `σ_g² = 2·σ²_orig/M²·ΣF[k]²` (paper Eq. 19), so the realized covariance is
//! scaled by `σ_g²` — this is "the main shortcoming" the paper corrects.
//! [`SorooshyariDautRealtimeGenerator`] reproduces the flawed combination so
//! experiment E8 can quantify the error.

use corrfade::{ChannelStream, CorrfadeError};
use corrfade_dsp::{color_idft_block, DopplerFilter, IdftRayleighGenerator};
use corrfade_linalg::{hermitian_eigen, CMatrix, Complex64, SampleBlock};
use corrfade_randn::RandomStream;

use crate::checks::{check_covariance, cholesky_or_error, require_equal_powers};
use crate::error::BaselineError;
use crate::BaselineMethod;

/// The default ε used when rebuilding a non-PSD covariance matrix, matching
/// the "small positive number" of ref. \[6\].
pub(crate) const DEFAULT_EPSILON: f64 = 1e-4;

/// Replaces every non-positive eigenvalue of `k` with `epsilon` and rebuilds
/// the matrix (the ref.-\[6\] approximation). Returns the rebuilt matrix and
/// the number of replaced eigenvalues.
///
/// # Errors
/// [`BaselineError::Invalid`] when the matrix is not square, non-empty,
/// finite and Hermitian.
pub fn epsilon_psd_forcing(k: &CMatrix, epsilon: f64) -> Result<(CMatrix, usize), BaselineError> {
    check_covariance(k)?;
    let eig = hermitian_eigen(k).map_err(|_| BaselineError::Invalid {
        reason: "eigendecomposition of the covariance matrix failed",
    })?;
    let replaced = eig.eigenvalues.iter().filter(|&&l| l <= 0.0).count();
    if replaced == 0 {
        return Ok((k.clone(), 0));
    }
    let adjusted: Vec<f64> = eig
        .eigenvalues
        .iter()
        .map(|&l| if l > 0.0 { l } else { epsilon })
        .collect();
    Ok((eig.reconstruct_with(&adjusted), replaced))
}

/// The Sorooshyari–Daut coloring (baseline \[6\]): equal-power envelopes,
/// ε-forced PSD approximation, Cholesky factor.
///
/// # Errors
/// Unequal powers are rejected; Cholesky failure on the ε-forced matrix
/// (which ref. \[6\] reports happening in MATLAB for some complex
/// covariances) is surfaced as [`BaselineError::CholeskyFailed`].
pub(crate) fn sorooshyari_daut(
    k: &CMatrix,
    method: &'static str,
) -> Result<CMatrix, BaselineError> {
    require_equal_powers(k, method)?;
    let (forced, _) = epsilon_psd_forcing(k, DEFAULT_EPSILON)?;
    cholesky_or_error(&forced, method)
}

/// The flawed real-time combination of ref. \[6\]: Doppler-filtered sequences
/// are colored **as if they had unit variance**, ignoring the Eq.-19 variance
/// change of the Doppler filter. The block runs through the same
/// [`color_idft_block`] as the proposed generator, with scale 1 in place of
/// `1/σ_g`, so the flaw is exactly the scale.
///
/// Implements [`ChannelStream`] so the E8 ablation can drive the proposed
/// and flawed combinations through the identical streaming code path.
#[derive(Debug, Clone)]
pub struct SorooshyariDautRealtimeGenerator {
    coloring: CMatrix,
    idft: IdftRayleighGenerator,
    rng: RandomStream,
    /// Planar `N × M` scratch for the Doppler-weighted spectra.
    raw: Vec<Complex64>,
    /// Gather scratch of [`color_idft_block`].
    w: Vec<Complex64>,
    /// Split-complex plane scratch of [`color_idft_block`].
    planes: Vec<f64>,
}

impl SorooshyariDautRealtimeGenerator {
    /// Builds the flawed real-time generator.
    ///
    /// # Errors
    /// The construction errors of [`BaselineMethod::SorooshyariDaut`], plus
    /// the Doppler-filter design errors.
    pub fn new(
        k: &CMatrix,
        idft_size: usize,
        normalized_doppler: f64,
        sigma_orig_sq: f64,
        seed: u64,
    ) -> Result<Self, BaselineError> {
        check_covariance(k)?;
        let coloring = sorooshyari_daut(k, BaselineMethod::SorooshyariDaut.name())?;
        let filter = DopplerFilter::new(idft_size, normalized_doppler).map_err(|_| {
            BaselineError::Invalid {
                reason: "invalid Doppler filter parameters",
            }
        })?;
        let idft = IdftRayleighGenerator::new(filter, sigma_orig_sq).map_err(|_| {
            BaselineError::Invalid {
                reason: "invalid Doppler generator variance",
            }
        })?;
        Ok(Self {
            coloring,
            idft,
            rng: RandomStream::new(seed),
            raw: Vec::new(),
            w: Vec::new(),
            planes: Vec::new(),
        })
    }
}

impl ChannelStream for SorooshyariDautRealtimeGenerator {
    fn dimension(&self) -> usize {
        self.coloring.rows()
    }

    fn block_len(&self) -> usize {
        self.idft.filter().len()
    }

    /// Generates one block of `M` time samples per envelope using the flawed
    /// unit-variance assumption: `Z[l] = L·W[l]` with no `1/σ_g` scaling,
    /// that is [`color_idft_block`] with scale 1.
    fn next_block_into(&mut self, block: &mut SampleBlock) -> Result<(), CorrfadeError> {
        let n = self.coloring.rows();
        let m = self.idft.filter().len();
        block.resize(n, m);
        self.raw.resize(n * m, Complex64::ZERO);
        for j in 0..n {
            self.idft
                .fill_spectrum_into(&mut self.rng, &mut self.raw[j * m..(j + 1) * m]);
        }
        // Flaw reproduced on purpose: ref. [6] inserts the Doppler outputs
        // into its step 6 as if their variance were 1.
        color_idft_block(
            n,
            m,
            self.coloring.as_slice(),
            1.0,
            &mut self.raw,
            block.as_mut_slice(),
            &mut self.w,
            &mut self.planes,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_dsp::{color_idft_block_with, ifft_in_place_with};
    use corrfade_linalg::kernel::{self, Backend};
    use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};
    use corrfade_stats::relative_frobenius_error;

    use crate::sampler::stream_covariance;

    #[test]
    fn single_instant_mode_works_on_pd_covariances() {
        let k = paper_covariance_matrix_23();
        let mut g = BaselineMethod::SorooshyariDaut.try_stream(&k, 3).unwrap();
        assert_eq!(g.dimension(), 3);
        assert_eq!(epsilon_psd_forcing(&k, DEFAULT_EPSILON).unwrap().1, 0);
        let khat = stream_covariance(g.as_mut(), 59);
        assert!(relative_frobenius_error(&khat, &k) < 0.04);
        let snapshot = BaselineMethod::SorooshyariDaut.try_generate(&k, 3);
        assert_eq!(snapshot.unwrap().len(), 3);
    }

    #[test]
    fn epsilon_forcing_is_less_precise_than_zero_clipping() {
        // E7's core comparison.
        let k = CMatrix::from_real_slice(3, 3, &[1.0, 0.9, -0.9, 0.9, 1.0, 0.9, -0.9, 0.9, 1.0]);
        let (eps_forced, replaced) = epsilon_psd_forcing(&k, 1e-3).unwrap();
        assert_eq!(replaced, 1);
        let zero_forced = corrfade::force_positive_semidefinite(&k).unwrap().forced;
        assert!(
            zero_forced.frobenius_distance(&k) < eps_forced.frobenius_distance(&k),
            "zero clipping must approximate K at least as well as epsilon replacement"
        );
        // PSD input passes through unchanged.
        let (same, zero) = epsilon_psd_forcing(&paper_covariance_matrix_23(), 1e-3).unwrap();
        assert_eq!(zero, 0);
        assert!(same.approx_eq(&paper_covariance_matrix_23(), 1e-12));
    }

    #[test]
    fn indefinite_covariance_is_handled_via_epsilon() {
        let k = CMatrix::from_real_slice(3, 3, &[1.0, 0.9, -0.9, 0.9, 1.0, 0.9, -0.9, 0.9, 1.0]);
        assert!(BaselineMethod::SorooshyariDaut.try_generate(&k, 5).is_ok());
        let (forced, replaced) = epsilon_psd_forcing(&k, DEFAULT_EPSILON).unwrap();
        assert_eq!(replaced, 1);
        // The forced covariance differs from K (it must — K is not PSD).
        assert!(forced.max_abs_diff(&k) > 1e-3);
    }

    #[test]
    fn unequal_powers_rejected() {
        let k = CMatrix::from_real_slice(2, 2, &[1.0, 0.1, 0.1, 2.0]);
        assert!(matches!(
            BaselineMethod::SorooshyariDaut.try_generate(&k, 1),
            Err(BaselineError::UnequalPowersUnsupported { .. })
        ));
    }

    #[test]
    fn flawed_realtime_combination_misses_the_desired_covariance() {
        // E8's core demonstration: the realized covariance is scaled by the
        // Doppler output variance σ_g² ≠ 1 because the method ignores Eq. 19.
        let k = paper_covariance_matrix_22();
        let mut flawed = SorooshyariDautRealtimeGenerator::new(&k, 1024, 0.05, 0.5, 11).unwrap();
        assert_eq!(flawed.dimension(), 3);
        let sigma_g_sq = flawed.idft.output_variance();
        assert!(
            (sigma_g_sq - 1.0).abs() > 0.05,
            "test premise: σ_g² must differ from 1"
        );

        let khat = stream_covariance(&mut flawed, 30);
        // Large error against the desired covariance ...
        let err_against_desired = relative_frobenius_error(&khat, &k);
        // ... but consistent with the σ_g²-scaled covariance, confirming the
        // error is exactly the ignored variance factor.
        let scaled = k.scale_real(sigma_g_sq);
        let err_against_scaled = relative_frobenius_error(&khat, &scaled);
        assert!(
            err_against_desired > 3.0 * err_against_scaled.max(0.02),
            "flawed method should miss the target ({err_against_desired:.3}) \
             but match the σ_g²-scaled matrix ({err_against_scaled:.3})"
        );
    }

    /// The realtime loop this generator ran before it called
    /// `color_idft_block`: an inverse transform per row, then one matvec per
    /// time instant, unscaled.
    fn per_instant_loop(
        b: Backend,
        n: usize,
        m: usize,
        a: &CMatrix,
        raw: &mut [Complex64],
    ) -> Vec<Complex64> {
        for row in raw.chunks_exact_mut(m) {
            ifft_in_place_with(b, row);
        }
        let mut out = vec![Complex64::ZERO; n * m];
        let (mut w, mut z) = (vec![Complex64::ZERO; n], vec![Complex64::ZERO; n]);
        for l in 0..m {
            for j in 0..n {
                w[j] = raw[j * m + l];
            }
            kernel::matvec_into_with(b, n, n, a.as_slice(), &w, &mut z);
            for j in 0..n {
                out[j * m + l] = z[j];
            }
        }
        out
    }

    /// The flawed generator on the Eq.-22 matrix at M = 1024, and the three
    /// Doppler spectra its first block draws from `seed`.
    fn eq22_block(seed: u64) -> (SorooshyariDautRealtimeGenerator, Vec<Complex64>) {
        let k = paper_covariance_matrix_22();
        let g = SorooshyariDautRealtimeGenerator::new(&k, 1024, 0.05, 0.5, seed).unwrap();
        let m = g.block_len();
        let mut rng = RandomStream::new(seed);
        let mut raw = vec![Complex64::ZERO; g.dimension() * m];
        for row in raw.chunks_exact_mut(m) {
            g.idft.fill_spectrum_into(&mut rng, row);
        }
        (g, raw)
    }

    /// Bit for bit on the scalar backend; within 1e-12 of the peak on the
    /// vector backend, which colors the Doppler bins before the transform.
    fn assert_matches(b: Backend, got: &[Complex64], want: &[Complex64]) {
        if b == Backend::Scalar {
            for (x, y) in got.iter().zip(want) {
                assert_eq!(
                    (x.re.to_bits(), x.im.to_bits()),
                    (y.re.to_bits(), y.im.to_bits())
                );
            }
        } else {
            let gap = got
                .iter()
                .zip(want)
                .map(|(x, y)| (*x - *y).abs())
                .fold(0.0, f64::max);
            let peak = want.iter().map(|z| z.abs()).fold(0.0, f64::max);
            assert!(gap <= 1e-12 * peak, "vector gap {gap:e}, peak {peak:e}");
        }
    }

    #[test]
    fn unit_scale_color_idft_block_matches_the_per_instant_loop() {
        let (g, raw) = eq22_block(11);
        let (n, m) = (g.dimension(), g.block_len());
        let reference = per_instant_loop(Backend::Scalar, n, m, &g.coloring, &mut raw.clone());
        for b in [Backend::Scalar, Backend::Vector] {
            let mut work = raw.clone();
            let mut out = vec![Complex64::ZERO; n * m];
            let (mut w, mut planes) = (Vec::new(), Vec::new());
            let a = g.coloring.as_slice();
            color_idft_block_with(b, n, m, a, 1.0, &mut work, &mut out, &mut w, &mut planes);
            assert_matches(b, &out, &reference);
        }
    }

    #[test]
    fn realtime_block_matches_the_per_instant_loop_on_the_active_backend() {
        let (mut g, mut raw) = eq22_block(23);
        let (n, m) = (g.dimension(), g.block_len());
        let mut block = SampleBlock::new(n, m);
        g.next_block_into(&mut block).unwrap();
        let b = kernel::backend();
        let reference = per_instant_loop(b, n, m, &g.coloring, &mut raw);
        assert_matches(b, block.as_slice(), &reference);
    }
}
