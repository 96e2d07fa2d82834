//! Real-time (Doppler-correlated) generation of N correlated Rayleigh
//! envelopes — the paper's Sec. 5 algorithm (Fig. 3).
//!
//! The single-instant generator of [`crate::generator`] produces samples that
//! are independent from one time instant to the next. A realistic fading
//! process is band-limited by the Doppler spread, so its samples are
//! correlated in time with autocorrelation `J₀(2π·f_m·d)`. The paper obtains
//! both properties at once by stacking `N` Young–Beaulieu IDFT generators
//! (one per envelope, paper ref. \[7\]) and coloring their outputs at every
//! time instant with the eigendecomposition coloring matrix:
//!
//! 1. design the Doppler filter `F[k]` (Eq. 21) for the chosen `M` and `f_m`,
//! 2. run `N` independent IDFT generators → sequences `u_j[l]`, each with
//!    autocorrelation `∝ J₀(2π·f_m·d)` and output variance
//!    `σ_g² = 2·σ²_orig/M²·ΣF[k]²` (Eq. 19),
//! 3. at every instant `l`, form `W[l] = (u_1[l], …, u_N[l])ᵀ` and output
//!    `Z[l] = L·W[l]/σ_g`.
//!
//! Feeding the *true* `σ_g²` of step 2 into step 3 — rather than assuming the
//! filter leaves the variance at 1 — is the correction over Sorooshyari–Daut
//! (ref. \[6\]) that makes the realized covariance equal the desired one. The
//! flawed variant is reproduced in `corrfade-baselines` for the E8 ablation.

use std::sync::Arc;

use corrfade_dsp::{DopplerFilter, IdftRayleighGenerator};
use corrfade_linalg::{CMatrix, Complex64, SampleBlock};
use corrfade_randn::RandomStream;

use crate::coloring::{eigen_coloring, Coloring};
use crate::error::CorrfadeError;
use crate::stream::ChannelStream;

/// The sample-precision tag of a [`RealtimeConfig`]. Generation has one
/// path, the bit-exact `f64` one; this single-variant enum survives only so
/// existing `RealtimeConfig` struct literals keep compiling, and goes with
/// the next benchmark revision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Double precision — the only generation path.
    #[default]
    F64,
}

/// Configuration of the real-time generator.
#[derive(Debug, Clone)]
pub struct RealtimeConfig {
    /// Desired covariance matrix **K** of the complex Gaussian processes
    /// (diagonal = `σ_g²_j`).
    pub covariance: CMatrix,
    /// IDFT length `M` (number of time samples produced per block). The paper
    /// uses 4096.
    pub idft_size: usize,
    /// Normalized maximum Doppler frequency `f_m = F_m/F_s`. The paper uses
    /// 0.05.
    pub normalized_doppler: f64,
    /// Per-dimension variance `σ²_orig` of the Gaussian sequences feeding the
    /// Doppler filters. The paper uses 1/2. The realized covariance is
    /// invariant to this choice — that invariance is exactly what the
    /// variance-aware combination buys.
    pub sigma_orig_sq: f64,
    /// RNG seed.
    pub seed: u64,
    /// Unused: nothing reads or matches on this field. It is kept only for
    /// struct-literal compatibility and goes with the next benchmark
    /// revision.
    pub precision: Precision,
}

impl RealtimeConfig {
    /// The paper's Sec. 6 settings (`M = 4096`, `f_m = 0.05`,
    /// `σ²_orig = 1/2`) for a given covariance matrix and seed.
    pub fn paper_defaults(covariance: CMatrix, seed: u64) -> Self {
        Self {
            covariance,
            idft_size: 4096,
            normalized_doppler: 0.05,
            sigma_orig_sq: 0.5,
            seed,
            precision: Precision::F64,
        }
    }
}

/// Generator of `N` correlated, Doppler-band-limited Rayleigh fading
/// processes (paper Fig. 3).
///
/// The streaming entry point is [`ChannelStream::next_block_into`], which
/// writes `Z[l] = L·W[l]/σ_g` directly into a caller-owned planar
/// [`SampleBlock`] and keeps all working memory (the `N × M` Doppler
/// scratch, the per-instant `W`/`Z` vectors) inside the generator — zero
/// heap allocation per block in steady state.
#[derive(Debug, Clone)]
pub struct RealtimeGenerator {
    /// Shared, read-only: every generator over the same covariance can
    /// hold the one decomposition of the process-wide cache.
    coloring: Arc<Coloring>,
    desired: CMatrix,
    idft: IdftRayleighGenerator,
    sigma_g_sq: f64,
    rng: RandomStream,
    /// Planar `N × M` scratch for the raw Doppler sequences `u_j[l]`.
    raw: Vec<Complex64>,
    /// Per-instant `W[l]` gather scratch (scalar kernel backend).
    w: Vec<Complex64>,
    /// Split-complex tile scratch (vector kernel backend).
    planes: Vec<f64>,
}

impl RealtimeGenerator {
    /// Builds the generator: performs steps 1–5 of the single-instant
    /// algorithm (coloring of the covariance matrix), designs the Doppler
    /// filter and precomputes the Eq.-19 output variance.
    pub fn new(config: RealtimeConfig) -> Result<Self, CorrfadeError> {
        let coloring = eigen_coloring(&config.covariance)?;
        Self::from_coloring(coloring, config)
    }

    /// Assembles a generator from a precomputed coloring of
    /// `config.covariance` — lets callers that spin up many generators for
    /// the same covariance matrix (a fleet, a network's link groups, a
    /// server's sessions) pay for the eigendecomposition once. Pass the
    /// `Arc` of [`crate::cached_eigen_coloring`] to share its one copy of
    /// the matrix; an owned [`Coloring`] is wrapped in a fresh `Arc`.
    pub fn from_coloring(
        coloring: impl Into<Arc<Coloring>>,
        config: RealtimeConfig,
    ) -> Result<Self, CorrfadeError> {
        let coloring = coloring.into();
        let filter = DopplerFilter::new(config.idft_size, config.normalized_doppler)?;
        let idft = IdftRayleighGenerator::new(filter, config.sigma_orig_sq)?;
        let sigma_g_sq = idft.output_variance();
        Ok(Self {
            coloring,
            desired: config.covariance,
            idft,
            sigma_g_sq,
            rng: RandomStream::new(config.seed),
            raw: Vec::new(),
            w: Vec::new(),
            planes: Vec::new(),
        })
    }

    /// Number of envelopes `N`.
    pub fn dimension(&self) -> usize {
        self.coloring.dimension()
    }

    /// Number of time samples per block, `M`.
    pub fn block_len(&self) -> usize {
        self.idft.filter().len()
    }

    /// The Doppler filter in use.
    pub fn filter(&self) -> &DopplerFilter {
        self.idft.filter()
    }

    /// The Eq.-19 output variance `σ_g²` of each Doppler-filtered sequence —
    /// the value fed into the coloring step.
    pub fn doppler_output_variance(&self) -> f64 {
        self.sigma_g_sq
    }

    /// The desired covariance matrix.
    pub fn desired_covariance(&self) -> &CMatrix {
        &self.desired
    }

    /// The covariance actually realized, `L·Lᴴ`.
    pub fn realized_covariance(&self) -> CMatrix {
        self.coloring.realized_covariance()
    }

    /// The coloring (matrix + PSD-forcing metadata).
    pub fn coloring(&self) -> &Coloring {
        &self.coloring
    }

    /// The streaming hot path behind [`ChannelStream::next_block_into`]:
    /// draws the `N` Doppler-weighted spectra into the planar scratch, then
    /// inverts and colors them through [`corrfade_dsp::color_idft_block`]
    /// (the coloring `Z[l] = L·W[l]/σ_g` of the IDFT outputs; the vector
    /// backend colors the nonzero Doppler bins before the IDFT); on the
    /// scalar backend that reproduces the pre-kernel outputs bit for bit.
    /// No heap allocation once the scratch and the destination block are
    /// warm.
    fn fill_block(&mut self, block: &mut SampleBlock) {
        let n = self.coloring.dimension();
        let m = self.idft.filter().len();
        block.resize(n, m);
        self.raw.resize(n * m, Complex64::ZERO);

        // Steps 2–5 of the Sec. 5 algorithm: N independent Doppler-weighted
        // spectra, one per envelope, planar in the scratch buffer. (The
        // IDFTs run in `color_idft_block` below; the RNG draw order is
        // identical to transforming each row eagerly.)
        for j in 0..n {
            self.idft
                .fill_spectrum_into(&mut self.rng, &mut self.raw[j * m..(j + 1) * m]);
        }

        // Steps 6–8: invert each spectrum and color every time instant
        // with the Eq.-19 variance.
        let scale = 1.0 / self.sigma_g_sq.sqrt();
        corrfade_dsp::color_idft_block(
            n,
            m,
            self.coloring.matrix.as_slice(),
            scale,
            &mut self.raw,
            block.as_mut_slice(),
            &mut self.w,
            &mut self.planes,
        );
    }

    /// Fast-forwards the stream past `blocks` blocks without generating
    /// them: only the RNG draws of each skipped block are replayed
    /// ([`IdftRayleighGenerator::skip_spectrum`], once per envelope per
    /// block) — the IDFT, the coloring matvec and every output write are
    /// skipped entirely. Afterwards the generator's next block is
    /// **bit-identical** to the `blocks + 1`-th block of an untouched
    /// stream.
    ///
    /// This is the serving layer's resume primitive: a client reconnecting
    /// with a block cursor gets a fresh generator (decomposition from the
    /// process-wide cache) fast-forwarded to its cursor at a fraction of
    /// the cost of regenerating the blocks it already holds.
    pub fn skip_blocks(&mut self, blocks: u64) {
        let n = self.coloring.dimension();
        for _ in 0..blocks {
            for _ in 0..n {
                self.idft.skip_spectrum(&mut self.rng);
            }
        }
    }
}

impl ChannelStream for RealtimeGenerator {
    fn dimension(&self) -> usize {
        self.coloring.dimension()
    }

    fn block_len(&self) -> usize {
        self.idft.filter().len()
    }

    fn next_block_into(&mut self, block: &mut SampleBlock) -> Result<(), CorrfadeError> {
        self.fill_block(block);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};
    use corrfade_stats::{normalized_autocorrelation, relative_frobenius_error};

    fn small_config(k: CMatrix, seed: u64) -> RealtimeConfig {
        // Smaller M than the paper to keep unit tests quick; the benches use
        // the full 4096.
        RealtimeConfig {
            covariance: k,
            idft_size: 1024,
            normalized_doppler: 0.05,
            sigma_orig_sq: 0.5,
            seed,
            precision: Precision::F64,
        }
    }

    /// Sample covariance folded block by block over `blocks` streamed blocks.
    fn streamed_covariance(g: &mut RealtimeGenerator, blocks: usize) -> CMatrix {
        let n = g.dimension();
        let mut acc = CMatrix::zeros(n, n);
        let mut block = SampleBlock::empty();
        for _ in 0..blocks {
            g.next_block_into(&mut block).unwrap();
            block.accumulate_covariance(&mut acc);
        }
        acc.scale_real(1.0 / (blocks * g.block_len()) as f64)
    }

    #[test]
    fn construction_and_accessors() {
        let k = paper_covariance_matrix_22();
        let g = RealtimeGenerator::new(RealtimeConfig::paper_defaults(k.clone(), 1)).unwrap();
        assert_eq!(g.dimension(), 3);
        assert_eq!(g.block_len(), 4096);
        assert_eq!(g.filter().km(), 204);
        assert!(g.desired_covariance().approx_eq(&k, 0.0));
        assert!(g.realized_covariance().approx_eq(&k, 1e-10));
        // Eq. 19 variance is NOT σ²_orig.
        assert!((g.doppler_output_variance() - 0.5).abs() > 0.05);
    }

    #[test]
    fn block_shape() {
        let mut g = RealtimeGenerator::new(small_config(paper_covariance_matrix_23(), 3)).unwrap();
        let mut b = g.next_block().unwrap();
        assert_eq!(b.envelopes(), 3);
        assert_eq!(b.samples(), 1024);
        let envelopes = b.envelope_slice().to_vec();
        for (z, &r) in b.as_slice().iter().zip(&envelopes) {
            assert!((z.abs() - r).abs() < 1e-15);
        }
    }

    #[test]
    fn realized_covariance_matches_desired_spectral_case() {
        // Experiment E3's quantitative core: with the variance-aware
        // combination, the sample covariance over many blocks converges to
        // the desired Eq.-22 matrix.
        let k = paper_covariance_matrix_22();
        let mut g = RealtimeGenerator::new(small_config(k.clone(), 17)).unwrap();
        let khat = streamed_covariance(&mut g, 40);
        let err = relative_frobenius_error(&khat, &k);
        assert!(err < 0.08, "relative covariance error {err}");
    }

    #[test]
    fn realized_covariance_matches_desired_spatial_case() {
        let k = paper_covariance_matrix_23();
        let mut g = RealtimeGenerator::new(small_config(k.clone(), 29)).unwrap();
        let khat = streamed_covariance(&mut g, 40);
        let err = relative_frobenius_error(&khat, &k);
        assert!(err < 0.08, "relative covariance error {err}");
    }

    #[test]
    fn each_envelope_has_the_doppler_autocorrelation() {
        // Experiment E6's core: every generated process keeps the
        // J0(2π fm d) autocorrelation of its Doppler filter after coloring.
        let k = paper_covariance_matrix_23();
        let mut g = RealtimeGenerator::new(small_config(k, 41)).unwrap();
        let target = g.filter().normalized_autocorrelation(40);
        let mut acc = vec![0.0f64; 41];
        let runs = 30;
        let mut block = SampleBlock::empty();
        for _ in 0..runs {
            g.next_block_into(&mut block).unwrap();
            for j in 0..3 {
                let rho = normalized_autocorrelation(block.path(j), 40);
                for (a, r) in acc.iter_mut().zip(rho.iter()) {
                    *a += r;
                }
            }
        }
        for a in acc.iter_mut() {
            *a /= (runs * 3) as f64;
        }
        for d in 0..=40 {
            assert!(
                (acc[d] - target[d]).abs() < 0.08,
                "lag {d}: autocorrelation {} vs filter target {}",
                acc[d],
                target[d]
            );
        }
    }

    #[test]
    fn envelopes_are_rayleigh() {
        // One long block stands in for many short ones: each envelope path
        // holds 16384 time samples.
        let k = paper_covariance_matrix_22();
        let cfg = RealtimeConfig {
            idft_size: 16_384,
            ..small_config(k, 53)
        };
        let mut block = RealtimeGenerator::new(cfg).unwrap().next_block().unwrap();
        for j in 0..3 {
            let sigma = corrfade_stats::rayleigh_scale(1.0);
            let t = corrfade_stats::ks_test(block.envelope_path(j), |r| {
                corrfade_specfun::rayleigh_cdf(r, sigma)
            });
            // The samples are correlated in time, which weakens the KS test's
            // independence assumption, so use a lenient significance level;
            // the statistic itself must still be small.
            assert!(t.statistic < 0.05, "KS statistic too large: {t:?}");
        }
    }

    #[test]
    fn result_is_invariant_to_sigma_orig() {
        // The whole point of the Eq.-19 correction: changing σ²_orig must not
        // change the realized covariance.
        let k = paper_covariance_matrix_22();
        for &sigma_orig_sq in &[0.1, 0.5, 3.0] {
            let cfg = RealtimeConfig {
                sigma_orig_sq,
                ..small_config(k.clone(), 61)
            };
            let mut g = RealtimeGenerator::new(cfg).unwrap();
            let khat = streamed_covariance(&mut g, 30);
            let err = relative_frobenius_error(&khat, &k);
            assert!(
                err < 0.09,
                "sigma_orig_sq {sigma_orig_sq}: relative covariance error {err}"
            );
        }
    }

    #[test]
    fn skip_blocks_is_bit_identical_to_generating_them() {
        let k = paper_covariance_matrix_22();
        let mut continuous = RealtimeGenerator::new(small_config(k.clone(), 123)).unwrap();
        let mut block = SampleBlock::empty();
        for _ in 0..4 {
            continuous.next_block_into(&mut block).unwrap();
        }
        let expected: Vec<u64> = block
            .as_slice()
            .iter()
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect();

        // Skip 3, generate the 4th: must be the continuous 4th block.
        let mut resumed = RealtimeGenerator::new(small_config(k.clone(), 123)).unwrap();
        resumed.skip_blocks(3);
        let mut got = SampleBlock::empty();
        resumed.next_block_into(&mut got).unwrap();
        let got_bits: Vec<u64> = got
            .as_slice()
            .iter()
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect();
        assert_eq!(got_bits, expected);

        // skip_blocks(0) is a no-op.
        let mut untouched = RealtimeGenerator::new(small_config(k.clone(), 9)).unwrap();
        let mut noop = RealtimeGenerator::new(small_config(k, 9)).unwrap();
        noop.skip_blocks(0);
        assert_eq!(untouched.next_block().unwrap(), noop.next_block().unwrap());
    }

    #[test]
    fn from_coloring_shares_the_decomposition() {
        let k = paper_covariance_matrix_22();
        let coloring = crate::coloring::eigen_coloring(&k).unwrap();
        let mut a = RealtimeGenerator::from_coloring(coloring, small_config(k.clone(), 3)).unwrap();
        let mut b = RealtimeGenerator::new(small_config(k, 3)).unwrap();
        assert_eq!(a.next_block().unwrap(), b.next_block().unwrap());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let k = paper_covariance_matrix_22();
        let bad_doppler = RealtimeConfig {
            normalized_doppler: 0.9,
            ..small_config(k.clone(), 1)
        };
        assert!(matches!(
            RealtimeGenerator::new(bad_doppler),
            Err(CorrfadeError::Dsp(_))
        ));
        let bad_sigma = RealtimeConfig {
            sigma_orig_sq: -1.0,
            ..small_config(k.clone(), 1)
        };
        assert!(matches!(
            RealtimeGenerator::new(bad_sigma),
            Err(CorrfadeError::Dsp(_))
        ));
        let bad_cov = RealtimeConfig {
            covariance: CMatrix::zeros(2, 3),
            ..small_config(k, 1)
        };
        assert!(matches!(
            RealtimeGenerator::new(bad_cov),
            Err(CorrfadeError::NotSquare { .. })
        ));
    }
}
