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

/// One generated block: `N` correlated fading processes observed over `M`
/// consecutive time samples.
#[derive(Debug, Clone)]
pub struct RealtimeBlock {
    /// `gaussian_paths[j][l]` — complex Gaussian sample of envelope `j` at
    /// time instant `l`.
    pub gaussian_paths: Vec<Vec<Complex64>>,
    /// `envelope_paths[j][l] = |gaussian_paths[j][l]|` — the Rayleigh
    /// envelopes.
    pub envelope_paths: Vec<Vec<f64>>,
}

impl RealtimeBlock {
    /// Number of envelopes `N`.
    pub fn envelopes(&self) -> usize {
        self.gaussian_paths.len()
    }

    /// Number of time samples `M`.
    pub fn samples(&self) -> usize {
        self.gaussian_paths.first().map_or(0, Vec::len)
    }
}

/// Generator of `N` correlated, Doppler-band-limited Rayleigh fading
/// processes (paper Fig. 3).
///
/// The streaming entry point is [`ChannelStream::next_block_into`], which
/// writes `Z[l] = L·W[l]/σ_g` directly into a caller-owned planar
/// [`SampleBlock`] and keeps all working memory (the `N × M` Doppler
/// scratch, the per-instant `W`/`Z` vectors) inside the generator — zero
/// heap allocation per block in steady state. [`Self::generate_block`] and
/// [`Self::generate_blocks`] remain as thin compatibility wrappers that
/// materialize the legacy [`RealtimeBlock`] layout.
#[derive(Debug, Clone)]
pub struct RealtimeGenerator {
    coloring: Coloring,
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
    /// the same covariance matrix (e.g. the parallel engine, one RNG
    /// sub-stream per block) pay for the eigendecomposition once.
    pub fn from_coloring(
        coloring: Coloring,
        config: RealtimeConfig,
    ) -> Result<Self, CorrfadeError> {
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

    /// A copy of this generator whose RNG is rewound to a fresh stream for
    /// `seed` — behaviourally identical to rebuilding with the same
    /// configuration and the new seed, but without repeating the
    /// eigendecomposition and filter design.
    #[must_use]
    pub fn reseeded(&self, seed: u64) -> Self {
        Self {
            rng: RandomStream::new(seed),
            ..self.clone()
        }
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
    /// runs the **fused coloring+IDFT kernel**
    /// ([`corrfade_dsp::color_idft_block`]) — the final butterfly stage and
    /// the coloring `Z[l] = L·W[l]/σ_g` execute in one output pass, so each
    /// block sample is written exactly once. The fused kernel is
    /// bit-identical per backend to the historical two-pass path (IDFT per
    /// row, then `color_block`), so the scalar backend still reproduces the
    /// pre-kernel outputs bit for bit. No heap allocation once the scratch
    /// and the destination block are warm.
    fn fill_block(&mut self, block: &mut SampleBlock) {
        let n = self.coloring.dimension();
        let m = self.idft.filter().len();
        block.resize(n, m);
        self.raw.resize(n * m, Complex64::ZERO);

        // Steps 2–5 of the Sec. 5 algorithm: N independent Doppler-weighted
        // spectra, one per envelope, planar in the scratch buffer. (The
        // IDFTs run inside the fused kernel below; the RNG draw order is
        // identical to transforming each row eagerly.)
        for j in 0..n {
            self.idft
                .fill_spectrum_into(&mut self.rng, &mut self.raw[j * m..(j + 1) * m]);
        }

        // Steps 6–8, fused: invert each spectrum and color every time
        // instant with the Eq.-19 variance in one pass over the output.
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

    /// Generates one block of `M` consecutive time samples of all `N`
    /// correlated fading processes.
    ///
    /// Compatibility wrapper over the streaming path: allocates the legacy
    /// per-envelope `Vec`s on every call. Prefer
    /// [`ChannelStream::next_block_into`] with a pooled [`SampleBlock`] on
    /// hot paths.
    pub fn generate_block(&mut self) -> RealtimeBlock {
        let mut block = SampleBlock::empty();
        self.fill_block(&mut block);
        RealtimeBlock {
            gaussian_paths: block.to_paths(),
            envelope_paths: block.to_envelope_paths(),
        }
    }

    /// Generates `blocks` consecutive blocks and concatenates them per
    /// envelope (convenience for long Monte-Carlo runs).
    ///
    /// Compatibility wrapper over the streaming path; one internal
    /// [`SampleBlock`] is reused across all blocks and each block's lazily
    /// computed envelopes are appended directly — the envelopes are not
    /// recomputed over the concatenated paths.
    pub fn generate_blocks(&mut self, blocks: usize) -> RealtimeBlock {
        let n = self.dimension();
        let mut gaussian_paths: Vec<Vec<Complex64>> = vec![Vec::new(); n];
        let mut envelope_paths: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut block = SampleBlock::empty();
        for _ in 0..blocks {
            self.fill_block(&mut block);
            for (j, path) in gaussian_paths.iter_mut().enumerate() {
                path.extend_from_slice(block.path(j));
            }
            for (j, path) in envelope_paths.iter_mut().enumerate() {
                path.extend_from_slice(block.envelope_path(j));
            }
        }
        RealtimeBlock {
            gaussian_paths,
            envelope_paths,
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
    use corrfade_stats::{
        normalized_autocorrelation, relative_frobenius_error, sample_covariance_from_paths,
    };

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
        let b = g.generate_block();
        assert_eq!(b.envelopes(), 3);
        assert_eq!(b.samples(), 1024);
        for j in 0..3 {
            assert_eq!(b.gaussian_paths[j].len(), 1024);
            for (z, &r) in b.gaussian_paths[j].iter().zip(b.envelope_paths[j].iter()) {
                assert!((z.abs() - r).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn realized_covariance_matches_desired_spectral_case() {
        // Experiment E3's quantitative core: with the variance-aware
        // combination, the sample covariance over many blocks converges to
        // the desired Eq.-22 matrix.
        let k = paper_covariance_matrix_22();
        let mut g = RealtimeGenerator::new(small_config(k.clone(), 17)).unwrap();
        let block = g.generate_blocks(40);
        let khat = sample_covariance_from_paths(&block.gaussian_paths);
        let err = relative_frobenius_error(&khat, &k);
        assert!(err < 0.08, "relative covariance error {err}");
    }

    #[test]
    fn realized_covariance_matches_desired_spatial_case() {
        let k = paper_covariance_matrix_23();
        let mut g = RealtimeGenerator::new(small_config(k.clone(), 29)).unwrap();
        let block = g.generate_blocks(40);
        let khat = sample_covariance_from_paths(&block.gaussian_paths);
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
        for _ in 0..runs {
            let block = g.generate_block();
            for path in &block.gaussian_paths {
                let rho = normalized_autocorrelation(path, 40);
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
        let k = paper_covariance_matrix_22();
        let mut g = RealtimeGenerator::new(small_config(k, 53)).unwrap();
        let block = g.generate_blocks(20);
        for path in &block.envelope_paths {
            let sigma = corrfade_stats::rayleigh_scale(1.0);
            let t = corrfade_stats::ks_test(path, |r| corrfade_specfun::rayleigh_cdf(r, sigma));
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
            let block = g.generate_blocks(30);
            let khat = sample_covariance_from_paths(&block.gaussian_paths);
            let err = relative_frobenius_error(&khat, &k);
            assert!(
                err < 0.09,
                "sigma_orig_sq {sigma_orig_sq}: relative covariance error {err}"
            );
        }
    }

    #[test]
    fn streaming_is_bit_identical_to_legacy_wrappers() {
        let k = paper_covariance_matrix_22();
        let mut legacy = RealtimeGenerator::new(small_config(k.clone(), 77)).unwrap();
        let mut streaming = RealtimeGenerator::new(small_config(k, 77)).unwrap();
        let reference = legacy.generate_blocks(3);
        let mut block = SampleBlock::empty();
        let mut offset = 0;
        for _ in 0..3 {
            streaming.next_block_into(&mut block).unwrap();
            let m = block.samples();
            for j in 0..3 {
                assert_eq!(
                    &reference.gaussian_paths[j][offset..offset + m],
                    block.path(j)
                );
                assert_eq!(
                    &reference.envelope_paths[j][offset..offset + m],
                    block.envelope_path(j)
                );
            }
            offset += m;
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
        assert_eq!(
            untouched.generate_block().gaussian_paths,
            noop.generate_block().gaussian_paths
        );
    }

    #[test]
    fn reseeded_matches_fresh_generator() {
        let k = paper_covariance_matrix_23();
        let mut used = RealtimeGenerator::new(small_config(k.clone(), 5)).unwrap();
        let _ = used.generate_block(); // advance the RNG
        let mut reseeded = used.reseeded(9);
        let mut fresh = RealtimeGenerator::new(small_config(k, 9)).unwrap();
        assert_eq!(
            reseeded.generate_block().gaussian_paths,
            fresh.generate_block().gaussian_paths
        );
    }

    #[test]
    fn from_coloring_shares_the_decomposition() {
        let k = paper_covariance_matrix_22();
        let coloring = crate::coloring::eigen_coloring(&k).unwrap();
        let mut a = RealtimeGenerator::from_coloring(coloring, small_config(k.clone(), 3)).unwrap();
        let mut b = RealtimeGenerator::new(small_config(k, 3)).unwrap();
        assert_eq!(
            a.generate_block().gaussian_paths,
            b.generate_block().gaussian_paths
        );
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
