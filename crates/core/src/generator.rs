//! The discrete-time-instant generator (steps 6–7 of the algorithm,
//! paper Sec. 4.4).
//!
//! Given the coloring matrix `L` of the (PSD-forced) desired covariance
//! matrix, each call draws a white complex Gaussian vector
//! `W ~ CN(0, σ_g²·I)` with an *arbitrary* common variance `σ_g²` and colors
//! it:
//!
//! ```text
//! Z = L·W / σ_g
//! ```
//!
//! so that `E[Z·Zᴴ] = L·Lᴴ = K̄` regardless of `σ_g²`. The moduli `|z_j|` are
//! the desired correlated Rayleigh envelopes. Samples produced by successive
//! calls are independent over time (the correlated-in-time variant is
//! [`crate::realtime::RealtimeGenerator`]).

use std::sync::Arc;

use corrfade_linalg::{CMatrix, Complex64, SampleBlock};
use corrfade_randn::{ComplexGaussian, RandomStream};

use crate::coloring::{eigen_coloring, Coloring};
use crate::error::CorrfadeError;
use crate::stream::ChannelStream;

/// One draw of the generator: the correlated complex Gaussian vector `Z` and
/// its Rayleigh envelopes `|Z|`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The correlated zero-mean complex Gaussian variables `z_1 … z_N`.
    pub gaussian: Vec<Complex64>,
    /// The Rayleigh envelopes `r_j = |z_j|`.
    pub envelopes: Vec<f64>,
}

impl Sample {
    /// Number of envelopes in the sample.
    pub fn len(&self) -> usize {
        self.gaussian.len()
    }

    /// `true` when the sample is empty (never, for a constructed generator).
    pub fn is_empty(&self) -> bool {
        self.gaussian.is_empty()
    }
}

/// Snapshots whose white vectors [`CorrelatedRayleighGenerator`] draws
/// with one [`ComplexGaussian::fill`] call on the [`ChannelStream`] path:
/// 16 KiB of scratch at `N = 16`, small enough to stay in L1 between the
/// draw and the coloring.
const SNAPSHOT_TILE: usize = 64;

/// Generator of correlated Rayleigh fading envelopes at independent time
/// instants — the proposed algorithm of Sec. 4.4.
///
/// Also implements [`ChannelStream`] by batching
/// [`Self::stream_block_len`] independent snapshots into one planar block
/// per call, so single-instant and real-time generation (and the baselines)
/// can be driven — and compared — through the same streaming interface.
#[derive(Debug, Clone)]
pub struct CorrelatedRayleighGenerator {
    /// Shared, read-only: see [`Self::from_coloring`].
    coloring: Arc<Coloring>,
    desired: CMatrix,
    driving_variance: f64,
    rng: RandomStream,
    gaussian: ComplexGaussian,
    /// Snapshots per [`ChannelStream`] block.
    stream_block_len: usize,
    /// White vector `W` scratch: one snapshot for
    /// [`Self::sample_gaussian_into`], a tile of up to
    /// [`SNAPSHOT_TILE`] snapshots for the [`ChannelStream`] path.
    w: Vec<Complex64>,
    /// Per-snapshot colored vector `Z` scratch of the [`ChannelStream`]
    /// path, scattered into the planar block.
    z: Vec<Complex64>,
}

impl CorrelatedRayleighGenerator {
    /// Creates a generator for the desired covariance matrix `K` with the
    /// default driving variance `σ_g² = 1` and the given RNG seed.
    pub fn new(covariance: CMatrix, seed: u64) -> Result<Self, CorrfadeError> {
        Self::with_driving_variance(covariance, 1.0, seed)
    }

    /// Creates a generator with an explicit driving variance `σ_g²` for the
    /// white vector `W` (the result is invariant to this choice; it exists so
    /// the real-time algorithm can pass the Doppler-filtered variance of
    /// Eq. 19 through the identical code path).
    pub fn with_driving_variance(
        covariance: CMatrix,
        driving_variance: f64,
        seed: u64,
    ) -> Result<Self, CorrfadeError> {
        let coloring = eigen_coloring(&covariance)?;
        Self::from_coloring(coloring, covariance, driving_variance, seed)
    }

    /// Assembles a generator from a precomputed coloring of `desired`, so
    /// callers that build many generators over one covariance (the parallel
    /// engine, one per chunk) decompose it once. Pass the `Arc` of
    /// [`crate::cached_eigen_coloring`] to share its one copy of the
    /// matrix; an owned [`Coloring`] is wrapped in a fresh `Arc`.
    pub fn from_coloring(
        coloring: impl Into<Arc<Coloring>>,
        desired: CMatrix,
        driving_variance: f64,
        seed: u64,
    ) -> Result<Self, CorrfadeError> {
        let coloring = coloring.into();
        if driving_variance <= 0.0 || driving_variance.is_nan() {
            return Err(CorrfadeError::InvalidDrivingVariance {
                value: driving_variance,
            });
        }
        let n = coloring.dimension();
        Ok(Self {
            coloring,
            desired,
            driving_variance,
            rng: RandomStream::new(seed),
            gaussian: ComplexGaussian::default(),
            stream_block_len: Self::DEFAULT_STREAM_BLOCK_LEN,
            w: vec![Complex64::ZERO; n],
            z: vec![Complex64::ZERO; n],
        })
    }

    /// Default number of snapshots batched into one [`ChannelStream`] block.
    pub const DEFAULT_STREAM_BLOCK_LEN: usize = 1024;

    /// Number of independent snapshots batched into each block produced
    /// through [`ChannelStream`].
    #[must_use]
    pub fn stream_block_len(&self) -> usize {
        self.stream_block_len
    }

    /// Sets the [`ChannelStream`] batch length.
    ///
    /// # Panics
    /// Panics if `len` is zero.
    pub fn set_stream_block_len(&mut self, len: usize) {
        assert!(len > 0, "stream block length must be positive");
        self.stream_block_len = len;
    }

    /// Builder-style variant of [`Self::set_stream_block_len`].
    #[must_use]
    pub fn with_stream_block_len(mut self, len: usize) -> Self {
        self.set_stream_block_len(len);
        self
    }

    /// Number of envelopes `N`.
    pub fn dimension(&self) -> usize {
        self.coloring.dimension()
    }

    /// The desired covariance matrix the generator was configured with.
    pub fn desired_covariance(&self) -> &CMatrix {
        &self.desired
    }

    /// The covariance the generator actually realizes, `L·Lᴴ` — equal to the
    /// desired matrix when it was PSD, its closest PSD approximation
    /// otherwise.
    pub fn realized_covariance(&self) -> CMatrix {
        self.coloring.realized_covariance()
    }

    /// The coloring (matrix + PSD-forcing metadata).
    pub fn coloring(&self) -> &Coloring {
        &self.coloring
    }

    /// The driving variance `σ_g²` of the internal white vector `W`.
    pub fn driving_variance(&self) -> f64 {
        self.driving_variance
    }

    /// Draws the next correlated complex Gaussian vector `Z` (step 6 + 7)
    /// into a caller-owned buffer, using only internal scratch — the
    /// allocation-free primitive behind [`Self::sample_gaussian`]. The
    /// [`ChannelStream`] implementation draws the same bits a tile of
    /// snapshots at a time.
    ///
    /// # Errors
    /// [`CorrfadeError::BufferLength`] if `out.len()` differs from the
    /// generator dimension; nothing is drawn then.
    pub fn sample_gaussian_into(&mut self, out: &mut [Complex64]) -> Result<(), CorrfadeError> {
        let n = self.coloring.dimension();
        if out.len() != n {
            return Err(CorrfadeError::BufferLength {
                expected: n,
                got: out.len(),
            });
        }
        let w = &mut self.w[..n];
        self.gaussian.fill(&mut self.rng, w, self.driving_variance);
        self.coloring.matrix.matvec_into(w, out);
        let scale = 1.0 / self.driving_variance.sqrt();
        for zj in out.iter_mut() {
            *zj = zj.scale(scale);
        }
        Ok(())
    }

    /// Draws the next correlated complex Gaussian vector `Z` (step 6 + 7).
    pub fn sample_gaussian(&mut self) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.dimension()];
        self.sample_gaussian_into(&mut out)
            .expect("the buffer has the generator dimension");
        out
    }

    /// Draws the next sample (complex Gaussians and their Rayleigh
    /// envelopes).
    pub fn sample(&mut self) -> Sample {
        let gaussian = self.sample_gaussian();
        let envelopes = gaussian.iter().map(|z| z.abs()).collect();
        Sample {
            gaussian,
            envelopes,
        }
    }
}

impl ChannelStream for CorrelatedRayleighGenerator {
    fn dimension(&self) -> usize {
        self.coloring.dimension()
    }

    /// The configured snapshot batch size — see
    /// [`CorrelatedRayleighGenerator::stream_block_len`].
    fn block_len(&self) -> usize {
        self.stream_block_len
    }

    /// Batches `block_len()` independent snapshots into one planar block:
    /// sample `l` of the block is the `l`-th snapshot, drawn in exactly the
    /// order of repeated [`CorrelatedRayleighGenerator::sample_gaussian`]
    /// calls (bit-identical for equal seeds).
    ///
    /// The white vectors of up to 64 snapshots are drawn by one
    /// [`ComplexGaussian::fill`] call — the same words and bits as one
    /// call per snapshot, since each element takes one whole normal pair —
    /// and then colored one snapshot at a time with the same `matvec_into`.
    fn next_block_into(&mut self, block: &mut SampleBlock) -> Result<(), CorrfadeError> {
        let n = self.coloring.dimension();
        let m = self.stream_block_len;
        block.resize(n, m);
        let tile = SNAPSHOT_TILE.min(m);
        if self.w.len() < n * tile {
            self.w.resize(n * tile, Complex64::ZERO);
        }
        let scale = 1.0 / self.driving_variance.sqrt();
        let data = block.as_mut_slice();
        let mut l0 = 0;
        while l0 < m {
            let t = tile.min(m - l0);
            let w = &mut self.w[..n * t];
            self.gaussian.fill(&mut self.rng, w, self.driving_variance);
            for (k, wk) in w.chunks_exact(n).enumerate() {
                self.coloring.matrix.matvec_into(wk, &mut self.z);
                for (j, zj) in self.z.iter().enumerate() {
                    data[j * m + l0 + k] = zj.scale(scale);
                }
            }
            l0 += t;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_linalg::c64;
    use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};
    use corrfade_stats::{relative_frobenius_error, sample_covariance_from_block};

    #[test]
    fn basic_accessors() {
        let k = paper_covariance_matrix_22();
        let g = CorrelatedRayleighGenerator::new(k.clone(), 1).unwrap();
        assert_eq!(g.dimension(), 3);
        assert_eq!(g.driving_variance(), 1.0);
        assert!(g.desired_covariance().approx_eq(&k, 0.0));
        assert!(g.realized_covariance().approx_eq(&k, 1e-10));
        assert_eq!(g.coloring().dimension(), 3);
    }

    #[test]
    fn sample_shape_and_envelope_consistency() {
        let mut g = CorrelatedRayleighGenerator::new(paper_covariance_matrix_23(), 2).unwrap();
        let s = g.sample();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        for (z, &r) in s.gaussian.iter().zip(s.envelopes.iter()) {
            assert!((z.abs() - r).abs() < 1e-15);
            assert!(r >= 0.0);
        }
    }

    #[test]
    fn reproducible_across_equal_seeds() {
        let k = paper_covariance_matrix_22();
        let mut a = CorrelatedRayleighGenerator::new(k.clone(), 99).unwrap();
        let mut b = CorrelatedRayleighGenerator::new(k.clone(), 99).unwrap();
        let mut c = CorrelatedRayleighGenerator::new(k, 100).unwrap();
        assert_eq!(a.sample(), b.sample());
        assert_ne!(a.sample(), c.sample());
    }

    #[test]
    fn sample_covariance_converges_to_desired_covariance() {
        // The central claim of Sec. 4.5: E[Z Z^H] = K.
        let k = paper_covariance_matrix_22();
        let g = CorrelatedRayleighGenerator::new(k.clone(), 7).unwrap();
        let khat =
            sample_covariance_from_block(&g.with_stream_block_len(60_000).next_block().unwrap());
        let err = relative_frobenius_error(&khat, &k);
        assert!(err < 0.03, "relative covariance error {err}");
    }

    #[test]
    fn result_is_invariant_to_driving_variance() {
        // E[Z Z^H] = K for any σ_g² of the white vector W.
        let k = paper_covariance_matrix_23();
        for &var in &[0.1, 1.0, 17.0] {
            let g = CorrelatedRayleighGenerator::with_driving_variance(k.clone(), var, 11).unwrap();
            let khat = sample_covariance_from_block(
                &g.with_stream_block_len(40_000).next_block().unwrap(),
            );
            let err = relative_frobenius_error(&khat, &k);
            assert!(err < 0.04, "driving variance {var}: relative error {err}");
        }
    }

    #[test]
    fn unequal_power_envelopes_have_the_requested_powers() {
        // Unequal powers on the diagonal: 1.0, 4.0, 0.25.
        let k = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.5, 0.5), c64(0.1, 0.0)],
            vec![c64(0.5, -0.5), c64(4.0, 0.0), c64(0.2, -0.3)],
            vec![c64(0.1, 0.0), c64(0.2, 0.3), c64(0.25, 0.0)],
        ]);
        let g = CorrelatedRayleighGenerator::new(k.clone(), 3).unwrap();
        let mut block = g.with_stream_block_len(50_000).next_block().unwrap();
        for j in 0..3 {
            let power = corrfade_stats::mean_square(block.envelope_path(j));
            let expected = k[(j, j)].re;
            assert!(
                (power - expected).abs() / expected < 0.05,
                "envelope {j}: power {power}, expected {expected}"
            );
        }
    }

    #[test]
    fn envelope_moments_match_paper_eq_14_15() {
        let k = paper_covariance_matrix_22();
        let g = CorrelatedRayleighGenerator::new(k, 5).unwrap();
        let mut block = g.with_stream_block_len(60_000).next_block().unwrap();
        for j in 0..3 {
            let check = corrfade_stats::check_envelope_moments(block.envelope_path(j), 1.0);
            assert!(
                check.max_relative_error() < 0.05,
                "envelope moments deviate: {check:?}"
            );
        }
    }

    #[test]
    fn generated_envelopes_pass_rayleigh_ks_test() {
        let k = paper_covariance_matrix_23();
        let g = CorrelatedRayleighGenerator::new(k, 13).unwrap();
        let mut block = g.with_stream_block_len(20_000).next_block().unwrap();
        for j in 0..3 {
            let sigma = corrfade_stats::rayleigh_scale(1.0);
            let t = corrfade_stats::ks_test(block.envelope_path(j), |r| {
                corrfade_specfun::rayleigh_cdf(r, sigma)
            });
            assert!(
                t.passes(0.001),
                "KS test rejected a generated envelope: {t:?}"
            );
        }
    }

    #[test]
    fn indefinite_covariance_realizes_its_psd_projection() {
        let k = CMatrix::from_real_slice(3, 3, &[1.0, 0.9, -0.9, 0.9, 1.0, 0.9, -0.9, 0.9, 1.0]);
        let g = CorrelatedRayleighGenerator::new(k.clone(), 21).unwrap();
        assert!(g.coloring().psd.clipped_count > 0);
        let forced = g.realized_covariance();
        let khat =
            sample_covariance_from_block(&g.with_stream_block_len(60_000).next_block().unwrap());
        // Converges to the forced matrix, not (and necessarily not) to K.
        assert!(relative_frobenius_error(&khat, &forced) < 0.03);
        assert!(relative_frobenius_error(&forced, &k) > 0.01);
    }

    #[test]
    fn streaming_batches_match_snapshot_draws_bit_for_bit() {
        // Block lengths on both sides of the 64-snapshot draw tile, at the
        // paper's N = 3 and at N = 16, each block followed by one single
        // draw on the streaming generator: every bit must be that of the
        // equally-seeded generator's repeated `sample_gaussian` calls.
        let exponential =
            CMatrix::from_fn(16, 16, |i, j| c64(0.7f64.powi(i.abs_diff(j) as i32), 0.0));
        let same = |a: Complex64, b: Complex64| {
            (a.re.to_bits(), a.im.to_bits()) == (b.re.to_bits(), b.im.to_bits())
        };
        for k in [paper_covariance_matrix_22(), exponential] {
            let n = k.rows();
            for len in [1, 17, 63, 64, 65, 4096] {
                let new = || CorrelatedRayleighGenerator::with_driving_variance(k.clone(), 2.5, 31);
                let mut snap = new().unwrap();
                let mut stream = new().unwrap().with_stream_block_len(len);
                assert_eq!(ChannelStream::block_len(&stream), len);
                let mut block = SampleBlock::empty();
                let mut single = vec![Complex64::ZERO; n];
                for round in 0..2 {
                    stream.next_block_into(&mut block).unwrap();
                    for l in 0..len {
                        for (j, want) in snap.sample_gaussian().into_iter().enumerate() {
                            assert!(
                                same(block.path(j)[l], want),
                                "n {n}, len {len}, round {round}, snapshot {l}, envelope {j}"
                            );
                        }
                    }
                    stream.sample_gaussian_into(&mut single).unwrap();
                    for (got, want) in single.iter().zip(snap.sample_gaussian()) {
                        assert!(
                            same(*got, want),
                            "n {n}, len {len}: draw after block {round}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_wrong_buffer_length_is_a_typed_error_and_draws_nothing() {
        let new = || CorrelatedRayleighGenerator::new(paper_covariance_matrix_22(), 5).unwrap();
        let mut g = new();
        for len in [0, 2, 4] {
            let mut out = vec![Complex64::ZERO; len];
            assert_eq!(
                g.sample_gaussian_into(&mut out),
                Err(CorrfadeError::BufferLength {
                    expected: 3,
                    got: len
                })
            );
        }
        assert_eq!(g.sample_gaussian(), new().sample_gaussian());
    }

    #[test]
    #[should_panic(expected = "stream block length must be positive")]
    fn zero_stream_block_len_rejected() {
        let mut g = CorrelatedRayleighGenerator::new(paper_covariance_matrix_22(), 1).unwrap();
        g.set_stream_block_len(0);
    }

    #[test]
    fn invalid_driving_variance_rejected() {
        let k = paper_covariance_matrix_22();
        assert!(matches!(
            CorrelatedRayleighGenerator::with_driving_variance(k, 0.0, 1),
            Err(CorrfadeError::InvalidDrivingVariance { .. })
        ));
    }
}
