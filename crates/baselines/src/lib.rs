//! # corrfade-baselines
//!
//! Faithful reproductions of the conventional correlated-Rayleigh generation
//! methods the paper compares against (its references \[1\]–\[7\]), **including
//! their original restrictions and flaws**, so the experiment harness can
//! chart where each one fails and quantify the advantage of the proposed
//! algorithm:
//!
//! | Baseline | Entry point | Square root of `K` | Restrictions reproduced |
//! |----------|-------------|--------------------|-------------------------|
//! | Salz & Winters \[1\] | [`BaselineMethod::SalzWinters`] | real root of the `2N × 2N` embedding | equal powers; covariance must be PSD |
//! | Ertel & Reed \[2\] | [`BaselineMethod::ErtelReed`] | closed-form 2×2 factor | N = 2, equal powers |
//! | Beaulieu \[3\] | [`BaselineMethod::Beaulieu`] | closed-form 2×2 factor | N = 2, equal powers, real covariance |
//! | Beaulieu & Merani \[4\] | [`BaselineMethod::BeaulieuMerani`] | Cholesky | equal powers, PD required |
//! | Natarajan et al. \[5\] | [`BaselineMethod::Natarajan`], [`natarajan_lossy_stream`] | Cholesky of `Re(K)` | PD required, covariances forced real |
//! | Sorooshyari & Daut \[6\] | [`BaselineMethod::SorooshyariDaut`], [`SorooshyariDautRealtimeGenerator`] | ε-PSD forcing + Cholesky | equal powers, unit-variance Doppler combination |
//! | Young & Beaulieu \[7\] | `corrfade_dsp::IdftRayleighGenerator` | — | single envelope only (no cross-correlation) |
//!
//! The proposed algorithm itself lives in the `corrfade` crate.
//!
//! Refs \[2\]–\[6\] differ only in their restriction checks and in how
//! they get a square root `L` of `K`; one sampler colors white complex
//! Gaussian vectors with it. Salz–Winters' real root is not a complex
//! `N × N` coloring, so it keeps its own sampler. Every method implements
//! [`corrfade::ChannelStream`] through [`BaselineMethod::try_stream`],
//! writing planar [`corrfade::SampleBlock`] buffers like the proposed
//! generators, so the E8/E10 ablations compare every method through one
//! streaming interface.

#![warn(missing_docs)]

mod checks;
mod cholesky_methods;
mod error;
mod salz_winters_gen;
mod sampler;
mod sorooshyari_daut;
mod two_envelope;

use corrfade::ChannelStream;
use corrfade_linalg::{CMatrix, Complex64};

use checks::check_covariance;
use salz_winters_gen::SalzWintersSampler;
use sampler::SnapshotSampler;

pub use error::BaselineError;
pub use sorooshyari_daut::{epsilon_psd_forcing, SorooshyariDautRealtimeGenerator};

/// Identifies one of the reproduced conventional methods (used by the
/// experiment harness to build the E10 shortcoming matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineMethod {
    /// Salz & Winters \[1\].
    SalzWinters,
    /// Ertel & Reed \[2\].
    ErtelReed,
    /// Beaulieu \[3\].
    Beaulieu,
    /// Beaulieu & Merani \[4\].
    BeaulieuMerani,
    /// Natarajan, Nassar & Chandrasekhar \[5\].
    Natarajan,
    /// Sorooshyari & Daut \[6\].
    SorooshyariDaut,
}

/// A method's square root of `K`, after its restriction checks.
enum Root {
    /// A complex `N × N` coloring `L`: snapshots are `L·w` (refs
    /// \[2\]–\[6\]).
    Complex(CMatrix),
    /// Salz–Winters' real root of the `2N × 2N` embedding, row-major (ref.
    /// \[1\]).
    RealEmbedding(Vec<f64>),
}

impl BaselineMethod {
    /// All reproduced methods, in citation order.
    pub const ALL: [BaselineMethod; 6] = [
        BaselineMethod::SalzWinters,
        BaselineMethod::ErtelReed,
        BaselineMethod::Beaulieu,
        BaselineMethod::BeaulieuMerani,
        BaselineMethod::Natarajan,
        BaselineMethod::SorooshyariDaut,
    ];

    /// Human-readable name with the paper's reference number.
    pub fn name(self) -> &'static str {
        match self {
            BaselineMethod::SalzWinters => "Salz-Winters [1]",
            BaselineMethod::ErtelReed => "Ertel-Reed [2]",
            BaselineMethod::Beaulieu => "Beaulieu [3]",
            BaselineMethod::BeaulieuMerani => "Beaulieu-Merani [4]",
            BaselineMethod::Natarajan => "Natarajan [5]",
            BaselineMethod::SorooshyariDaut => "Sorooshyari-Daut [6]",
        }
    }

    /// Checks `k` against the method's restrictions and computes its
    /// square root.
    fn root(self, k: &CMatrix) -> Result<Root, BaselineError> {
        check_covariance(k)?;
        let method = self.name();
        Ok(match self {
            BaselineMethod::SalzWinters => {
                Root::RealEmbedding(salz_winters_gen::real_root(k, method)?)
            }
            BaselineMethod::ErtelReed => Root::Complex(two_envelope::ertel_reed(k, method)?),
            BaselineMethod::Beaulieu => Root::Complex(two_envelope::beaulieu(k, method)?),
            BaselineMethod::BeaulieuMerani => {
                Root::Complex(cholesky_methods::beaulieu_merani(k, method)?)
            }
            BaselineMethod::Natarajan => Root::Complex(cholesky_methods::natarajan(k, method)?),
            BaselineMethod::SorooshyariDaut => {
                Root::Complex(sorooshyari_daut::sorooshyari_daut(k, method)?)
            }
        })
    }

    /// Attempts to build the method for the given covariance matrix and draw
    /// a single snapshot, returning the failure if the method cannot handle
    /// the scenario.
    ///
    /// # Errors
    /// The restriction the scenario violates, as a [`BaselineError`].
    pub fn try_generate(self, k: &CMatrix, seed: u64) -> Result<Vec<Complex64>, BaselineError> {
        Ok(match self.root(k)? {
            Root::Complex(l) => SnapshotSampler::new(l, seed).sample_gaussian(),
            Root::RealEmbedding(r) => SalzWintersSampler::new(k.rows(), r, seed).sample_gaussian(),
        })
    }

    /// Attempts to build the method as a boxed [`ChannelStream`] for the
    /// given covariance matrix, so the E10 shortcoming matrix (and any
    /// service layer) can drive every baseline through the same streaming
    /// interface as the proposed algorithm.
    ///
    /// # Errors
    /// The restriction the scenario violates, as a [`BaselineError`].
    pub fn try_stream(
        self,
        k: &CMatrix,
        seed: u64,
    ) -> Result<Box<dyn ChannelStream>, BaselineError> {
        Ok(match self.root(k)? {
            Root::Complex(l) => Box::new(SnapshotSampler::new(l, seed)),
            Root::RealEmbedding(r) => Box::new(SalzWintersSampler::new(k.rows(), r, seed)),
        })
    }
}

/// Natarajan \[5\] the way it actually behaves on complex covariances: the
/// imaginary parts are silently dropped (`K ← Re(K)`) and generation
/// proceeds, streaming like [`BaselineMethod::try_stream`]. Used to
/// quantify the resulting bias.
///
/// # Errors
/// Malformed input, and the Cholesky failure on a `Re(K)` that is not
/// positive definite.
pub fn natarajan_lossy_stream(
    k: &CMatrix,
    seed: u64,
) -> Result<Box<dyn ChannelStream>, BaselineError> {
    check_covariance(k)?;
    let coloring = cholesky_methods::natarajan_lossy(k, BaselineMethod::Natarajan.name())?;
    Ok(Box::new(SnapshotSampler::new(coloring, seed)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_envelope::two_envelope_covariance;
    use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};

    #[test]
    fn shortcoming_matrix_on_paper_scenarios() {
        // Spatial scenario (Eq. 23): real, PD, equal powers, N = 3 — every
        // N≥3 method works; the N=2-only ones fail.
        let k23 = paper_covariance_matrix_23();
        assert!(BaselineMethod::SalzWinters.try_generate(&k23, 1).is_ok());
        assert!(BaselineMethod::BeaulieuMerani.try_generate(&k23, 1).is_ok());
        assert!(BaselineMethod::Natarajan.try_generate(&k23, 1).is_ok());
        assert!(BaselineMethod::SorooshyariDaut
            .try_generate(&k23, 1)
            .is_ok());
        assert!(BaselineMethod::ErtelReed.try_generate(&k23, 1).is_err());
        assert!(BaselineMethod::Beaulieu.try_generate(&k23, 1).is_err());

        // Spectral scenario (Eq. 22): complex covariances — Natarajan's
        // real-covariance restriction bites.
        let k22 = paper_covariance_matrix_22();
        assert!(matches!(
            BaselineMethod::Natarajan.try_generate(&k22, 1),
            Err(BaselineError::ComplexCovarianceUnsupported { .. })
        ));
        assert!(BaselineMethod::SalzWinters.try_generate(&k22, 1).is_ok());

        // Unequal powers: only the proposed algorithm and (for real
        // covariances) Natarajan survive.
        let unequal =
            CMatrix::from_real_slice(3, 3, &[2.0, 0.3, 0.1, 0.3, 1.0, 0.2, 0.1, 0.2, 0.5]);
        assert!(BaselineMethod::SalzWinters
            .try_generate(&unequal, 1)
            .is_err());
        assert!(BaselineMethod::BeaulieuMerani
            .try_generate(&unequal, 1)
            .is_err());
        assert!(BaselineMethod::SorooshyariDaut
            .try_generate(&unequal, 1)
            .is_err());
        assert!(BaselineMethod::Natarajan.try_generate(&unequal, 1).is_ok());

        // Non-PSD target: the Cholesky- and PSD-requiring methods fail;
        // Sorooshyari-Daut survives through its epsilon forcing.
        let indefinite =
            CMatrix::from_real_slice(3, 3, &[1.0, 0.9, -0.9, 0.9, 1.0, 0.9, -0.9, 0.9, 1.0]);
        assert!(BaselineMethod::SalzWinters
            .try_generate(&indefinite, 1)
            .is_err());
        assert!(BaselineMethod::BeaulieuMerani
            .try_generate(&indefinite, 1)
            .is_err());
        assert!(BaselineMethod::SorooshyariDaut
            .try_generate(&indefinite, 1)
            .is_ok());
    }

    #[test]
    fn streaming_baselines_match_their_per_snapshot_sampling_bit_for_bit() {
        use corrfade::SampleBlock;
        let k23 = paper_covariance_matrix_23();
        let k2 = two_envelope_covariance(1.0, corrfade_linalg::c64(0.5, 0.0));
        let mut block = SampleBlock::empty();
        for method in BaselineMethod::ALL {
            let two_envelope =
                matches!(method, BaselineMethod::ErtelReed | BaselineMethod::Beaulieu);
            let k = if two_envelope { &k2 } else { &k23 };
            let mut stream = method.try_stream(k, 42).unwrap();
            stream.next_block_into(&mut block).unwrap();
            let m = block.samples();
            assert_eq!(block.envelopes(), k.rows(), "{}", method.name());
            // The same seed through the per-snapshot API must produce the
            // identical sample sequence.
            let mut sample_gaussian: Box<dyn FnMut() -> Vec<_>> = match method.root(k).unwrap() {
                Root::Complex(l) => {
                    let mut g = SnapshotSampler::new(l, 42);
                    Box::new(move || g.sample_gaussian())
                }
                Root::RealEmbedding(r) => {
                    let mut g = SalzWintersSampler::new(k.rows(), r, 42);
                    Box::new(move || g.sample_gaussian())
                }
            };
            for l in 0..m {
                for (j, expected) in sample_gaussian().into_iter().enumerate() {
                    assert_eq!(block.path(j)[l], expected, "{} sample {l}", method.name());
                }
            }
        }
    }

    #[test]
    fn names_are_unique_and_cite_the_reference() {
        let mut names: Vec<&str> = BaselineMethod::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BaselineMethod::ALL.len());
        for m in BaselineMethod::ALL {
            assert!(m.name().contains('['));
        }
    }
}
