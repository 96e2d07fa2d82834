//! The one sampler behind refs \[2\]–\[6\]: a white complex Gaussian vector
//! colored by the method's square root of `K`.
//!
//! Its [`corrfade::ChannelStream`] blocks batch
//! [`SNAPSHOT_STREAM_BLOCK_LEN`] independent snapshots into one planar block
//! using only sampler-owned scratch, so the E10 shortcoming matrix drives
//! every method through the interface of the proposed algorithm.

use corrfade::{ChannelStream, CorrfadeError};
use corrfade_linalg::{CMatrix, Complex64, SampleBlock};
use corrfade_randn::{ComplexGaussian, RandomStream};

/// Snapshots per `ChannelStream` block of the single-instant baselines —
/// the proposed generator's default batch length, so like-for-like
/// comparisons see identical batch shapes.
pub(crate) const SNAPSHOT_STREAM_BLOCK_LEN: usize =
    corrfade::CorrelatedRayleighGenerator::DEFAULT_STREAM_BLOCK_LEN;

/// Draws snapshots `z = L·w` with `w` white, unit-variance complex Gaussian
/// and `L` a coloring matrix.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotSampler {
    coloring: CMatrix,
    rng: RandomStream,
    gaussian: ComplexGaussian,
    /// White-vector scratch.
    w: Vec<Complex64>,
    /// Colored-vector scratch.
    z: Vec<Complex64>,
}

impl SnapshotSampler {
    pub(crate) fn new(coloring: CMatrix, seed: u64) -> Self {
        let n = coloring.rows();
        Self {
            coloring,
            rng: RandomStream::new(seed),
            gaussian: ComplexGaussian::default(),
            w: vec![Complex64::ZERO; n],
            z: vec![Complex64::ZERO; n],
        }
    }

    /// Draws one snapshot into `self.z`.
    fn draw(&mut self) {
        self.gaussian.fill(&mut self.rng, &mut self.w, 1.0);
        self.coloring.matvec_into(&self.w, &mut self.z);
    }

    /// Draws one correlated complex Gaussian vector.
    pub(crate) fn sample_gaussian(&mut self) -> Vec<Complex64> {
        self.draw();
        self.z.clone()
    }
}

impl ChannelStream for SnapshotSampler {
    fn dimension(&self) -> usize {
        self.coloring.rows()
    }

    fn block_len(&self) -> usize {
        SNAPSHOT_STREAM_BLOCK_LEN
    }

    fn next_block_into(&mut self, block: &mut SampleBlock) -> Result<(), CorrfadeError> {
        let (n, m) = (self.coloring.rows(), SNAPSHOT_STREAM_BLOCK_LEN);
        block.resize(n, m);
        for l in 0..m {
            self.draw();
            let data = block.as_mut_slice();
            for (j, &z) in self.z.iter().enumerate() {
                data[j * m + l] = z;
            }
        }
        Ok(())
    }
}

/// Sample covariance of `blocks` streamed blocks, folded block by block.
#[cfg(test)]
pub(crate) fn stream_covariance(
    stream: &mut dyn corrfade::ChannelStream,
    blocks: usize,
) -> CMatrix {
    let n = stream.dimension();
    let mut acc = CMatrix::zeros(n, n);
    let mut block = SampleBlock::empty();
    for _ in 0..blocks {
        stream.next_block_into(&mut block).unwrap();
        block.accumulate_covariance(&mut acc);
    }
    acc.scale_real(1.0 / (blocks * stream.block_len()) as f64)
}
