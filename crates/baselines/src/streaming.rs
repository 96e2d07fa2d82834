//! Shared plumbing for the baselines' [`corrfade::ChannelStream`]
//! implementations.
//!
//! The single-instant baselines (\[1\], \[4\], \[5\], \[6\]) all color a
//! white complex Gaussian vector with a precomputed matrix; their streaming
//! implementations batch [`SNAPSHOT_STREAM_BLOCK_LEN`] independent snapshots
//! into one planar block using only generator-owned scratch, so the E10
//! shortcoming matrix can drive every method through the interface of the
//! proposed algorithm.

use corrfade_linalg::{CMatrix, Complex64, SampleBlock};
use corrfade_randn::{ComplexGaussian, RandomStream};

/// Snapshots batched per `ChannelStream` block by the single-instant
/// baseline generators — the proposed generator's default batch length, so
/// like-for-like comparisons see identical batch shapes.
pub(crate) const SNAPSHOT_STREAM_BLOCK_LEN: usize =
    corrfade::CorrelatedRayleighGenerator::DEFAULT_STREAM_BLOCK_LEN;

/// Fills `block` with [`SNAPSHOT_STREAM_BLOCK_LEN`] unit-variance snapshots
/// colored by `coloring`, drawing the white vectors in exactly the order of
/// repeated `sample_gaussian` calls on the generator (bit-identical for equal
/// seeds). `w`/`z` are generator-owned scratch vectors; nothing is
/// allocated once they and `block` are warm.
pub(crate) fn fill_snapshot_block(
    coloring: &CMatrix,
    gaussian: &mut ComplexGaussian,
    rng: &mut RandomStream,
    w: &mut Vec<Complex64>,
    z: &mut Vec<Complex64>,
    block: &mut SampleBlock,
) {
    let n = coloring.rows();
    let m = SNAPSHOT_STREAM_BLOCK_LEN;
    block.resize(n, m);
    w.resize(n, Complex64::ZERO);
    z.resize(n, Complex64::ZERO);
    let data = block.as_mut_slice();
    for l in 0..m {
        gaussian.fill(rng, w, 1.0);
        coloring.matvec_into(w, z);
        for j in 0..n {
            data[j * m + l] = z[j];
        }
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
