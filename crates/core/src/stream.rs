//! The zero-allocation streaming generation surface.
//!
//! The paper's Sec. 5 algorithm is inherently streaming: blocks of `M`
//! Doppler-correlated samples of `N` envelopes are produced one after
//! another. [`ChannelStream`] is the one interface every generator in the
//! workspace speaks — the real-time generator, the single-instant generator
//! (batching independent snapshots into blocks), and the conventional
//! baselines in `corrfade-baselines` — so ablation experiments compare
//! like-for-like through a single code path, and services can hold a
//! heterogeneous set of `Box<dyn ChannelStream>` channels.
//!
//! Blocks are written into a caller-owned planar [`SampleBlock`]; after the
//! first call has sized the buffer and the generator's internal scratch,
//! subsequent calls perform **no heap allocation** (the workspace carries an
//! allocation-regression test for this).
//!
//! ```
//! use corrfade::{ChannelStream, RealtimeConfig, RealtimeGenerator, SampleBlock};
//! use corrfade::Precision;
//! use corrfade_models::paper_covariance_matrix_23;
//!
//! let cfg = RealtimeConfig {
//!     covariance: paper_covariance_matrix_23(),
//!     idft_size: 256,
//!     normalized_doppler: 0.05,
//!     sigma_orig_sq: 0.5,
//!     seed: 7,
//!     precision: Precision::F64,
//! };
//! let mut stream = RealtimeGenerator::new(cfg).unwrap();
//! let mut block = SampleBlock::empty();
//! stream.next_block_into(&mut block).unwrap();
//! assert_eq!(block.envelopes(), stream.dimension());
//! assert_eq!(block.samples(), stream.block_len());
//! ```

use corrfade_linalg::SampleBlock;

use crate::error::CorrfadeError;

/// A source of correlated fading sample blocks written into caller-owned
/// planar buffers.
///
/// Implementations resize the destination block to
/// `dimension() × block_len()` (a capacity-reusing no-op in steady state)
/// and overwrite its contents; they must not allocate per call once their
/// internal scratch is warm.
pub trait ChannelStream {
    /// Number of correlated envelope processes `N` produced per block.
    #[must_use]
    fn dimension(&self) -> usize;

    /// Number of time samples `M` per produced block.
    #[must_use]
    fn block_len(&self) -> usize;

    /// Generates the next block of `dimension() × block_len()` samples into
    /// `block`, resizing it if necessary.
    ///
    /// # Errors
    /// Implementations report generation failures as [`CorrfadeError`]; the
    /// in-tree generators validate their configuration at construction time
    /// and never fail here.
    fn next_block_into(&mut self, block: &mut SampleBlock) -> Result<(), CorrfadeError>;

    /// Convenience: allocates a fresh block and fills it. Use
    /// [`ChannelStream::next_block_into`] with a pooled block on hot paths.
    ///
    /// # Errors
    /// Same as [`ChannelStream::next_block_into`].
    fn next_block(&mut self) -> Result<SampleBlock, CorrfadeError> {
        let mut block = SampleBlock::empty();
        self.next_block_into(&mut block)?;
        Ok(block)
    }
}

impl<S: ChannelStream + ?Sized> ChannelStream for Box<S> {
    fn dimension(&self) -> usize {
        (**self).dimension()
    }

    fn block_len(&self) -> usize {
        (**self).block_len()
    }

    fn next_block_into(&mut self, block: &mut SampleBlock) -> Result<(), CorrfadeError> {
        (**self).next_block_into(block)
    }
}

impl<S: ChannelStream + ?Sized> ChannelStream for &mut S {
    fn dimension(&self) -> usize {
        (**self).dimension()
    }

    fn block_len(&self) -> usize {
        (**self).block_len()
    }

    fn next_block_into(&mut self, block: &mut SampleBlock) -> Result<(), CorrfadeError> {
        (**self).next_block_into(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CorrelatedRayleighGenerator;
    use corrfade_models::paper_covariance_matrix_22;

    #[test]
    fn trait_is_object_safe_and_boxable() {
        let gen = CorrelatedRayleighGenerator::new(paper_covariance_matrix_22(), 1).unwrap();
        let mut stream: Box<dyn ChannelStream> = Box::new(gen);
        assert_eq!(stream.dimension(), 3);
        let block = stream.next_block().unwrap();
        assert_eq!(block.envelopes(), 3);
        assert_eq!(block.samples(), stream.block_len());
    }

    #[test]
    fn mutable_reference_forwards() {
        let mut gen = CorrelatedRayleighGenerator::new(paper_covariance_matrix_22(), 1).unwrap();
        fn through_generic<S: ChannelStream>(s: &mut S) -> usize {
            s.dimension()
        }
        assert_eq!(through_generic(&mut &mut gen), 3);
    }
}
