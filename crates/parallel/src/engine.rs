//! Multi-threaded Monte-Carlo estimation of the covariance realized by the
//! single-instant generator.
//!
//! The expensive part of validating the generator is drawing millions of
//! snapshots, not computing the coloring matrix — the decomposition is done
//! once per covariance matrix (and shared process-wide through
//! [`corrfade::cached_eigen_coloring`]). [`monte_carlo_covariance`]
//! therefore:
//!
//! 1. resolves the eigen-coloring through the decomposition cache (a hit for
//!    every covariance matrix the process has seen before),
//! 2. splits the requested ensemble into chunks sized by the load-balancing
//!    heuristic ([`crate::balanced_chunk_size`]), each with its own
//!    deterministic RNG seed,
//! 3. runs the chunks as the items of one [`Runtime::try_for_each`]: chunk
//!    `i` builds its own generator, streams into its own planar
//!    [`SampleBlock`] through [`ChannelStream::next_block_into`] and folds
//!    its covariance accumulator straight from the planar data,
//! 4. merges the per-chunk accumulators in chunk order.
//!
//! Because chunk seeds depend only on `(master seed, chunk index)` and the
//! chunk layout depends only on `(total, chunk_size)`, the estimate is
//! bit-identical for any pool size.
//!
//! [`monte_carlo_covariance`] runs on [`Runtime::global()`];
//! [`monte_carlo_covariance_on`] takes an explicit pool — the one knob for
//! how many executors estimate.

use std::sync::{Arc, OnceLock};

use corrfade::{ChannelStream, Coloring, CorrelatedRayleighGenerator, SampleBlock};
use corrfade_linalg::CMatrix;

use crate::error::ParallelError;
use crate::partition::{balanced_chunk_size, chunk_seed, partition, Chunk};
use crate::runtime::Runtime;

/// Configuration of the parallel engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Upper bound on the snapshots generated per chunk (the unit of work
    /// an executor claims). Large workloads are subdivided further for
    /// load balance — see [`ParallelConfig::effective_chunk_size`]. Must be
    /// positive; the engine entry points report
    /// [`ParallelError::InvalidChunkSize`] otherwise.
    pub chunk_size: usize,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            chunk_size: 4096,
            seed: 0,
        }
    }
}

impl ParallelConfig {
    /// The chunk size actually used to partition `total` samples:
    /// [`Self::chunk_size`] bounded by a load-balancing heuristic that
    /// targets 64 chunks so the pool self-schedules evenly instead of degenerating to
    /// one oversized chunk per thread.
    ///
    /// Depends only on `(total, chunk_size)` — never on the pool size — so
    /// the chunk layout (and with it every `(seed, i)`-derived RNG stream)
    /// is identical for any number of workers.
    ///
    /// # Panics
    /// Panics if [`Self::chunk_size`] is zero; use [`Self::validate`] first
    /// to get the typed error instead.
    #[must_use]
    pub fn effective_chunk_size(&self, total: usize) -> usize {
        balanced_chunk_size(total, self.chunk_size)
    }

    /// Checks the configuration for values that could never run.
    ///
    /// # Errors
    /// [`ParallelError::InvalidChunkSize`] when `chunk_size` is zero.
    pub fn validate(&self) -> Result<(), ParallelError> {
        if self.chunk_size == 0 {
            return Err(ParallelError::InvalidChunkSize);
        }
        Ok(())
    }
}

/// `Σ Z·Zᴴ` over one chunk of snapshots: sample `l` of the chunk's block is
/// snapshot `chunk.start + l` of the overall ensemble.
fn chunk_covariance(
    coloring: &Arc<Coloring>,
    desired: &CMatrix,
    chunk: Chunk,
    master_seed: u64,
) -> CMatrix {
    let mut gen = CorrelatedRayleighGenerator::from_coloring(
        Arc::clone(coloring),
        desired.clone(),
        1.0,
        chunk_seed(master_seed, chunk.index),
    )
    .expect("coloring was already validated")
    .with_stream_block_len(chunk.len);
    let mut block = SampleBlock::empty();
    gen.next_block_into(&mut block)
        .expect("streaming is infallible after construction");
    let n = coloring.dimension();
    let mut sum = CMatrix::zeros(n, n);
    block.accumulate_covariance(&mut sum);
    sum
}

/// Estimates the sample covariance `E[Z·Zᴴ]` over `total` snapshots without
/// materializing them, on the global worker pool: each chunk streams into
/// its own planar block and folds `Σ Z·Zᴴ` straight from the planar data
/// into that chunk's accumulator; the accumulators are merged in chunk
/// order at the end, so the estimate is **bit-identical for any pool size**
/// (not merely statistically equivalent).
///
/// # Errors
/// [`ParallelError::InvalidChunkSize`] for a zero chunk size; covariance
/// validation errors from the core crate otherwise.
///
/// # Panics
/// Panics when `total` is zero (an estimate over nothing).
pub fn monte_carlo_covariance(
    covariance: &CMatrix,
    total: usize,
    config: &ParallelConfig,
) -> Result<CMatrix, ParallelError> {
    monte_carlo_covariance_on(Runtime::global(), covariance, total, config)
}

/// [`monte_carlo_covariance`] on an explicit [`Runtime`]; its size is how
/// many executors estimate, and never changes the estimate.
///
/// # Errors
/// See [`monte_carlo_covariance`]; [`ParallelError::JobPanicked`] when a
/// chunk panicked.
///
/// # Panics
/// Panics when `total` is zero.
pub fn monte_carlo_covariance_on(
    runtime: &Runtime,
    covariance: &CMatrix,
    total: usize,
    config: &ParallelConfig,
) -> Result<CMatrix, ParallelError> {
    assert!(
        total > 0,
        "monte_carlo_covariance: need at least one snapshot"
    );
    config.validate()?;
    let coloring = corrfade::cached_eigen_coloring(covariance)?;
    let chunks = partition(total, config.effective_chunk_size(total));
    // One accumulator per chunk, merged in chunk order: the summation
    // order is fixed by the chunk layout, never by scheduling.
    let sums: Vec<OnceLock<CMatrix>> = chunks.iter().map(|_| OnceLock::new()).collect();
    runtime.try_for_each(chunks.len(), &|i| {
        let _ = sums[i].set(chunk_covariance(
            &coloring,
            covariance,
            chunks[i],
            config.seed,
        ));
    })?;
    let n = coloring.dimension();
    let mut sum = CMatrix::zeros(n, n);
    for partial in sums {
        sum = &sum + &partial.into_inner().expect("every chunk ran");
    }
    Ok(sum.scale_real(1.0 / total as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};
    use corrfade_stats::{relative_frobenius_error, sample_covariance_from_block};

    fn config(seed: u64) -> ParallelConfig {
        ParallelConfig {
            chunk_size: 512,
            seed,
        }
    }

    #[test]
    fn effective_chunk_size_follows_the_balance_heuristic() {
        let cfg = ParallelConfig {
            chunk_size: 8192,
            ..ParallelConfig::default()
        };
        assert_eq!(
            cfg.effective_chunk_size(100_000),
            crate::partition::balanced_chunk_size(100_000, 8192)
        );
    }

    #[test]
    fn zero_chunk_size_is_a_typed_error() {
        let k = paper_covariance_matrix_22();
        let bad = ParallelConfig {
            chunk_size: 0,
            ..ParallelConfig::default()
        };
        assert_eq!(bad.validate(), Err(ParallelError::InvalidChunkSize));
        assert!(matches!(
            monte_carlo_covariance(&k, 100, &bad),
            Err(ParallelError::InvalidChunkSize)
        ));
    }

    #[test]
    fn explicit_runtime_matches_the_global_pool() {
        let k = paper_covariance_matrix_22();
        let cfg = config(5);
        let rt = Runtime::new(2);
        assert_eq!(
            monte_carlo_covariance_on(&rt, &k, 900, &cfg)
                .unwrap()
                .as_slice(),
            monte_carlo_covariance(&k, 900, &cfg).unwrap().as_slice(),
        );
    }

    #[test]
    fn covariance_estimate_is_bitwise_thread_count_invariant() {
        let k = paper_covariance_matrix_23();
        let a = monte_carlo_covariance_on(&Runtime::new(1), &k, 6000, &config(3)).unwrap();
        let b = monte_carlo_covariance_on(&Runtime::new(4), &k, 6000, &config(3)).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        let c = monte_carlo_covariance(&k, 6000, &config(4)).unwrap();
        assert_ne!(a.as_slice(), c.as_slice(), "seeds must change the estimate");
    }

    #[test]
    fn single_chunk_matches_the_sequential_generator_bit_for_bit() {
        // A single-chunk estimate must equal the covariance of a sequential
        // generator seeded with chunk 0's seed — pool scheduling must not
        // change the produced values.
        let k = paper_covariance_matrix_22();
        let cfg = config(13);
        let total = crate::MIN_CHUNK_SAMPLES;
        assert_eq!(cfg.effective_chunk_size(total), total);
        let khat = monte_carlo_covariance(&k, total, &cfg).unwrap();
        let block = CorrelatedRayleighGenerator::new(k, chunk_seed(13, 0))
            .unwrap()
            .with_stream_block_len(total)
            .next_block()
            .unwrap();
        assert!(khat.approx_eq(&sample_covariance_from_block(&block), 0.0));
    }

    #[test]
    fn parallel_covariance_matches_desired_covariance() {
        let k = paper_covariance_matrix_22();
        let khat = monte_carlo_covariance(&k, 60_000, &config(3)).unwrap();
        let err = relative_frobenius_error(&khat, &k);
        assert!(err < 0.03, "relative covariance error {err}");
    }

    #[test]
    fn invalid_covariance_is_reported() {
        let bad = CMatrix::zeros(2, 3);
        assert!(matches!(
            monte_carlo_covariance(&bad, 100, &config(0)),
            Err(ParallelError::Core(_))
        ));
    }
}
