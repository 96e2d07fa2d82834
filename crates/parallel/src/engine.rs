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
//! 3. runs the chunks on the persistent [`Runtime`] pool — the submitting
//!    thread participates as executor 0, and each executor claims the next
//!    chunk index from one shared atomic cursor; every worker owns **one
//!    pinned planar [`SampleBlock`]** that the generators stream into through
//!    [`ChannelStream::next_block_into`] — no per-chunk buffer allocation —
//!    and folds the chunk's covariance accumulator straight from the planar
//!    data,
//! 4. merges the per-chunk accumulators in chunk order.
//!
//! Because chunk seeds depend only on `(master seed, chunk index)` and the
//! chunk layout depends only on `(total, chunk_size)`, the estimate is
//! bit-identical for any thread count.
//!
//! [`monte_carlo_covariance`] runs on [`Runtime::global()`];
//! [`monte_carlo_covariance_on`] takes an explicit pool.
//!
//! All per-sample work inside the workers (the coloring matvec and the
//! covariance fold) runs on the
//! [`corrfade_linalg::kernel`] dispatch layer; pool workers latch the
//! backend at spawn, so `CORRFADE_KERNEL` is honoured deterministically
//! across the pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use corrfade::{ChannelStream, Coloring, CorrelatedRayleighGenerator, SampleBlock};
use corrfade_linalg::CMatrix;

use crate::error::ParallelError;
use crate::partition::{balanced_chunk_size, chunk_seed, partition, Chunk};
use crate::runtime::Runtime;

/// Configuration of the parallel engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Maximum number of workers participating in a call (0 means "number
    /// of available cores"). On the pooled path this caps how many pool
    /// workers pick up chunks; it never affects the produced values.
    pub threads: usize,
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
            threads: 0,
            chunk_size: 4096,
            seed: 0,
        }
    }
}

impl ParallelConfig {
    /// Resolves the effective number of worker threads.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// The chunk size actually used to partition `total` samples:
    /// [`Self::chunk_size`] bounded by the load-balancing heuristic
    /// ([`balanced_chunk_size`]), which targets [`crate::TARGET_CHUNKS`]
    /// chunks so the pool self-schedules evenly instead of degenerating to
    /// one oversized chunk per thread.
    ///
    /// Depends only on `(total, chunk_size)` — never on the thread count —
    /// so the chunk layout (and with it every `(seed, i)`-derived RNG
    /// stream) is identical for any number of workers.
    ///
    /// # Panics
    /// Panics if [`Self::chunk_size`] is zero; use [`Self::validate`] first
    /// to get the typed error instead.
    #[must_use]
    pub fn effective_chunk_size(&self, total: usize) -> usize {
        balanced_chunk_size(total, self.chunk_size)
    }

    /// Checks the configuration for values that could never run, and
    /// latches the process-wide numeric-kernel backend so the worker pool
    /// never races the first `CORRFADE_KERNEL` lookup.
    ///
    /// # Errors
    /// [`ParallelError::InvalidChunkSize`] when `chunk_size` is zero.
    pub fn validate(&self) -> Result<(), ParallelError> {
        if self.chunk_size == 0 {
            return Err(ParallelError::InvalidChunkSize);
        }
        let _ = corrfade_linalg::kernel::backend();
        Ok(())
    }
}

/// Streams one chunk of snapshots into the worker's pooled block: sample `l`
/// of the block is snapshot `chunk.start + l` of the overall ensemble.
fn stream_chunk(
    coloring: &Coloring,
    desired: &CMatrix,
    chunk: Chunk,
    master_seed: u64,
    block: &mut SampleBlock,
) {
    let mut gen = CorrelatedRayleighGenerator::from_coloring(
        coloring.clone(),
        desired.clone(),
        1.0,
        chunk_seed(master_seed, chunk.index),
    )
    .expect("coloring was already validated")
    .with_stream_block_len(chunk.len);
    gen.next_block_into(block)
        .expect("streaming is infallible after construction");
}

/// Estimates the sample covariance `E[Z·Zᴴ]` over `total` snapshots without
/// materializing them, on the global worker pool: each worker streams its
/// chunks into its pinned planar block and folds `Σ Z·Zᴴ` straight from the
/// planar data into that chunk's accumulator slot; the slots are merged in
/// chunk order at the end, so the estimate is **bit-identical for any
/// thread count** (not merely statistically equivalent).
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

/// [`monte_carlo_covariance`] on an explicit [`Runtime`].
///
/// # Errors
/// See [`monte_carlo_covariance`].
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
    let n = coloring.dimension();
    let chunks = partition(total, config.effective_chunk_size(total));
    // One accumulator per chunk, merged in chunk order: the summation
    // order is fixed by the chunk layout, never by scheduling.
    let slots = chunks
        .iter()
        .map(|_| Mutex::new(CMatrix::zeros(n, n)))
        .collect();
    let sum = fold_chunks(runtime, &coloring, covariance, &chunks, config, slots);
    Ok(sum.scale_real(1.0 / total as f64))
}

/// Streams every chunk on `runtime`, folds chunk `i`'s `Σ Z·Zᴴ` into
/// `slots[i]` and sums the slots in chunk order.
///
/// A poisoned slot lock is recovered rather than unwrapped. Only chunk
/// `i`'s job locks `slots[i]`, and a job that panics makes `Runtime::run`
/// panic before any slot is read, so a recovered guard never hands out a
/// half-updated sum; recovering only keeps a poisoned lock from raising a
/// second panic.
fn fold_chunks(
    runtime: &Runtime,
    coloring: &Coloring,
    covariance: &CMatrix,
    chunks: &[Chunk],
    config: &ParallelConfig,
    slots: Vec<Mutex<CMatrix>>,
) -> CMatrix {
    let participants = config.effective_threads().min(chunks.len()).max(1);
    // Relaxed: the cursor only hands out indices; the slot mutexes and the
    // pool's completion handshake order the data.
    let next = AtomicUsize::new(0);
    runtime.run(&|id, scratch| {
        if id >= participants {
            return;
        }
        while let Some(&chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) {
            stream_chunk(coloring, covariance, chunk, config.seed, &mut scratch.block);
            let mut slot = slots[chunk.index]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            scratch.block.accumulate_covariance(&mut slot);
        }
    });

    let n = coloring.dimension();
    let mut sum = CMatrix::zeros(n, n);
    for slot in slots {
        let partial = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
        sum = &sum + &partial;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};
    use corrfade_stats::{relative_frobenius_error, sample_covariance_from_block};

    fn config(threads: usize, seed: u64) -> ParallelConfig {
        ParallelConfig {
            threads,
            chunk_size: 512,
            seed,
        }
    }

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(config(3, 0).effective_threads(), 3);
        assert!(ParallelConfig::default().effective_threads() >= 1);
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
        let cfg = config(2, 5);
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
        let a = monte_carlo_covariance(&k, 6000, &config(1, 3)).unwrap();
        let b = monte_carlo_covariance(&k, 6000, &config(4, 3)).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        let c = monte_carlo_covariance(&k, 6000, &config(4, 4)).unwrap();
        assert_ne!(a.as_slice(), c.as_slice(), "seeds must change the estimate");
    }

    #[test]
    fn single_chunk_matches_the_sequential_generator_bit_for_bit() {
        // A single-chunk estimate must equal the covariance of a sequential
        // generator seeded with chunk 0's seed — pool scheduling must not
        // change the produced values.
        let k = paper_covariance_matrix_22();
        let cfg = config(2, 13);
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
    fn a_poisoned_covariance_slot_still_yields_the_estimate() {
        let k = paper_covariance_matrix_23();
        let cfg = config(2, 21);
        let total = 6000;
        let expected = monte_carlo_covariance(&k, total, &cfg).unwrap();

        let coloring = corrfade::cached_eigen_coloring(&k).unwrap();
        let n = coloring.dimension();
        let chunks = partition(total, cfg.effective_chunk_size(total));
        assert!(chunks.len() > 2);
        let slots: Vec<_> = chunks
            .iter()
            .map(|_| Mutex::new(CMatrix::zeros(n, n)))
            .collect();
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _guard = slots[1].lock().unwrap();
                panic!("poison covariance slot 1");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(slots[1].is_poisoned());

        let sum = fold_chunks(Runtime::global(), &coloring, &k, &chunks, &cfg, slots);
        assert_eq!(
            sum.scale_real(1.0 / total as f64).as_slice(),
            expected.as_slice()
        );
    }

    #[test]
    fn parallel_covariance_matches_desired_covariance() {
        let k = paper_covariance_matrix_22();
        let khat = monte_carlo_covariance(&k, 60_000, &config(4, 3)).unwrap();
        let err = relative_frobenius_error(&khat, &k);
        assert!(err < 0.03, "relative covariance error {err}");
    }

    #[test]
    fn invalid_covariance_is_reported() {
        let bad = CMatrix::zeros(2, 3);
        assert!(matches!(
            monte_carlo_covariance(&bad, 100, &config(2, 0)),
            Err(ParallelError::Core(_))
        ));
    }
}
