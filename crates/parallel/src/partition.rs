//! Deterministic chunk partitioning for parallel Monte-Carlo generation.
//!
//! Work is split into fixed-size chunks identified by their index. Each chunk
//! derives its RNG stream from `(master seed, chunk index)` only, so the
//! generated ensemble is **identical regardless of how many worker threads
//! execute it** — a property the statistical regression tests rely on.

/// Description of one chunk of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Index of the chunk (also the RNG sub-stream identifier).
    pub index: usize,
    /// Offset of the chunk's first sample in the overall ensemble.
    pub start: usize,
    /// Number of samples in this chunk.
    pub len: usize,
}

/// Splits `total` samples into chunks of at most `chunk_size` samples.
///
/// # Panics
/// Panics if `chunk_size` is zero.
pub fn partition(total: usize, chunk_size: usize) -> Vec<Chunk> {
    assert!(chunk_size > 0, "chunk_size must be positive");
    let mut chunks = Vec::with_capacity(total.div_ceil(chunk_size));
    let mut start = 0usize;
    let mut index = 0usize;
    while start < total {
        let len = chunk_size.min(total - start);
        chunks.push(Chunk { index, start, len });
        start += len;
        index += 1;
    }
    chunks
}

/// Number of chunks [`balanced_chunk_size`] aims for when the workload is
/// large enough: roughly 4 chunks per worker on a 16-core machine, which
/// keeps the self-scheduling pool load-balanced (a slow chunk is absorbed
/// by peers pulling the remaining ones) instead of the degenerate
/// one-chunk-per-thread split a large configured chunk size produces.
///
/// Deliberately a **constant**, not a function of the worker count or the
/// machine: the chunk layout determines which RNG stream generates which
/// sample, so deriving it from the thread count would silently break the
/// thread-count-invariance guarantee, and deriving it from
/// `available_parallelism` would make ensembles machine-dependent.
pub const TARGET_CHUNKS: usize = 64;

/// Minimum samples per chunk: below this the per-chunk setup (cloning the
/// coloring, seeding a generator) outweighs the generation work, so small
/// totals are not shredded into confetti just to reach [`TARGET_CHUNKS`].
pub const MIN_CHUNK_SAMPLES: usize = 64;

/// The load-balancing chunk-size heuristic: treats `max_chunk_size` (the
/// configured [`crate::ParallelConfig::chunk_size`]) as an upper bound and
/// subdivides large workloads into at least [`TARGET_CHUNKS`] chunks of at
/// least [`MIN_CHUNK_SAMPLES`] samples.
///
/// Deterministic in `(total, max_chunk_size)` only — never in the thread
/// count — so the `(seed, chunk index)` derivation keeps ensembles
/// identical for any number of workers.
///
/// # Panics
/// Panics if `max_chunk_size` is zero.
#[must_use]
pub fn balanced_chunk_size(total: usize, max_chunk_size: usize) -> usize {
    assert!(max_chunk_size > 0, "chunk_size must be positive");
    total
        .div_ceil(TARGET_CHUNKS)
        .max(MIN_CHUNK_SAMPLES)
        .min(max_chunk_size)
}

/// Derives a per-chunk RNG seed from the master seed and the chunk index
/// (SplitMix64 finalizer — well-distributed and cheap).
pub fn chunk_seed(master_seed: u64, chunk_index: usize) -> u64 {
    let mut z =
        master_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(chunk_index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything_exactly_once() {
        for (total, chunk) in [(0usize, 8usize), (7, 8), (8, 8), (9, 8), (100, 7)] {
            let chunks = partition(total, chunk);
            let covered: usize = chunks.iter().map(|c| c.len).sum();
            assert_eq!(covered, total, "total {total}, chunk {chunk}");
            // Contiguous, ordered, correctly indexed.
            let mut expected_start = 0;
            for (i, c) in chunks.iter().enumerate() {
                assert_eq!(c.index, i);
                assert_eq!(c.start, expected_start);
                assert!(c.len <= chunk);
                expected_start += c.len;
            }
        }
    }

    #[test]
    fn empty_work_produces_no_chunks() {
        assert!(partition(0, 16).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_rejected() {
        let _ = partition(10, 0);
    }

    #[test]
    fn balanced_chunk_size_targets_enough_chunks() {
        // Large workload, large configured chunk: subdivided to TARGET_CHUNKS.
        let size = balanced_chunk_size(100_000, 8192);
        assert_eq!(size, 100_000usize.div_ceil(TARGET_CHUNKS));
        assert_eq!(partition(100_000, size).len(), TARGET_CHUNKS);
        // Chunk sizes below the configured maximum are respected when the
        // total is small enough that TARGET_CHUNKS would shred it.
        assert_eq!(balanced_chunk_size(700, 512), MIN_CHUNK_SAMPLES);
        // A configured chunk smaller than the floor wins (upper bound).
        assert_eq!(balanced_chunk_size(700, 16), 16);
        // Workloads already yielding many chunks are untouched.
        assert_eq!(balanced_chunk_size(60_000, 512), 512);
        // Zero work still partitions to zero chunks.
        assert!(partition(0, balanced_chunk_size(0, 4096)).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn balanced_chunk_size_rejects_zero_max() {
        let _ = balanced_chunk_size(10, 0);
    }

    #[test]
    fn chunk_seeds_are_deterministic_and_distinct() {
        let a = chunk_seed(42, 0);
        assert_eq!(a, chunk_seed(42, 0));
        let seeds: Vec<u64> = (0..100).map(|i| chunk_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_ne!(chunk_seed(1, 0), chunk_seed(2, 0));
    }
}
