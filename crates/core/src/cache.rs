//! Process-wide decomposition cache for coloring matrices.
//!
//! Opening a generator costs one Hermitian eigendecomposition of the
//! desired covariance matrix. A single stream amortizes that over its
//! lifetime, but a service opening many streams — a batch fleet over named
//! scenarios, the parallel engine handling repeated requests for the same
//! matrix — pays it once per *open* unless the decompositions are shared.
//! This module provides that sharing: one bounded process-wide
//! [`FactorCache`] keyed by the **exact bit pattern** of the covariance
//! matrix ([`MatrixKey`]), holding the paper's eigen-coloring.
//!
//! A hit takes the cache's lock once; a miss decomposes holding just the
//! matrix's own slot, so concurrent first opens of the same matrix
//! decompose it once and opens of other matrices never wait. Eviction is
//! least-recently-used among stored colorings; a failed decomposition
//! leaves no entry behind.
//!
//! Because the key is bitwise and the decomposition is a deterministic
//! function of its input, a cache hit returns a value bit-identical to what
//! a fresh [`eigen_coloring`] call would produce — the scalar-backend
//! golden tests pin this. The counters ([`coloring_cache_stats`]) make the
//! sharing observable: opening two scenarios with the same covariance spec
//! must show up as a hit, not a second decomposition.

use std::sync::Arc;

use corrfade_linalg::{CMatrix, CacheStats, FactorCache, MatrixKey};

use crate::coloring::{eigen_coloring, Coloring};
use crate::error::CorrfadeError;

/// Capacity of the coloring cache. Far above the number of distinct
/// covariance matrices any realistic workload touches (the scenario
/// registry holds a few dozen); acts as a safety valve for workloads that
/// sweep many matrices (property tests, parameter scans).
pub(crate) const COLORING_CACHE_CAPACITY: usize = 128;

static EIGEN_CACHE: FactorCache<MatrixKey, Coloring> = FactorCache::new(COLORING_CACHE_CAPACITY);

/// [`eigen_coloring`] through the process-wide decomposition cache: the
/// first request for a given covariance bit pattern computes and stores the
/// coloring (exactly once even under concurrent first requests), every
/// later request for the same matrix shares it.
///
/// The returned value is bit-identical to what an uncached
/// [`eigen_coloring`] call would produce. Hand the `Arc` itself to
/// [`crate::RealtimeGenerator::from_coloring`] or
/// [`crate::CorrelatedRayleighGenerator::from_coloring`]: generators only
/// read their coloring, so every generator over one covariance shares this
/// one copy of the matrix and its PSD-forcing metadata.
///
/// # Errors
/// Propagates the validation / decomposition errors of [`eigen_coloring`];
/// failed computations are not cached.
pub fn cached_eigen_coloring(k: &CMatrix) -> Result<Arc<Coloring>, CorrfadeError> {
    EIGEN_CACHE.get_or_try_insert_with(MatrixKey::of(k), || eigen_coloring(k))
}

/// Counters of the eigen-coloring cache.
pub fn coloring_cache_stats() -> CacheStats {
    EIGEN_CACHE.stats()
}

/// Drops every cached decomposition (colorings still referenced through
/// outstanding `Arc`s stay alive). Mainly for benchmarks that want to
/// measure the cold-open path.
pub fn clear_coloring_caches() {
    EIGEN_CACHE.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_linalg::c64;

    /// One combined test: the counters are process-wide, so interleaved
    /// assertions from concurrently running tests could race; all checks on
    /// deltas live here and only ever assert monotone lower bounds.
    #[test]
    fn caches_share_hit_and_stay_bit_identical() {
        // A matrix unique to this test so concurrent cache users cannot
        // pre-populate our key.
        let k = CMatrix::from_rows(&[
            vec![c64(1.25, 0.0), c64(0.31, 0.17)],
            vec![c64(0.31, -0.17), c64(0.75, 0.0)],
        ]);

        let before = coloring_cache_stats();
        let first = cached_eigen_coloring(&k).unwrap();
        let second = cached_eigen_coloring(&k).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "second lookup must share the stored decomposition"
        );
        let after = coloring_cache_stats();
        assert!(after.misses > before.misses);
        assert!(after.hits > before.hits);

        // Bit-identical to the uncached path.
        let uncached = eigen_coloring(&k).unwrap();
        assert_eq!(
            first.matrix.as_slice(),
            uncached.matrix.as_slice(),
            "cached coloring must be bit-identical to a fresh computation"
        );
    }

    #[test]
    fn failures_are_reported_and_not_cached() {
        let bad = CMatrix::zeros(2, 3);
        assert!(cached_eigen_coloring(&bad).is_err());
        assert!(cached_eigen_coloring(&bad).is_err());
        // Not positive definite: eigen-coloring clips.
        let singular = CMatrix::from_real_slice(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        assert!(cached_eigen_coloring(&singular).is_ok());
    }
}
