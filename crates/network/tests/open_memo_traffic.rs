//! Memo traffic of [`NetworkSim::open`]: the groups' decompositions run on
//! the pool, yet the process-wide coloring memo must see exactly the
//! lookups of opening the groups one after another — one miss per distinct
//! covariance, a hit for every repeat.
//!
//! The memo's counters are process-wide, so this file holds one test.

#[path = "support/wsn_epoch.rs"]
mod wsn_epoch;

use std::collections::BTreeSet;

use corrfade::{cached_eigen_coloring, clear_coloring_caches, coloring_cache_stats};
use corrfade_linalg::{CacheStats, MatrixKey};
use corrfade_network::NetworkSim;

/// `(misses, hits)` counted while `f` runs on a cleared memo.
fn traffic(f: impl FnOnce()) -> (u64, u64) {
    clear_coloring_caches();
    let before: CacheStats = coloring_cache_stats();
    f();
    let after = coloring_cache_stats();
    (after.misses - before.misses, after.hits - before.hits)
}

#[test]
fn pooled_open_counts_one_miss_per_distinct_covariance() {
    let (topology, config) = wsn_epoch::network();
    let covariances = wsn_epoch::group_covariances();
    let distinct: BTreeSet<MatrixKey> = covariances.iter().map(MatrixKey::of).collect();

    let sequential = traffic(|| {
        for k in &covariances {
            cached_eigen_coloring(k).unwrap();
        }
    });
    let pooled = traffic(|| {
        NetworkSim::open(topology.clone(), &config, 1).unwrap();
    });

    assert_eq!(sequential.0, distinct.len() as u64);
    assert_eq!(sequential.0 + sequential.1, covariances.len() as u64);
    assert_eq!(pooled, sequential, "(misses, hits) of the pooled open");
}
