//! Memo traffic of [`NetworkSim::open`]: the groups' decompositions run on
//! the pool, yet the process-wide coloring memo must see exactly the
//! lookups of opening the groups one after another — one miss per distinct
//! covariance, a hit for every repeat. The open sim's generators hold the
//! memo's colorings themselves, not copies of them.
//!
//! The memo's counters are process-wide, so this file holds one test.

#[path = "support/wsn_epoch.rs"]
mod wsn_epoch;

use std::collections::BTreeMap;
use std::sync::Arc;

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
    // Groups per distinct covariance.
    let mut distinct: BTreeMap<MatrixKey, usize> = BTreeMap::new();
    for k in &covariances {
        *distinct.entry(MatrixKey::of(k)).or_default() += 1;
    }

    let sequential = traffic(|| {
        for k in &covariances {
            cached_eigen_coloring(k).unwrap();
        }
    });
    let mut sim = None;
    let pooled = traffic(|| {
        sim = Some(NetworkSim::open(topology.clone(), &config, 1).unwrap());
    });

    assert_eq!(sequential.0, distinct.len() as u64);
    assert_eq!(sequential.0 + sequential.1, covariances.len() as u64);
    assert_eq!(pooled, sequential, "(misses, hits) of the pooled open");

    // While the sim lives, each stored coloring is referenced by the memo,
    // the handle taken here and one generator per group over it.
    for (g, k) in covariances.iter().enumerate() {
        let handle = cached_eigen_coloring(k).unwrap();
        assert_eq!(
            Arc::strong_count(&handle),
            2 + distinct[&MatrixKey::of(k)],
            "group {g}: holders of its coloring"
        );
    }
    drop(sim);
}
