//! Concurrency stress tests for [`FactorCache`]: many threads hammering
//! duplicate keys must still compute every key **exactly once**, the
//! hit/miss/eviction counters must stay consistent with the number of
//! stored entries, and a miss in flight must not hold up other keys.
//!
//! These tests exist because the cache's miss path runs the factorization
//! holding only its own key's slot — precisely the design that could
//! double-compute, strand waiters or block unrelated lookups if the slot
//! hand-off were racy.

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use corrfade_linalg::{c64, CMatrix, FactorCache, MatrixKey};

fn mat(seed: f64) -> CMatrix {
    CMatrix::from_fn(3, 3, |i, j| c64(seed + i as f64 * 0.25, j as f64 - seed))
}

#[test]
fn duplicate_keys_under_contention_compute_exactly_once() {
    const THREADS: usize = 8;
    const KEYS: usize = 4;
    const ROUNDS: usize = 25;

    static CACHE: FactorCache<MatrixKey, f64> = FactorCache::new(64);
    let computed: Vec<AtomicUsize> = (0..KEYS).map(|_| AtomicUsize::new(0)).collect();
    let barrier = Barrier::new(THREADS);
    let lookups = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let computed = &computed;
            let barrier = &barrier;
            let lookups = &lookups;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    // Every thread walks the keys in a different order so
                    // leaders and waiters mix across rounds.
                    for k in 0..KEYS {
                        let key = (t + round + k) % KEYS;
                        let value = CACHE
                            .get_or_try_insert_with(MatrixKey::of(&mat(key as f64)), || {
                                computed[key].fetch_add(1, Ordering::SeqCst);
                                // Widen the in-flight window: a racy
                                // election would double-compute here.
                                std::thread::sleep(Duration::from_millis(2));
                                Ok::<_, Infallible>(key as f64 + 0.5)
                            })
                            .unwrap();
                        assert_eq!(*value, key as f64 + 0.5, "wrong value for key {key}");
                        lookups.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    for (key, count) in computed.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "key {key} must be computed exactly once despite {THREADS} \
             threads racing it"
        );
    }

    // Counter consistency: every lookup is either a hit or a miss, misses
    // equal the distinct keys (nothing was evicted at this capacity), and
    // the stored entries match.
    let stats = CACHE.stats();
    let total = lookups.load(Ordering::Relaxed) as u64;
    assert_eq!(total, (THREADS * ROUNDS * KEYS) as u64);
    assert_eq!(stats.hits + stats.misses, total);
    assert_eq!(stats.misses, KEYS as u64);
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.entries, KEYS);
}

#[test]
fn contended_eviction_keeps_counters_consistent_with_entries() {
    // A cache far smaller than the working set, hammered from many
    // threads: the bound must hold and the counters must balance —
    // every computed value is either still stored or was evicted.
    const THREADS: usize = 6;
    const KEYS: usize = 24;
    static SMALL: FactorCache<MatrixKey, usize> = FactorCache::new(8);

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..3 {
                    for k in 0..KEYS {
                        let key = (k + t + round) % KEYS;
                        let v = SMALL
                            .get_or_try_insert_with(MatrixKey::of(&mat(key as f64)), || {
                                Ok::<_, Infallible>(key)
                            })
                            .unwrap();
                        assert_eq!(*v, key);
                    }
                }
            });
        }
    });

    let stats = SMALL.stats();
    assert!(
        stats.entries <= 8,
        "capacity bound violated under contention: {stats:?}"
    );
    assert_eq!(
        stats.entries as u64 + stats.evictions,
        stats.misses,
        "every miss must be stored or evicted exactly once: {stats:?}"
    );
    assert!(stats.misses >= KEYS as u64, "each key missed at least once");
}

#[test]
fn waiters_recover_when_the_leader_fails() {
    // One thread's computation fails; concurrent waiters for the same key
    // must neither hang nor observe the failure — they retry and succeed.
    let cache: Arc<FactorCache<MatrixKey, f64>> = Arc::new(FactorCache::new(8));
    let failures = Arc::new(AtomicUsize::new(0));
    let successes = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(4));

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let cache = Arc::clone(&cache);
            let failures = Arc::clone(&failures);
            let successes = Arc::clone(&successes);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                let result = cache.get_or_try_insert_with(MatrixKey::of(&mat(7.0)), || {
                    std::thread::sleep(Duration::from_millis(1));
                    if t == 0 {
                        Err("leader failed")
                    } else {
                        Ok(7.5)
                    }
                });
                match result {
                    Ok(v) => {
                        assert_eq!(*v, 7.5);
                        successes.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => {
                        assert_eq!(e, "leader failed");
                        failures.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });

    assert_eq!(
        failures.load(Ordering::SeqCst) + successes.load(Ordering::SeqCst),
        4,
        "no thread may hang on a failed leader"
    );
    // At most thread 0 saw the error; everyone else got the value.
    assert!(failures.load(Ordering::SeqCst) <= 1);
    assert!(successes.load(Ordering::SeqCst) >= 3);
}

#[test]
fn an_in_flight_miss_does_not_block_other_keys() {
    // Key A's compute blocks until the main thread has finished a miss and
    // then a hit on key B. The timeouts turn a regression (B waiting on A)
    // into a failure instead of a hang.
    const PATIENCE: Duration = Duration::from_secs(10);
    let cache: FactorCache<MatrixKey, f64> = FactorCache::new(8);
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();

    std::thread::scope(|scope| {
        let cache = &cache;
        let a = scope.spawn(move || {
            cache.get_or_try_insert_with(MatrixKey::of(&mat(1.0)), || {
                started_tx.send(()).unwrap();
                release_rx
                    .recv_timeout(PATIENCE)
                    .map(|()| 1.5)
                    .map_err(|_| "the lookups of key B never finished")
            })
        });
        started_rx
            .recv_timeout(PATIENCE)
            .expect("key A's compute must start");

        let miss = cache
            .get_or_try_insert_with(MatrixKey::of(&mat(2.0)), || Ok::<_, &str>(2.5))
            .unwrap();
        let hit = cache
            .get_or_try_insert_with(MatrixKey::of(&mat(2.0)), || -> Result<f64, &str> {
                panic!("key B must be a hit");
            })
            .unwrap();
        assert!(Arc::ptr_eq(&miss, &hit));
        let _ = release_tx.send(());
        let a = a.join().expect("key A's thread panicked");
        assert_eq!(*a.expect("key A's compute timed out"), 1.5);
    });

    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
}

#[test]
fn an_in_flight_key_is_neither_evicted_nor_computed_twice() {
    // Capacity 1: key B is stored while key A's compute is held on a
    // channel. A second lookup of A, racing the release, must either wait
    // for that compute or hit its stored value, never compute A again; and
    // A, stored last, must then be the entry that stays.
    const PATIENCE: Duration = Duration::from_secs(10);
    let cache: FactorCache<MatrixKey, f64> = FactorCache::new(1);
    let computes = AtomicUsize::new(0);
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let key_a = || MatrixKey::of(&mat(1.0));

    std::thread::scope(|scope| {
        let (cache, computes) = (&cache, &computes);
        let first = scope.spawn(move || {
            cache.get_or_try_insert_with(key_a(), || {
                computes.fetch_add(1, Ordering::SeqCst);
                started_tx.send(()).unwrap();
                release_rx
                    .recv_timeout(PATIENCE)
                    .map(|()| 1.5)
                    .map_err(|_| "never released")
            })
        });
        started_rx
            .recv_timeout(PATIENCE)
            .expect("key A's compute must start");
        cache
            .get_or_try_insert_with(MatrixKey::of(&mat(2.0)), || Ok::<_, &str>(2.5))
            .unwrap();
        let second = scope.spawn(move || {
            cache.get_or_try_insert_with(key_a(), || {
                computes.fetch_add(1, Ordering::SeqCst);
                Ok::<_, &str>(9.9)
            })
        });
        let _ = release_tx.send(());
        let first = first.join().expect("first lookup of A panicked").unwrap();
        let second = second.join().expect("second lookup of A panicked").unwrap();
        assert!(Arc::ptr_eq(&first, &second), "A was computed twice");
    });

    assert_eq!(computes.load(Ordering::SeqCst), 1, "A was computed twice");
    let hit = cache
        .get_or_try_insert_with(key_a(), || -> Result<f64, Infallible> {
            panic!("A must still be stored");
        })
        .unwrap();
    assert_eq!(*hit, 1.5);
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.evictions, stats.entries),
        (2, 2, 1, 1)
    );
}
