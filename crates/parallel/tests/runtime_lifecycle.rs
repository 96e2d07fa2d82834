//! Lifecycle regression tests for the persistent worker-pool runtime:
//! the global pool must be race-safe under concurrent first use, explicit
//! pools must shut down cleanly when dropped (no leaked jobs, no hangs),
//! and pool reuse must never change the produced values.
//!
//! (The proof that `Drop` actually joins every worker thread lives in the
//! runtime's unit tests, where the pool's internal reference counts are
//! observable.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use corrfade_parallel::{
    monte_carlo_covariance, monte_carlo_covariance_on, ParallelConfig, Runtime,
};

fn paper_k() -> corrfade_linalg::CMatrix {
    corrfade_models::paper_covariance_matrix_22()
}

#[test]
fn global_runtime_is_race_safe_under_concurrent_first_use() {
    // Many threads race `Runtime::global()` and immediately submit work.
    // Exactly one pool may be created, every submitter must complete, and
    // all of them must observe the same instance.
    const RACERS: usize = 8;
    let barrier = Arc::new(Barrier::new(RACERS));
    let completed = Arc::new(AtomicUsize::new(0));
    let mut addresses = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..RACERS {
            let barrier = Arc::clone(&barrier);
            let completed = Arc::clone(&completed);
            handles.push(scope.spawn(move || {
                barrier.wait();
                let rt = Runtime::global();
                let hits = AtomicUsize::new(0);
                rt.try_for_each(2 * rt.workers(), &|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
                assert_eq!(hits.load(Ordering::Relaxed), 2 * rt.workers());
                completed.fetch_add(1, Ordering::Relaxed);
                std::ptr::from_ref(rt) as usize
            }));
        }
        for handle in handles {
            addresses.push(handle.join().unwrap());
        }
    });
    assert_eq!(completed.load(Ordering::Relaxed), RACERS);
    assert!(
        addresses.windows(2).all(|w| w[0] == w[1]),
        "every racer must resolve the same global pool instance"
    );
}

#[test]
fn dropping_an_explicit_pool_shuts_down_cleanly() {
    // A dedicated pool processes jobs, then drops without hanging; work
    // submitted before the drop is fully completed (graceful, not abortive).
    let processed = AtomicUsize::new(0);
    {
        let rt = Runtime::new(3);
        assert_eq!(rt.workers(), 3);
        for _ in 0..10 {
            rt.try_for_each(3, &|_| {
                processed.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
    } // Drop joins here; a leak or lost wakeup would hang the test.
    assert_eq!(processed.load(Ordering::Relaxed), 30);
}

#[test]
fn pool_reuse_across_many_calls_is_deterministic() {
    // The same pool answering a stream of requests must produce exactly the
    // same estimates as fresh pools and as the global pool — reuse cannot
    // leak state between calls.
    let k = paper_k();
    let cfg = ParallelConfig {
        chunk_size: 128,
        seed: 99,
    };
    let estimate = |rt: &Runtime| monte_carlo_covariance_on(rt, &k, 600, &cfg).unwrap();
    let reused = Runtime::new(2);
    let first = estimate(&reused);
    for _ in 0..3 {
        assert_eq!(first.as_slice(), estimate(&reused).as_slice());
    }
    assert_eq!(first.as_slice(), estimate(&Runtime::new(4)).as_slice());
    assert_eq!(
        first.as_slice(),
        monte_carlo_covariance(&k, 600, &cfg).unwrap().as_slice()
    );
}

#[test]
fn pools_of_different_sizes_agree() {
    let k = paper_k();
    let cfg = ParallelConfig {
        chunk_size: 256,
        seed: 7,
    };
    let small = Runtime::new(1);
    let large = Runtime::new(4);
    assert_eq!(
        monte_carlo_covariance_on(&small, &k, 1500, &cfg)
            .unwrap()
            .as_slice(),
        monte_carlo_covariance_on(&large, &k, 1500, &cfg)
            .unwrap()
            .as_slice(),
        "worker count must never influence the estimate"
    );
}
