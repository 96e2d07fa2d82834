//! Process-wide memoization of derived values: a bounded LRU map from a
//! key to an `Arc` of a value computed once per process. Keyed on the
//! **exact bit pattern** of a matrix ([`MatrixKey`]), a hit is
//! bit-identical to a fresh (deterministic) decomposition.
//!
//! One `Mutex` guards the map; a hit takes it once. A miss computes holding
//! only its key's slot: each key is computed once, other keys never wait,
//! and a failed or panicking compute leaves nothing behind. Only stored
//! values count toward the capacity. Poisoned guards are recovered.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::matrix::CMatrix;

/// The exact bit pattern of a complex matrix: shape plus `f64::to_bits` of
/// every entry's real and imaginary part, in row-major order.
///
/// Two matrices map to the same key **iff** they are bitwise identical
/// (`0.0` and `-0.0` differ, as do distinct NaN payloads — both are the
/// conservative choice for a cache that promises bit-identical results).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MatrixKey {
    rows: usize,
    cols: usize,
    bits: Vec<u64>,
}

impl MatrixKey {
    /// Captures the key of a matrix.
    #[must_use]
    pub fn of(matrix: &CMatrix) -> Self {
        let mut bits = Vec::with_capacity(2 * matrix.as_slice().len());
        for z in matrix.as_slice() {
            bits.push(z.re.to_bits());
            bits.push(z.im.to_bits());
        }
        Self {
            rows: matrix.rows(),
            cols: matrix.cols(),
            bits,
        }
    }
}

/// Counters of one [`FactorCache`], read with [`FactorCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and store) a fresh value.
    pub misses: u64,
    /// Entries dropped because the cache was at capacity.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
}

/// A key's value, or `None` until a compute succeeds. A miss holds the
/// slot's lock while it computes, so its key's other lookups wait here.
type Slot<V> = Arc<Mutex<Option<Arc<V>>>>;

/// A key's LRU stamp (the map's tick at its latest use) and its stored value,
/// or its slot while computing: then only its own failed compute removes it.
#[derive(Debug)]
struct Entry<V> {
    stamp: u64,
    value: Result<Arc<V>, Slot<V>>,
}

#[derive(Debug)]
struct State<K, V> {
    map: BTreeMap<K, Entry<V>>,
    tick: u64,
    stats: CacheStats,
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounded LRU memo from a key to a shared value, `const`-built for statics.
#[derive(Debug)]
pub struct FactorCache<K, V> {
    capacity: usize,
    state: Mutex<State<K, V>>,
}

impl<K: Ord + Clone, V> FactorCache<K, V> {
    /// Creates an empty cache holding at most `capacity` entries
    /// (`capacity == 0` disables storage: every lookup recomputes).
    #[must_use]
    pub const fn new(capacity: usize) -> Self {
        Self {
            capacity,
            state: Mutex::new(State {
                map: BTreeMap::new(),
                tick: 0,
                stats: CacheStats {
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                    entries: 0,
                },
            }),
        }
    }

    /// Returns `key`'s cached value, or computes and stores it with `compute`.
    ///
    /// # Errors
    /// Propagates `compute`'s error; a failed compute stores and counts nothing.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let slot = match self.find(&key) {
            Ok(hit) => return Ok(hit),
            Err(slot) => slot,
        };
        let mut value = lock(&slot);
        if let Some(hit) = value.as_ref() {
            // Another lookup computed the key while this one waited.
            lock(&self.state).stats.hits += 1;
            return Ok(Arc::clone(hit));
        }
        let computed = panic::catch_unwind(AssertUnwindSafe(compute));
        if !matches!(computed, Ok(Ok(_))) {
            // Forget the entry unless a third lookup holds the slot (it retries).
            let mut state = lock(&self.state);
            if Arc::strong_count(&slot) == 2 {
                state.map.remove(&key);
            }
        }
        let fresh = Arc::new(computed.unwrap_or_else(|payload| panic::resume_unwind(payload))?);
        *value = Some(Arc::clone(&fresh));
        // Store as the most recently used entry (still in the map, see
        // `Entry`) and evict the least recently used stored one past capacity.
        let mut guard = lock(&self.state);
        let state = &mut *guard;
        state.tick += 1;
        state.stats.misses += 1;
        if let Some(entry) = state.map.get_mut(&key) {
            (entry.stamp, entry.value) = (state.tick, Ok(Arc::clone(&fresh)));
            state.stats.entries += 1;
        }
        if state.stats.entries > self.capacity {
            let stored = state.map.iter().filter(|(_, e)| e.value.is_ok());
            if let Some(lru) = stored.min_by_key(|(_, e)| e.stamp).map(|(k, _)| k.clone()) {
                state.map.remove(&lru);
                state.stats.entries -= 1;
                state.stats.evictions += 1;
            }
        }
        Ok(fresh)
    }

    /// [`FactorCache::get_or_try_insert_with`] for an infallible `compute`.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        let Ok(value) = self.get_or_try_insert_with(key, || Ok::<_, Infallible>(compute()));
        value
    }

    /// Stamps `key` most recently used and returns its stored value (a hit),
    /// or else its slot to compute under, inserting an empty one if needed.
    fn find(&self, key: &K) -> Result<Arc<V>, Slot<V>> {
        let mut guard = lock(&self.state);
        let state = &mut *guard;
        state.tick += 1;
        if let Some(entry) = state.map.get_mut(key) {
            entry.stamp = state.tick;
            state.stats.hits += u64::from(entry.value.is_ok());
            return entry.value.clone();
        }
        let slot = Slot::default();
        let entry = Entry {
            stamp: state.tick,
            value: Err(Arc::clone(&slot)),
        };
        state.map.insert(key.clone(), entry);
        Err(slot)
    }

    /// Current counters; `hits`, `misses` and `evictions` survive `clear`.
    pub fn stats(&self) -> CacheStats {
        lock(&self.state).stats
    }

    /// Drops every stored entry; outstanding `Arc`s and in-flight computes live on.
    pub fn clear(&self) {
        let mut state = lock(&self.state);
        state.map.retain(|_, e| e.value.is_err());
        state.stats.entries = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use std::convert::Infallible;

    fn mat(seed: f64) -> CMatrix {
        CMatrix::from_fn(2, 2, |i, j| c64(seed + i as f64, j as f64 - seed))
    }

    #[test]
    fn keys_are_bitwise_exact() {
        assert_eq!(MatrixKey::of(&mat(1.0)), MatrixKey::of(&mat(1.0)));
        assert_ne!(MatrixKey::of(&mat(1.0)), MatrixKey::of(&mat(2.0)));
        // Same values, different shape.
        let row = CMatrix::from_real_slice(1, 4, &[1.0, 0.0, 0.0, 1.0]);
        let sq = CMatrix::from_real_slice(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_ne!(MatrixKey::of(&row), MatrixKey::of(&sq));
        // -0.0 is a different bit pattern than 0.0 — conservative miss.
        let neg = CMatrix::from_real_slice(2, 2, &[1.0, -0.0, 0.0, 1.0]);
        assert_ne!(MatrixKey::of(&neg), MatrixKey::of(&sq));
    }

    #[test]
    fn hits_share_one_computation() {
        let cache: FactorCache<MatrixKey, f64> = FactorCache::new(8);
        let mut computed = 0usize;
        for _ in 0..3 {
            let v = cache
                .get_or_try_insert_with(MatrixKey::of(&mat(1.0)), || {
                    computed += 1;
                    Ok::<_, Infallible>(42.0)
                })
                .unwrap();
            assert_eq!(*v, 42.0);
        }
        assert_eq!(computed, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
    }

    #[test]
    fn errors_are_propagated_and_not_stored() {
        let cache: FactorCache<MatrixKey, f64> = FactorCache::new(8);
        let err = cache.get_or_try_insert_with(MatrixKey::of(&mat(1.0)), || Err::<f64, _>("nope"));
        assert_eq!(err.unwrap_err(), "nope");
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 0);
        // A later successful computation for the same key is stored.
        let v = cache
            .get_or_try_insert_with(MatrixKey::of(&mat(1.0)), || Ok::<_, &str>(3.5))
            .unwrap();
        assert_eq!(*v, 3.5);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn capacity_bounds_the_store() {
        let cache: FactorCache<MatrixKey, usize> = FactorCache::new(2);
        for i in 0..5usize {
            cache
                .get_or_try_insert_with(MatrixKey::of(&mat(i as f64)), || Ok::<_, Infallible>(i))
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 3);

        // Every computed value is either stored or was evicted.
        let small: FactorCache<MatrixKey, usize> = FactorCache::new(2);
        for i in 0..5usize {
            small
                .get_or_try_insert_with(MatrixKey::of(&mat(i as f64)), || Ok::<_, Infallible>(i))
                .unwrap();
        }
        let s = small.stats();
        assert!(s.entries <= 2, "capacity bound violated: {s:?}");
        assert_eq!(s.entries as u64 + s.evictions, s.misses);

        let disabled: FactorCache<MatrixKey, usize> = FactorCache::new(0);
        for _ in 0..2 {
            disabled
                .get_or_try_insert_with(MatrixKey::of(&mat(0.0)), || Ok::<_, Infallible>(1))
                .unwrap();
        }
        assert_eq!(disabled.stats().entries, 0);
        assert_eq!(disabled.stats().misses, 2, "capacity 0 always recomputes");

        // The bound is exact: 128 distinct keys fit without an eviction, and
        // the 129th evicts exactly the least-recently-used one.
        let exact: FactorCache<MatrixKey, usize> = FactorCache::new(128);
        let lookup = |i: usize| {
            let mut computed = false;
            exact
                .get_or_try_insert_with(MatrixKey::of(&mat(i as f64)), || {
                    computed = true;
                    Ok::<_, Infallible>(i)
                })
                .unwrap();
            computed
        };
        assert!((0..128).all(lookup), "128 distinct keys all miss once");
        let s = exact.stats();
        assert_eq!((s.entries, s.evictions), (128, 0));
        // Touch key 0, so key 1 is now the least recently used.
        assert!(!lookup(0));
        assert!(lookup(128));
        let s = exact.stats();
        assert_eq!((s.entries, s.evictions), (128, 1));
        assert!(!lookup(0), "a recently used key was evicted");
        assert!(lookup(1), "the least-recently-used key must have gone");
    }

    #[test]
    fn eviction_is_least_recently_used_not_smallest_key() {
        // Regression: the original cache evicted `keys().next()` — the
        // smallest bit pattern — which threw out the hottest entry whenever
        // it happened to sort first.
        let cache: FactorCache<MatrixKey, u32> = FactorCache::new(2);
        let (a, b, c) = (mat(1.0), mat(2.0), mat(3.0));
        assert!(
            MatrixKey::of(&a) < MatrixKey::of(&b),
            "test precondition: `a` sorts first"
        );
        cache
            .get_or_try_insert_with(MatrixKey::of(&a), || Ok::<_, Infallible>(1))
            .unwrap();
        cache
            .get_or_try_insert_with(MatrixKey::of(&b), || Ok::<_, Infallible>(2))
            .unwrap();
        // Touch `a`: it is now the most recently used despite sorting first.
        cache
            .get_or_try_insert_with(MatrixKey::of(&a), || -> Result<u32, Infallible> {
                panic!("`a` must be a hit");
            })
            .unwrap();
        // Inserting `c` must evict `b` (the LRU entry), not `a`.
        cache
            .get_or_try_insert_with(MatrixKey::of(&c), || Ok::<_, Infallible>(3))
            .unwrap();
        let mut a_recomputed = false;
        cache
            .get_or_try_insert_with(MatrixKey::of(&a), || {
                a_recomputed = true;
                Ok::<_, Infallible>(1)
            })
            .unwrap();
        assert!(!a_recomputed, "the recently-used entry was evicted");
        let mut b_recomputed = false;
        cache
            .get_or_try_insert_with(MatrixKey::of(&b), || {
                b_recomputed = true;
                Ok::<_, Infallible>(2)
            })
            .unwrap();
        assert!(b_recomputed, "the least-recently-used entry must have gone");
    }

    #[test]
    fn clear_keeps_counters_and_outstanding_arcs() {
        let cache: FactorCache<MatrixKey, f64> = FactorCache::new(4);
        let v = cache
            .get_or_try_insert_with(MatrixKey::of(&mat(1.0)), || Ok::<_, Infallible>(7.0))
            .unwrap();
        cache.clear();
        assert_eq!(*v, 7.0);
        let s = cache.stats();
        assert_eq!((s.misses, s.entries), (1, 0));
    }

    #[test]
    fn failed_computes_leave_no_entry_behind() {
        // Capacity 1 holding key 0: failing and panicking computes of other
        // keys must neither evict it nor linger in the map.
        let cache: FactorCache<MatrixKey, usize> = FactorCache::new(1);
        cache.get_or_insert_with(MatrixKey::of(&mat(0.0)), || 0);
        for i in 1..4usize {
            let err = cache.get_or_try_insert_with(MatrixKey::of(&mat(i as f64)), || Err(i));
            assert_eq!(err.unwrap_err(), i);
        }
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_insert_with(MatrixKey::of(&mat(9.0)), || {
                panic!("injected compute failure")
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(lock(&cache.state).map.len(), 1, "a failed key stayed");
        let s = cache.stats();
        assert_eq!((s.misses, s.evictions, s.entries), (1, 0, 1));
        let hit = cache.get_or_insert_with(MatrixKey::of(&mat(0.0)), || {
            panic!("key 0 must still be stored")
        });
        assert_eq!(*hit, 0);
    }

    #[test]
    fn panicking_compute_does_not_strand_waiters() {
        let cache: FactorCache<MatrixKey, f64> = FactorCache::new(4);
        let key = MatrixKey::of(&mat(9.0));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_try_insert_with(key.clone(), || -> Result<f64, Infallible> {
                panic!("injected compute failure");
            });
        }));
        assert!(panicked.is_err());
        // The slot was left empty: the same key can be computed again
        // without hanging.
        let v = cache
            .get_or_try_insert_with(key, || Ok::<_, Infallible>(1.5))
            .unwrap();
        assert_eq!(*v, 1.5);
    }
}
