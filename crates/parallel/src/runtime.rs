//! The persistent worker-pool runtime; its design notes are on [`Runtime`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use crate::error::ParallelError;

/// A lifetime-erased pointer to the claim loop of the current epoch.
///
/// Stored in the pool state only while [`Runtime::try_for_each`] blocks; it
/// does not return before every worker has finished the epoch, so the
/// pointee outlives every dereference.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync));

// SAFETY: the pointer crosses threads, but it is only dereferenced between
// the epoch publication and the final `active == 0` handshake inside
// `Runtime::try_for_each`, during which the caller's closure is kept alive.
unsafe impl Send for Job {}

/// Mutex-guarded pool state. `epoch` identifies the current job; a worker
/// runs each epoch exactly once and sleeps until the next.
struct PoolState {
    epoch: u64,
    job: Option<Job>,
    /// Executors (spawned workers + the submitter) that have not yet
    /// finished the current epoch.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new epoch (or shutdown).
    work: Condvar,
    /// The submitter waits here for `active` to reach zero.
    done: Condvar,
}

/// Locks a runtime mutex, recovering the guard when a previous holder
/// panicked. No item code ever runs under these locks (items execute behind
/// `catch_unwind` with no guard held), so the guarded state is consistent
/// even after a panic elsewhere — recovering instead of unwrapping is what
/// keeps one panicking item from cascading into every later submission.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A persistent pool of worker threads running indexed items, with the
/// submitting thread participating as an executor.
///
/// Every engine entry point used to spawn (and join) a fresh
/// `std::thread::scope` pool per call. That is correct but pays thread
/// creation, stack setup and tear-down on every request — the dominant cost
/// on small workloads, and pure waste for a service that answers a stream of
/// them. [`Runtime`] replaces it with a pool created **once** and reused
/// across calls. Its one entry point, [`Runtime::try_for_each`], runs
/// `item(i)` for every index `i` of `0..count`:
///
/// * a pool of `workers` executors consists of `workers - 1` long-lived OS
///   threads parked on a condvar **plus the submitting thread itself**,
///   which claims items alongside the woken workers instead of blocking
///   behind them. The caller-runs discipline means a pool sized larger than
///   the machine degrades gracefully (the submitter simply does the work
///   the unscheduled workers never claim — no oversubscription penalty),
///   and on a multi-core machine no core idles while the submitter waits.
///   A 1-worker pool spawns no thread and runs every item inline;
/// * executors claim indices from one atomic cursor, so a skewed workload
///   (items of very different cost) keeps every executor busy until the
///   last item is claimed;
/// * a panicking item is contained (`catch_unwind` around every item) and
///   counted; [`Runtime::try_for_each`] reports the count as the typed
///   [`ParallelError::JobPanicked`] after every other item has run. No
///   runtime mutex is ever held across item code, so a panic cannot poison
///   the pool — subsequent submissions run normally instead of cascading
///   `lock().unwrap()` panics;
/// * dropping the runtime shuts the pool down gracefully: workers observe
///   the shutdown flag, exit their loop, and `Drop` joins every handle — no
///   leaked threads (a lifecycle test pins this via the pool's own
///   reference counts).
///
/// Which executor runs which item is irrelevant to the output because all
/// randomness derives from `(master seed, item index)` — the
/// thread-count-invariance guarantee of every caller rests on that.
///
/// [`Runtime::global()`] exposes one process-wide pool (sized from
/// `CORRFADE_POOL_THREADS`, default: all cores) so the free functions keep
/// their signatures and become thin wrappers over it.
pub struct Runtime {
    shared: Arc<Shared>,
    workers: usize,
    /// Serializes concurrent submitters: one job owns the pool at a time,
    /// later submitters queue on this lock.
    submit: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

/// Parses a `CORRFADE_POOL_THREADS` value (`None` = variable unset) into a
/// worker count. Accepted forms: unset or `0` (all available cores) and any
/// positive integer. Anything else — empty strings, negative numbers,
/// non-numeric text, fractions — is rejected with a diagnostic naming the
/// variable, the offending value and the accepted forms, so a typo can
/// never silently fall back to the default pool size.
///
/// # Errors
/// A human-readable diagnostic for any malformed value.
pub(crate) fn parse_pool_threads(value: Option<&str>) -> Result<usize, String> {
    let Some(raw) = value else {
        return Ok(0);
    };
    raw.trim().parse::<usize>().map_err(|parse_error| {
        format!(
            "CORRFADE_POOL_THREADS={raw:?} is not a valid worker count \
             ({parse_error}; expected a non-negative integer — 0 or unset \
             means \"all available cores\")"
        )
    })
}

impl Runtime {
    /// Creates a pool of `threads` executors (`0` means "all available
    /// cores"): `threads - 1` spawned workers plus the submitting thread.
    /// The kernel backend is latched here, once for the process, so a
    /// malformed `CORRFADE_KERNEL` panics on the constructing thread rather
    /// than inside a worker. A single-worker pool spawns no threads at all
    /// — items run entirely inline on the caller.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let workers = if threads > 0 {
            threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let _ = corrfade_linalg::kernel::backend();
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("corrfade-worker-{id}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker thread failed")
            })
            .collect();
        Self {
            shared,
            workers,
            submit: Mutex::new(()),
            handles,
        }
    }

    /// The process-wide pool used by the free-function engine API and the
    /// stream fleet. Created on first use — race-safe under concurrent
    /// first callers — with one executor per available core, overridable
    /// via the `CORRFADE_POOL_THREADS` environment variable (`0` or unset
    /// means "all cores").
    ///
    /// The global pool lives for the remainder of the process; its workers
    /// spend idle time parked on a condvar.
    ///
    /// # Panics
    /// Panics if `CORRFADE_POOL_THREADS` is set to a malformed value — a
    /// misconfigured pool size must be fixed, not silently ignored.
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let value = std::env::var("CORRFADE_POOL_THREADS").ok();
            match parse_pool_threads(value.as_deref()) {
                Ok(threads) => Runtime::new(threads),
                Err(diagnostic) => panic!("{diagnostic}"),
            }
        })
    }

    /// Number of executors in the pool (spawned workers plus the
    /// submitting thread).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `item(i)` exactly once for every `i` in `0..count` and blocks
    /// until all of them have finished. The submitting thread claims
    /// indices alongside the pool's workers; which executor runs which
    /// index is unspecified, so `item` must derive everything it produces
    /// from `i` alone.
    ///
    /// Concurrent callers are serialized (one job owns the pool at a
    /// time). Calling this from inside an item on the *same* runtime would
    /// deadlock — items must not submit nested jobs to their own pool.
    ///
    /// The dispatch performs **no heap allocation** (mutex + condvar
    /// handshake only); a single-worker pool, or a job of at most one item,
    /// skips the handshake and runs inline.
    ///
    /// # Errors
    /// [`ParallelError::JobPanicked`] with the number of items that
    /// panicked; every other item still ran. The pool survives: the panic is
    /// contained on the executor, no runtime lock is poisoned, and later
    /// submissions run normally.
    pub fn try_for_each(
        &self,
        count: usize,
        item: &(dyn Fn(usize) + Sync),
    ) -> Result<(), ParallelError> {
        // Relaxed: the cursor only hands out indices, the counter is read
        // after the completion handshake, and the pool's state mutex orders
        // everything the items wrote.
        let next = AtomicUsize::new(0);
        let panicked = AtomicUsize::new(0);
        let claim = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            if catch_unwind(AssertUnwindSafe(|| item(i))).is_err() {
                panicked.fetch_add(1, Ordering::Relaxed);
            }
        };
        let serial = lock_ignore_poison(&self.submit);
        if self.workers == 1 || count <= 1 {
            claim();
        } else {
            self.broadcast(&claim);
        }
        drop(serial);
        match panicked.into_inner() {
            0 => Ok(()),
            panicked => Err(ParallelError::JobPanicked { panicked }),
        }
    }

    /// Runs `job` on every executor — the woken workers and the submitting
    /// thread — and returns once all of them have finished it.
    fn broadcast(&self, job: &(dyn Fn() + Sync)) {
        // SAFETY: erases the closure's borrow lifetime for storage in the
        // shared state. The wait loop below does not return until every
        // worker finished the epoch and the pointer is cleared, so no
        // dereference outlives the borrow; `job` (the claim loop, which
        // catches every item panic) does not unwind, so the wait is always
        // reached.
        let erased = Job(unsafe {
            std::mem::transmute::<*const (dyn Fn() + Sync + '_), *const (dyn Fn() + Sync + 'static)>(
                job,
            )
        });
        {
            let mut state = lock_ignore_poison(&self.shared.state);
            state.epoch = state.epoch.wrapping_add(1);
            state.job = Some(erased);
            state.active = self.workers;
            self.shared.work.notify_all();
        }
        job();
        let mut state = lock_ignore_poison(&self.shared.state);
        state.active -= 1;
        while state.active > 0 {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
    }
}

impl Drop for Runtime {
    /// Graceful shutdown: publish the shutdown flag, wake every parked
    /// worker and join all handles. A worker mid-job finishes its current
    /// epoch first, so in-flight work is never abandoned half-written.
    fn drop(&mut self) {
        {
            let mut state = lock_ignore_poison(&self.shared.state);
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            // A worker that panicked outside a job (impossible today) must
            // not turn shutdown into a second panic.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut state = lock_ignore_poison(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    break state.job.expect("a job is published with every epoch");
                }
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: see `Job` — the submitter keeps the closure alive until
        // every worker has reported completion of this epoch. The claim
        // loop contains every item panic, so this call returns normally.
        (unsafe { &*job.0 })();
        let mut state = lock_ignore_poison(&shared.state);
        state.active -= 1;
        if state.active == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// How often each index of `0..count` ran in one `try_for_each`.
    fn visits(rt: &Runtime, count: usize) -> Vec<usize> {
        let seen: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
        rt.try_for_each(count, &|i| {
            seen[i].fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        seen.into_iter().map(AtomicUsize::into_inner).collect()
    }

    #[test]
    fn try_for_each_visits_every_index_exactly_once() {
        for workers in 1..=4 {
            let rt = Runtime::new(workers);
            assert_eq!(rt.workers(), workers);
            for count in [0, 1, workers - 1, workers, 10 * workers] {
                assert_eq!(
                    visits(&rt, count),
                    vec![1; count],
                    "pool of {workers}, {count} items"
                );
            }
        }
    }

    #[test]
    fn the_submitter_is_an_executor() {
        // Each item holds its executor until all `workers` items have been
        // claimed, so every executor takes exactly one item: the job only
        // completes if the submitting thread claims one too.
        for workers in 1..=4 {
            let rt = Runtime::new(workers);
            let claimed = AtomicUsize::new(0);
            let threads = Mutex::new(Vec::new());
            rt.try_for_each(workers, &|_| {
                claimed.fetch_add(1, Ordering::Relaxed);
                let deadline = Instant::now() + Duration::from_secs(10);
                while claimed.load(Ordering::Relaxed) < workers {
                    assert!(Instant::now() < deadline, "an executor never claimed");
                    std::thread::yield_now();
                }
                threads.lock().unwrap().push(std::thread::current().id());
            })
            .unwrap();
            let threads = threads.into_inner().unwrap();
            assert!(
                threads.contains(&std::thread::current().id()),
                "pool of {workers}: the submitter ran no item"
            );
        }
    }

    #[test]
    fn drop_joins_all_workers() {
        let rt = Runtime::new(4);
        let workers_alive = Arc::downgrade(&rt.shared);
        rt.try_for_each(8, &|_| {}).unwrap();
        drop(rt);
        // Every spawned worker held an Arc<Shared>; after the drop-join no
        // clone survives, proving all worker threads actually exited.
        assert_eq!(
            workers_alive.strong_count(),
            0,
            "dropping the runtime must join (not leak) its worker threads"
        );
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let rt = Runtime::new(0);
        assert!(rt.workers() >= 1);
    }

    #[test]
    fn a_panicking_item_is_a_typed_error_and_the_pool_survives() {
        // Whether the failing item runs on a spawned worker, on the
        // submitter or inline, the job reports one panicked item, every
        // other item still runs, and the next job is served normally.
        for workers in 1..=3 {
            let rt = Runtime::new(workers);
            for count in [1, 4 * workers] {
                let ran = AtomicUsize::new(0);
                let result = rt.try_for_each(count, &|i| {
                    assert!(i != count / 2, "injected failure on item {i}");
                    ran.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(
                    result,
                    Err(ParallelError::JobPanicked { panicked: 1 }),
                    "pool of {workers}, {count} items"
                );
                assert_eq!(ran.into_inner(), count - 1);
                assert_eq!(visits(&rt, 3 * workers), vec![1; 3 * workers]);
            }
        }
    }

    #[test]
    fn every_panicking_item_is_counted() {
        let rt = Runtime::new(3);
        let result = rt.try_for_each(5, &|_| panic!("every item fails"));
        assert_eq!(result, Err(ParallelError::JobPanicked { panicked: 5 }));
    }

    #[test]
    fn concurrent_submitters_are_serialized() {
        // Items record which job holds the pool and how many of its items
        // have not finished yet; an item of another job starting in between
        // would mean two jobs overlapped.
        const ITEMS: usize = 6;
        let rt = Runtime::new(2);
        let owner = Mutex::new((0usize, 0usize));
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for submitter in 0..4 {
                let (rt, owner, total) = (&rt, &owner, &total);
                scope.spawn(move || {
                    for round in 0..25 {
                        let job = submitter * 100 + round;
                        rt.try_for_each(ITEMS, &|_| {
                            {
                                let mut owner = owner.lock().unwrap();
                                if owner.1 == 0 {
                                    *owner = (job, ITEMS);
                                }
                                assert_eq!(owner.0, job, "two jobs shared the pool");
                            }
                            total.fetch_add(1, Ordering::Relaxed);
                            owner.lock().unwrap().1 -= 1;
                        })
                        .expect("jobs must not overlap");
                    }
                });
            }
        });
        // 4 submitters × 25 jobs × ITEMS items.
        assert_eq!(total.into_inner(), 4 * 25 * ITEMS);
    }

    #[test]
    fn pool_threads_spec_parsing() {
        assert_eq!(parse_pool_threads(None), Ok(0));
        assert_eq!(parse_pool_threads(Some("0")), Ok(0));
        assert_eq!(parse_pool_threads(Some("8")), Ok(8));
        assert_eq!(parse_pool_threads(Some(" 4 ")), Ok(4), "whitespace trimmed");
        for bad in ["", " ", "-1", "two", "1.5", "8 workers", "0x4"] {
            let err = parse_pool_threads(Some(bad)).unwrap_err();
            assert!(
                err.contains("CORRFADE_POOL_THREADS") && err.contains("expected"),
                "diagnostic must name the variable and accepted forms: {err}"
            );
            assert!(
                err.contains(&format!("{bad:?}")),
                "diagnostic must quote the offending value: {err}"
            );
        }
    }
}
