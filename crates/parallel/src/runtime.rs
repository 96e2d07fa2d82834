//! The persistent worker-pool runtime.
//!
//! Every engine entry point used to spawn (and join) a fresh
//! `std::thread::scope` pool per call. That is correct but pays thread
//! creation, stack setup and tear-down on every request — the dominant cost
//! on small workloads, and pure waste for a service that answers a stream of
//! them. [`Runtime`] replaces it with a pool created **once** and reused
//! across calls:
//!
//! * a pool of `workers` executors consists of `workers - 1` long-lived OS
//!   threads parked on a condvar **plus the submitting thread itself**:
//!   [`Runtime::run`] executes the job as executor 0 instead of blocking
//!   behind the pool. The caller-runs discipline means a pool sized larger
//!   than the machine degrades gracefully (the submitter simply does the
//!   work the unscheduled workers never claim — no oversubscription
//!   penalty), and on a multi-core machine no core idles while the
//!   submitter waits;
//! * each worker owns a pinned [`WorkerScratch`] (its pooled planar
//!   [`SampleBlock`]) that survives across jobs, so steady-state generation
//!   stays allocation-free end to end — the workspace's
//!   allocation-regression test measures this through the whole fleet path.
//!   The submitting thread's scratch is thread-local and equally pinned;
//! * each worker latches the [`corrfade_linalg::kernel`] backend once at
//!   spawn, so `CORRFADE_KERNEL` is honoured deterministically no matter
//!   which thread first touches a kernel;
//! * a panicking job is contained (`catch_unwind` around every execution)
//!   and reported as the typed [`ParallelError::JobPanicked`] by
//!   [`Runtime::try_run`]; no runtime mutex is ever held across job code,
//!   so a panic cannot poison the pool — subsequent submissions run
//!   normally instead of cascading `lock().unwrap()` panics;
//! * dropping the runtime shuts the pool down gracefully: workers observe
//!   the shutdown flag, exit their loop, and `Drop` joins every handle — no
//!   leaked threads (a lifecycle test pins this via the pool's own
//!   reference counts).
//!
//! Work distribution is unchanged in contract: a job is one closure that
//! every executor runs, claiming work items from a shared atomic cursor.
//! Which executor runs which item is irrelevant to the output because all
//! randomness derives from `(master seed, item index)` — the
//! thread-count-invariance guarantee is unchanged.
//!
//! [`Runtime::global()`] exposes one process-wide pool (sized from
//! `CORRFADE_POOL_THREADS`, default: all cores) so the existing free
//! functions keep their signatures and become thin wrappers over it.

use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use corrfade_linalg::SampleBlock;

use crate::error::ParallelError;

/// Per-worker pinned state, created once per pool worker (or once per
/// submitting/spawned thread) and handed to every job the worker executes.
///
/// RNG state deliberately does **not** live here: generators derive their
/// streams from `(master seed, chunk index)` inside the job, which is what
/// makes results independent of worker identity and count.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// Pooled planar block, reused across every chunk this worker
    /// processes — the buffer behind the zero-steady-state-allocation
    /// guarantee of the ensemble jobs.
    pub block: SampleBlock,
}

/// A lifetime-erased pointer to the job closure of the current epoch.
///
/// Stored in the pool state only while [`Runtime::try_run`] blocks; it does
/// not return before every worker has finished the epoch, so the pointee
/// outlives every dereference.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize, &mut WorkerScratch) + Sync));

// SAFETY: the pointer crosses threads, but it is only dereferenced between
// the epoch publication and the final `active == 0` handshake inside
// `Runtime::try_run`, during which the caller's closure is kept alive.
unsafe impl Send for Job {}

/// Mutex-guarded pool state. `epoch` identifies the current job; a worker
/// runs each epoch exactly once and sleeps until the next.
struct PoolState {
    epoch: u64,
    job: Option<Job>,
    /// Executors (spawned workers + the submitter) that have not yet
    /// finished the current epoch.
    active: usize,
    /// Executors whose job closure panicked in the current epoch.
    panicked: usize,
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
/// panicked. No job code ever runs under these locks (jobs execute behind
/// `catch_unwind` with no guard held), so the guarded state is consistent
/// even after a panic elsewhere — recovering instead of unwrapping is what
/// keeps one panicking job from cascading into every later submission.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Pinned scratch of the submitting thread: the submitter executes the
    /// job as executor 0 (and 1-worker pools run entirely inline), and this
    /// per-thread scratch keeps that path allocation-free in steady state
    /// just like a spawned worker's.
    static SUBMITTER_SCRATCH: RefCell<WorkerScratch> = RefCell::new(WorkerScratch::default());
}

/// A persistent pool of worker threads executing work-pulling jobs, with
/// the submitting thread participating as an executor.
///
/// See the [module docs](self) for the design; see [`Runtime::global`] for
/// the process-wide instance behind the free-function API.
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
pub fn parse_pool_threads(value: Option<&str>) -> Result<usize, String> {
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
    /// cores"): `threads - 1` spawned workers plus the submitting thread,
    /// which executes every job as executor 0. Workers latch the kernel
    /// backend immediately, then park until the first job. A single-worker
    /// pool therefore spawns no threads at all — jobs run entirely inline
    /// on the caller.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let workers = if threads > 0 {
            threads
        } else {
            available_cores()
        };
        // Latch the kernel backend on the constructing thread first so a
        // malformed CORRFADE_KERNEL value panics here, not inside a worker.
        let _ = corrfade_linalg::kernel::backend();
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                panicked: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        // The submitter is executor 0; spawn the remaining ids 1..workers.
        let handles = (1..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("corrfade-worker-{id}"))
                    .spawn(move || worker_loop(&shared, id))
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
    /// means "all cores"; see [`parse_pool_threads`]).
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

    /// Executes `job` on every executor of the pool and blocks until all of
    /// them have finished. `job` receives the executor index
    /// (`0..workers()`, where 0 is the submitting thread itself) and the
    /// executor's pinned scratch; jobs distribute actual work by pulling
    /// items from their own shared structure, so executors the job does not
    /// need simply return immediately.
    ///
    /// Concurrent callers are serialized (one job owns the pool at a
    /// time). Calling this from inside a pool worker of the *same* runtime
    /// would deadlock — jobs must not submit nested jobs to their own pool.
    ///
    /// With a warm scratch the dispatch itself performs **no heap
    /// allocation** (mutex + condvar handshake only), and a single-worker
    /// pool skips the handshake entirely and runs the job inline.
    ///
    /// # Errors
    /// [`ParallelError::JobPanicked`] when any execution of `job` panicked.
    /// The pool survives: the panic is contained on the executor, no
    /// runtime lock is poisoned, and later submissions run normally.
    pub fn try_run(
        &self,
        job: &(dyn Fn(usize, &mut WorkerScratch) + Sync),
    ) -> Result<(), ParallelError> {
        let serial = lock_ignore_poison(&self.submit);
        let panicked = if self.workers == 1 {
            // Inline fast path: no parallelism to win, so skip the wake.
            // (A nested `run` on the same thread would panic on the borrow
            // rather than deadlock on the pool — nesting is forbidden
            // either way.)
            usize::from(run_as_submitter(job))
        } else {
            // SAFETY: erases the closure's borrow lifetime for storage in
            // the shared state. The wait loop below does not return until
            // every worker finished the epoch and the pointer is cleared,
            // so no dereference outlives the borrow.
            let erased = Job(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize, &mut WorkerScratch) + Sync + '_),
                    *const (dyn Fn(usize, &mut WorkerScratch) + Sync + 'static),
                >(job)
            });
            {
                let mut state = lock_ignore_poison(&self.shared.state);
                state.epoch = state.epoch.wrapping_add(1);
                state.job = Some(erased);
                state.active = self.workers;
                state.panicked = 0;
                self.shared.work.notify_all();
            }
            // Caller-runs: the submitter is executor 0 and claims work
            // alongside the woken workers instead of blocking behind them.
            let submitter_panicked = run_as_submitter(job);
            let mut state = lock_ignore_poison(&self.shared.state);
            if submitter_panicked {
                state.panicked += 1;
            }
            state.active -= 1;
            while state.active > 0 {
                state = self
                    .shared
                    .done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.job = None;
            state.panicked
        };
        drop(serial);
        if panicked > 0 {
            Err(ParallelError::JobPanicked { panicked })
        } else {
            Ok(())
        }
    }

    /// [`Runtime::try_run`], panicking on a worker-job panic — the
    /// infallible entry point for jobs that cannot fail.
    ///
    /// # Panics
    /// Panics if any execution of `job` panicked; the pool itself survives
    /// and subsequent jobs run normally.
    pub fn run(&self, job: &(dyn Fn(usize, &mut WorkerScratch) + Sync)) {
        if let Err(error) = self.try_run(job) {
            panic!("{error}");
        }
    }
}

/// Runs `job` as executor 0 on the submitting thread with its pinned
/// thread-local scratch, containing any panic. Returns whether it panicked.
fn run_as_submitter(job: &(dyn Fn(usize, &mut WorkerScratch) + Sync)) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        SUBMITTER_SCRATCH.with(|scratch| job(0, &mut scratch.borrow_mut()));
    }))
    .is_err()
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

/// Resolved "all cores" worker count.
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn worker_loop(shared: &Shared, id: usize) {
    // Per-worker kernel-backend latch: deterministic backend selection no
    // matter which thread races the first kernel call.
    let _ = corrfade_linalg::kernel::backend();
    let mut scratch = WorkerScratch::default();
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
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: see `Job` — the submitter keeps the closure alive
            // until every worker has reported completion of this epoch.
            (unsafe { &*job.0 })(id, &mut scratch);
        }));
        let mut state = lock_ignore_poison(&shared.state);
        if outcome.is_err() {
            state.panicked += 1;
        }
        state.active -= 1;
        if state.active == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_executes_on_every_worker_with_pinned_scratch() {
        let rt = Runtime::new(3);
        assert_eq!(rt.workers(), 3);
        let seen = Mutex::new(vec![0usize; 3]);
        rt.run(&|id, scratch| {
            scratch.block.resize(1, 8); // warm the pinned block
            seen.lock().unwrap()[id] += 1;
        });
        rt.run(&|id, scratch| {
            // The scratch survives across jobs: it is already sized. This
            // holds for the spawned workers *and* for executor 0, whose
            // scratch is pinned to the submitting thread.
            assert_eq!(scratch.block.samples(), 8);
            seen.lock().unwrap()[id] += 1;
        });
        assert_eq!(*seen.lock().unwrap(), vec![2, 2, 2]);
    }

    #[test]
    fn submitter_is_executor_zero() {
        let rt = Runtime::new(4);
        let submitter = std::thread::current().id();
        let executed_on = Mutex::new(None);
        rt.run(&|id, _| {
            if id == 0 {
                *executed_on.lock().unwrap() = Some(std::thread::current().id());
            }
        });
        assert_eq!(
            executed_on.lock().unwrap().expect("executor 0 must run"),
            submitter,
            "executor 0 must be the submitting thread (caller-runs)"
        );
    }

    #[test]
    fn drop_joins_all_workers() {
        let rt = Runtime::new(4);
        let workers_alive = Arc::downgrade(&rt.shared);
        rt.run(&|_, _| {});
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
    fn pool_survives_a_panicking_job() {
        let rt = Runtime::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(&|id, _| {
                if id == 0 {
                    panic!("injected job failure");
                }
            });
        }));
        assert!(result.is_err(), "the panic must propagate to the submitter");
        // The pool is still operational afterwards.
        let counter = AtomicUsize::new(0);
        rt.run(&|_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn panicking_job_is_a_typed_error_not_a_cascade() {
        // Panics on the spawned worker, the submitting executor, and the
        // 1-worker inline path must all surface as JobPanicked — and the
        // very next submission must succeed (no poisoned-mutex cascade).
        for (pool, panicking_id) in [(2usize, 1usize), (2, 0), (1, 0)] {
            let rt = Runtime::new(pool);
            let result = rt.try_run(&|id, _| {
                if id == panicking_id {
                    panic!("injected failure on executor {id}");
                }
            });
            assert_eq!(
                result,
                Err(ParallelError::JobPanicked { panicked: 1 }),
                "pool {pool}, executor {panicking_id}"
            );
            let counter = AtomicUsize::new(0);
            rt.try_run(&|_, _| {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .expect("the pool must stay serviceable after a panicked job");
            assert_eq!(counter.load(Ordering::Relaxed), pool);
        }
    }

    #[test]
    fn every_panicking_executor_is_counted() {
        let rt = Runtime::new(3);
        let result = rt.try_run(&|_, _| panic!("all executors fail"));
        assert_eq!(result, Err(ParallelError::JobPanicked { panicked: 3 }));
    }

    #[test]
    fn concurrent_submitters_are_serialized_not_lost() {
        let rt = Arc::new(Runtime::new(2));
        let total = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rt = Arc::clone(&rt);
                let total = Arc::clone(&total);
                scope.spawn(move || {
                    for _ in 0..25 {
                        rt.run(&|_, _| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        // 4 submitters × 25 jobs × 2 executors.
        assert_eq!(total.load(Ordering::Relaxed), 200);
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
