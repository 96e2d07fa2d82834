//! # corrfade-parallel
//!
//! Multi-threaded Monte-Carlo engine and multi-stream batch runtime for the
//! `corrfade` generators, built on a persistent worker pool:
//!
//! * [`runtime::Runtime`] — a pool of long-lived workers created once and
//!   reused across calls (per-worker pinned [`corrfade::SampleBlock`]
//!   scratch, per-worker kernel-backend latch, graceful shutdown on drop).
//!   The **submitting thread participates as executor 0** — a pool of `W`
//!   executors spawns only `W − 1` threads and the caller never idles at
//!   the completion barrier; [`Runtime::global()`] is the process-wide
//!   instance behind the free functions,
//! * [`engine::monte_carlo_covariance`] — streaming estimation of
//!   `E[Z·Zᴴ]` without materializing the ensemble (bit-identical for any
//!   thread count thanks to per-chunk accumulator slots),
//! * [`fleet::StreamFleet`] — the multi-stream batch engine: open many
//!   named scenarios from `corrfade-scenarios` at once and generate blocks
//!   (real-time Doppler blocks included) for all of them concurrently on
//!   the pool, sharing the process-wide
//!   decomposition cache ([`corrfade::cached_eigen_coloring`]) and FFT plan
//!   cache so per-stream setup is paid once per covariance matrix.
//!
//! The expensive eigendecomposition is resolved once per covariance matrix
//! through the decomposition cache; workers only execute the `Z = L·W/σ_g`
//! hot path, each streaming through the `corrfade::ChannelStream` interface
//! into pinned planar `corrfade::SampleBlock`s — zero steady-state
//! allocation per block. Chunk seeds are derived from `(master seed, chunk
//! index)` and the chunk layout from `(total, chunk_size)` only, so results
//! do not depend on the number of worker threads — the statistical
//! regression tests in the workspace rely on that property.
//!
//! Failures are typed, never cascading: a zero
//! [`ParallelConfig::chunk_size`] is [`ParallelError::InvalidChunkSize`],
//! and a job that panics on a pool executor surfaces as
//! [`ParallelError::JobPanicked`] from [`Runtime::try_run`] (and the fleet's
//! fallible advance) while the pool itself survives for subsequent submits —
//! no poisoned-mutex cascade. Malformed `CORRFADE_POOL_THREADS` values are
//! rejected with a clear diagnostic ([`runtime::parse_pool_threads`])
//! instead of being silently ignored.

#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod fleet;
pub mod partition;
pub mod runtime;

pub use engine::{monte_carlo_covariance, monte_carlo_covariance_on, ParallelConfig};
pub use error::ParallelError;
pub use fleet::{stream_seed, StreamFleet};
pub use partition::{
    balanced_chunk_size, chunk_seed, partition, Chunk, MIN_CHUNK_SAMPLES, TARGET_CHUNKS,
};
pub use runtime::{parse_pool_threads, Runtime, WorkerScratch};
