//! # corrfade-parallel
//!
//! Multi-threaded Monte-Carlo engine and multi-stream batch runtime for the
//! `corrfade` generators, built on a persistent worker pool:
//!
//! * [`Runtime`] — a pool of long-lived workers created once and
//!   reused across calls, with one entry point:
//!   [`Runtime::try_for_each`]`(count, &|i| …)` runs every index of
//!   `0..count` once, executors claiming indices from the pool's one atomic
//!   cursor. The **submitting thread is an executor** — a pool of `W`
//!   executors spawns only `W − 1` threads, a 1-worker pool runs inline,
//!   and the caller never idles at the completion barrier;
//!   [`Runtime::global()`] is the process-wide instance behind the free
//!   functions,
//! * [`monte_carlo_covariance`] — streaming estimation of
//!   `E[Z·Zᴴ]` without materializing the ensemble, one item per chunk
//!   (bit-identical for any pool size thanks to per-chunk accumulators
//!   merged in chunk order),
//! * [`StreamFleet`] — the multi-stream batch engine: open many
//!   named scenarios from `corrfade-scenarios`, or generator
//!   configurations, at once and generate blocks (real-time Doppler blocks
//!   included) for all of them concurrently on the pool. Open resolves
//!   each stream's coloring on the pool through the process-wide
//!   decomposition cache ([`corrfade::cached_eigen_coloring`], a
//!   `corrfade_linalg::FactorCache`), so per-stream setup is paid once per
//!   covariance matrix; the FFT plans the blocks use are memos of the same
//!   type.
//!
//! Workers only execute the `Z = L·W/σ_g` hot path, each stream writing
//! into its own planar `corrfade::SampleBlock` through the
//! `corrfade::ChannelStream` interface — zero steady-state allocation per
//! fleet advance. Chunk seeds are derived from `(master seed, chunk index)`
//! and the chunk layout from `(total, chunk_size)` only, so results do not
//! depend on the number of workers — the statistical regression tests in
//! the workspace rely on that property.
//!
//! Failures are typed, never cascading: a zero
//! [`ParallelConfig::chunk_size`] is [`ParallelError::InvalidChunkSize`],
//! and an item that panics on a pool executor surfaces as
//! [`ParallelError::JobPanicked`] from [`Runtime::try_for_each`] (and the
//! fleet's and engine's fallible calls) while the pool itself survives for
//! subsequent submits — no poisoned-mutex cascade. Malformed
//! `CORRFADE_POOL_THREADS` values are rejected with a clear diagnostic
//! instead of being silently ignored.

#![warn(missing_docs)]

mod engine;
mod error;
mod fleet;
mod partition;
mod runtime;

pub use engine::{monte_carlo_covariance, monte_carlo_covariance_on, ParallelConfig};
pub use error::ParallelError;
pub use fleet::{stream_seed, StreamFleet};
pub use partition::{chunk_seed, MIN_CHUNK_SAMPLES};
pub use runtime::Runtime;
