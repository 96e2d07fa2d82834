//! # corrfade
//!
//! Generalized generation of correlated Rayleigh fading envelopes, after
//!
//! > L. C. Tran, T. A. Wysocki, J. Seberry, A. Mertins,
//! > *"A Generalized Algorithm for the Generation of Correlated Rayleigh
//! > Fading Envelopes in Radio Channels"*, Proc. 19th IEEE IPDPS, 2005.
//!
//! The algorithm produces an arbitrary number `N` of Rayleigh envelopes with
//! any (equal or unequal) powers and any desired complex covariance matrix
//! **K** of the underlying complex Gaussian variables — including matrices
//! that are not positive semi-definite (they are replaced by their closest
//! PSD approximation) — in two operating modes:
//!
//! * **Single time-instant mode** ([`CorrelatedRayleighGenerator`]):
//!   successive samples are independent over time; correct marginals and
//!   cross-correlations only. Steps 1–7 of paper Sec. 4.4.
//! * **Real-time mode** ([`RealtimeGenerator`]): each envelope additionally
//!   has the Clarke/Jakes temporal autocorrelation `J₀(2π·f_m·d)` imposed by
//!   a bank of Young–Beaulieu IDFT Doppler generators, with the filter's
//!   variance change (Eq. 19) fed into the coloring step. Paper Sec. 5,
//!   Fig. 3.
//!
//! Both modes (and the conventional baselines in `corrfade-baselines`)
//! implement the zero-allocation streaming interface [`ChannelStream`],
//! which writes blocks into caller-owned planar [`SampleBlock`] buffers —
//! see [`ChannelStream`] for the streaming quick start.
//!
//! ## Pipeline
//!
//! ```text
//! powers (σ_r² or σ_g², Eq. 11)                 [power::PowerSpec]
//!   + correlation model (Eq. 3–7)               [corrfade-models]
//!        │
//!        ▼
//! covariance matrix K (Eq. 12–13)
//!        │  eigendecomposition + clipping        [psd]
//!        ▼
//! K̄ = V·Λ̂·Vᴴ  (closest PSD approximation)
//!        │  L = V·√Λ̂                             [coloring]
//!        ▼
//! Z = L·W/σ_g   →   envelopes |z_j|              [generator / realtime]
//! ```
//!
//! ## Quick start
//!
//! ```
//! use corrfade::GeneratorBuilder;
//! use corrfade_models::paper_spatial_scenario;
//!
//! // Three spatially-correlated envelopes (the paper's Fig. 4b scenario).
//! let mut gen = GeneratorBuilder::new()
//!     .spatial_scenario(paper_spatial_scenario(), 3)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//!
//! let sample = gen.sample();
//! assert_eq!(sample.envelopes.len(), 3);
//! assert!(sample.envelopes.iter().all(|&r| r >= 0.0));
//! ```

#![warn(missing_docs)]

mod builder;
mod cache;
mod coloring;
mod error;
mod generator;
mod power;
mod psd;
mod realtime;
mod stream;

pub use builder::GeneratorBuilder;
pub use cache::{cached_eigen_coloring, clear_coloring_caches, coloring_cache_stats};
pub use coloring::{cholesky_coloring, eigen_coloring, Coloring};
pub use error::CorrfadeError;
pub use generator::{CorrelatedRayleighGenerator, Sample};
pub use psd::{force_positive_semidefinite, PsdForcing};
pub use realtime::{Precision, RealtimeConfig, RealtimeGenerator};
pub use stream::ChannelStream;

// The planar block buffers the streaming API writes into live in the linalg
// crate (they are pure data layout); re-export them so `corrfade` alone is
// enough to drive a `ChannelStream`.
pub use corrfade_linalg::SampleBlock;

// Re-export the sibling crates under stable names so downstream users can
// depend on `corrfade` alone.
pub use corrfade_dsp as dsp;
pub use corrfade_linalg as linalg;
pub use corrfade_models as models;
pub use corrfade_randn as randn;
pub use corrfade_stats as stats;
