//! # corrfade-specfun
//!
//! Special functions required by the correlated Rayleigh-fading models:
//!
//! * Bessel functions of the first kind `J₀`, `J₁`, `Jₙ`
//!   ([`bessel_j0`], [`bessel_j1`], [`bessel_jn`]) — the spectral
//!   covariance of Eq. (3), the spatial
//!   covariance series of Eq. (5)–(6) and the Doppler autocorrelation
//!   target `J₀(2π·fm·d)` of Eq. (20) of the paper,
//! * the Rayleigh CDF ([`rayleigh_cdf`]) — Kolmogorov–Smirnov tests on the
//!   generated envelopes.
//!
//! Everything is implemented from scratch (power series, asymptotic
//! expansions, Miller's downward recurrence) because no numerical
//! special-function crate is available in the offline dependency set.

#![warn(missing_docs)]

mod bessel;
mod rayleigh;

pub use bessel::{bessel_j0, bessel_j1, bessel_jn};
pub use rayleigh::rayleigh_cdf;
