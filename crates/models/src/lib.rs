//! # corrfade-models
//!
//! Fading-correlation models and covariance-matrix assembly for the
//! `corrfade` workspace — the "step 1 to step 3" part of the paper's
//! algorithm:
//!
//! * [`JakesSpectralModel`] — spectral/temporal correlation as a function of
//!   frequency separation and arrival delay (paper Eq. 3–4; OFDM scenario,
//!   Eq. 22),
//! * [`SalzWintersSpatialModel`] — spatial correlation across a uniform
//!   linear antenna array (paper Eq. 5–7; MIMO scenario, Eq. 23),
//! * [`QuadCovariance`] — the covariance quadruple of Eq. (1)–(2), from
//!   which the models assemble the complex covariance matrix **K** of
//!   Eq. (12)–(13),
//! * [`ChannelParams`] — physical channel parameters (carrier, speed,
//!   sampling rate) and the derived normalized Doppler quantities,
//! * [`wsn`] — network-scale spatial-field helpers: node layouts, link
//!   extraction by connectivity radius, exponential-decay link correlation,
//!   log-distance path loss and the assembled link-field covariance the
//!   `corrfade-network` layer and the generated `network/*` scenario
//!   family build on.
//!
//! Both models ship the exact parameter sets of the paper's Sec. 6
//! experiments ([`jakes::paper_spectral_scenario`],
//! [`salz_winters::paper_spatial_scenario`]) together with the covariance
//! matrices the paper reports (Eq. 22 / Eq. 23) so the test-suite and the
//! benchmark harness can verify the reproduction end to end.

#![warn(missing_docs)]

mod covariance;
mod jakes;
mod params;
mod salz_winters;
pub mod wsn;

pub use covariance::{CovarianceBuildError, QuadCovariance};
pub use jakes::{
    pairwise_delays_from_arrival_times, paper_covariance_matrix_22, paper_spectral_scenario,
    JakesSpectralModel,
};
pub use params::ChannelParams;
pub use salz_winters::{
    paper_covariance_matrix_23, paper_spatial_scenario, SalzWintersSpatialModel,
};
