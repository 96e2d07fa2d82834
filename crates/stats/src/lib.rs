//! # corrfade-stats
//!
//! Statistical validation toolbox for the `corrfade` workspace. The paper
//! validates its generator with envelope plots and analytic moment relations;
//! this crate provides the quantitative machinery the experiment harness uses
//! instead:
//!
//! * descriptive statistics — [`variance`], [`mean_square`],
//!   [`pearson_correlation`],
//! * covariance — complex sample covariance `E(Z·Zᴴ)`
//!   ([`sample_covariance_from_block`]) and the Frobenius error against a
//!   desired covariance matrix ([`relative_frobenius_error`]),
//! * [`ks_test`] — the Kolmogorov–Smirnov goodness-of-fit test against the
//!   Rayleigh law,
//! * Rayleigh relations — the paper's power conversions (Eq. 11, 14, 15),
//!   e.g. [`gaussian_variance_from_envelope_variance`], and
//!   [`check_envelope_moments`],
//! * [`normalized_autocorrelation`] — autocorrelation estimation against
//!   the `J₀(2π·f_m·d)` target of Eq. (20),
//! * fading metrics — level-crossing rate ([`empirical_lcr`]), average fade
//!   duration ([`empirical_afd`]), both from one [`fade_counts`] pass, and
//!   the "dB around RMS" scaling of the paper's Fig. 4.

#![warn(missing_docs)]

mod autocorr;
mod covariance;
mod descriptive;
mod fading_metrics;
mod gof;
mod rayleigh;

pub use autocorr::{max_autocorrelation_deviation, normalized_autocorrelation};
pub use covariance::{
    correlation_from_covariance, relative_frobenius_error, sample_covariance_from_block,
    sample_covariance_from_paths,
};
pub use descriptive::{mean_square, pearson_correlation, variance};
pub use fading_metrics::{
    empirical_afd, empirical_afd_block, empirical_lcr, empirical_lcr_block, envelope_db_around_rms,
    envelope_rms, fade_counts, outage_count_block, theoretical_afd, theoretical_lcr, FadeCounts,
};
pub use gof::{ks_test, KsTest};
pub use rayleigh::{
    check_envelope_moments, envelope_mean, envelope_variance,
    gaussian_variance_from_envelope_variance, rayleigh_scale, EnvelopeMomentCheck,
};
