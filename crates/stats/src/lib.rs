//! # corrfade-stats
//!
//! Statistical validation toolbox for the `corrfade` workspace. The paper
//! validates its generator with envelope plots and analytic moment relations;
//! this crate provides the quantitative machinery the experiment harness uses
//! instead:
//!
//! * [`descriptive`] — means, variances, higher moments, quantiles,
//! * [`covariance`] — complex sample covariance `E(Z·Zᴴ)`, the four real
//!   covariances of Eq. (1)–(2) and the Frobenius error against a desired
//!   covariance matrix,
//! * [`gof`] — the Kolmogorov–Smirnov goodness-of-fit test against the
//!   Rayleigh law,
//! * [`rayleigh`] — the paper's power-conversion relations (Eq. 11, 14, 15),
//! * [`autocorr`] — autocorrelation estimation against the `J₀(2π·f_m·d)`
//!   target of Eq. (20),
//! * [`fading_metrics`] — level-crossing rate, average fade duration and the
//!   "dB around RMS" scaling of the paper's Fig. 4.

#![warn(missing_docs)]

pub mod autocorr;
pub mod covariance;
pub mod descriptive;
pub mod fading_metrics;
pub mod gof;
pub mod rayleigh;

pub use autocorr::{autocorrelation, max_autocorrelation_deviation, normalized_autocorrelation};
pub use covariance::{
    complex_covariance_from_parts, correlation_from_covariance, real_imag_covariances,
    relative_frobenius_error, sample_covariance_from_block, sample_covariance_from_paths,
};
pub use descriptive::{
    kurtosis, mean, mean_square, median, pearson_correlation, quantile, rms, skewness, variance,
};
pub use fading_metrics::{
    empirical_afd, empirical_afd_block, empirical_lcr, empirical_lcr_block, envelope_db_around_rms,
    envelope_rms, outage_count, outage_count_block, theoretical_afd, theoretical_lcr,
};
pub use gof::{ks_test, KsTest};
pub use rayleigh::{
    check_envelope_moments, envelope_mean, envelope_variance,
    gaussian_variance_from_envelope_variance, rayleigh_mle_scale, rayleigh_scale,
    EnvelopeMomentCheck,
};
