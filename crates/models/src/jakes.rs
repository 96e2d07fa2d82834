//! Spectral/temporal fading correlation after Jakes (paper Sec. 2, Eq. 3–4).
//!
//! For two equal-power complex Gaussian processes at carrier frequencies
//! `f_k`, `f_j` observed with an arrival-time offset `τ_{k,j}`, Jakes'
//! model gives
//!
//! ```text
//! Rxx = Ryy =  σ²·J₀(2π·F_m·τ) / (2·[1 + (Δω·σ_τ)²])
//! Rxy = −Ryx = −Δω·σ_τ·Rxx
//! ```
//!
//! with `Δω = 2π(f_k − f_j)` the angular frequency separation, `F_m` the
//! maximum Doppler frequency and `σ_τ` the RMS delay spread of the channel.
//! This is the OFDM-flavoured correlation model used for the paper's first
//! experiment (covariance matrix Eq. 22, Fig. 4a).

use corrfade_linalg::CMatrix;
use corrfade_specfun::bessel_j0;

use crate::covariance::{covariance_matrix_equal_power, CovarianceBuildError, QuadCovariance};

/// Speed of light in m/s, used to derive the maximum Doppler frequency from
/// carrier frequency and mobile speed.
pub(crate) const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Maximum Doppler frequency `F_m = v·f_c/c` for a mobile speed `v` (m/s) and
/// carrier frequency `f_c` (Hz).
pub(crate) fn max_doppler_frequency(mobile_speed_mps: f64, carrier_freq_hz: f64) -> f64 {
    assert!(
        mobile_speed_mps >= 0.0 && carrier_freq_hz > 0.0,
        "invalid Doppler parameters"
    );
    mobile_speed_mps * carrier_freq_hz / SPEED_OF_LIGHT
}

/// Jakes spectral-correlation model for equal-power processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JakesSpectralModel {
    /// Common power `σ²` of the complex Gaussian processes.
    pub sigma_sq: f64,
    /// Maximum Doppler frequency `F_m` in Hz.
    pub max_doppler_hz: f64,
    /// RMS delay spread `σ_τ` of the channel in seconds.
    pub rms_delay_spread_s: f64,
}

impl JakesSpectralModel {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics if any parameter is negative or the power is non-positive.
    pub fn new(sigma_sq: f64, max_doppler_hz: f64, rms_delay_spread_s: f64) -> Self {
        assert!(sigma_sq > 0.0, "power must be positive, got {sigma_sq}");
        assert!(
            max_doppler_hz >= 0.0,
            "Doppler frequency must be non-negative"
        );
        assert!(
            rms_delay_spread_s >= 0.0,
            "delay spread must be non-negative"
        );
        Self {
            sigma_sq,
            max_doppler_hz,
            rms_delay_spread_s,
        }
    }

    /// The covariance quadruple (Eq. 3–4) for a frequency separation
    /// `delta_f_hz = f_k − f_j` and arrival-time delay `tau_s = τ_{k,j}`.
    pub fn covariances(&self, delta_f_hz: f64, tau_s: f64) -> QuadCovariance {
        let delta_omega = 2.0 * core::f64::consts::PI * delta_f_hz;
        let dws = delta_omega * self.rms_delay_spread_s;
        let rxx = self.sigma_sq
            * bessel_j0(2.0 * core::f64::consts::PI * self.max_doppler_hz * tau_s)
            / (2.0 * (1.0 + dws * dws));
        let rxy = -dws * rxx;
        QuadCovariance::symmetric(rxx, rxy)
    }

    /// The complex covariance `µ_{k,j}` for a frequency separation and delay,
    /// i.e. the off-diagonal entry of Eq. (13) under this model.
    pub fn complex_covariance(&self, delta_f_hz: f64, tau_s: f64) -> corrfade_linalg::Complex64 {
        self.covariances(delta_f_hz, tau_s).complex_covariance()
    }

    /// Builds the full `N × N` covariance matrix (Eq. 12–13) for processes at
    /// the given carrier frequencies and with the given pairwise arrival
    /// delays (`delays_s[k][j] = τ_{k,j}`, only the `k < j` entries are
    /// read).
    ///
    /// # Errors
    /// Propagates [`CovarianceBuildError`] from the builder.
    ///
    /// # Panics
    /// Panics if `delays_s` is not an `N × N` table.
    pub fn covariance_matrix(
        &self,
        frequencies_hz: &[f64],
        delays_s: &[Vec<f64>],
    ) -> Result<CMatrix, CovarianceBuildError> {
        let n = frequencies_hz.len();
        assert_eq!(delays_s.len(), n, "delay table must be N×N");
        for row in delays_s {
            assert_eq!(row.len(), n, "delay table must be N×N");
        }
        covariance_matrix_equal_power(n, self.sigma_sq, |k, j| {
            self.covariances(frequencies_hz[k] - frequencies_hz[j], delays_s[k][j])
        })
    }
}

/// Builds a pairwise delay table from per-process arrival times:
/// `τ_{k,j} = t_j − t_k` is the additional delay of process `j` relative to
/// process `k` (the sign only affects `J₀`, which is even, so either
/// convention yields the same covariances).
pub fn pairwise_delays_from_arrival_times(arrival_times_s: &[f64]) -> Vec<Vec<f64>> {
    let n = arrival_times_s.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|j| (arrival_times_s[j] - arrival_times_s[k]).abs())
                .collect()
        })
        .collect()
}

/// The exact parameter set of the paper's first experiment (Sec. 6):
/// `N = 3`, `σ_g² = 1`, `F_s = 1 kHz`, `F_m = 50 Hz`, adjacent carrier
/// spacing 200 kHz with `f₁ > f₂ > f₃`, `σ_τ = 1 µs`, and pairwise delays
/// `τ₁,₂ = 1 ms`, `τ₂,₃ = 3 ms`, `τ₁,₃ = 4 ms`. Returns the model, the
/// carrier-frequency list (offsets around an arbitrary centre) and the delay
/// table, ready for [`JakesSpectralModel::covariance_matrix`].
pub fn paper_spectral_scenario() -> (JakesSpectralModel, Vec<f64>, Vec<Vec<f64>>) {
    let model = JakesSpectralModel::new(1.0, 50.0, 1e-6);
    // Only frequency *differences* matter; use offsets 400, 200, 0 kHz so
    // that f1 > f2 > f3 with 200 kHz adjacent spacing.
    let frequencies = vec![400e3, 200e3, 0.0];
    // Pairwise delays exactly as given in the paper.
    let delays = vec![
        vec![0.0, 1e-3, 4e-3],
        vec![1e-3, 0.0, 3e-3],
        vec![4e-3, 3e-3, 0.0],
    ];
    (model, frequencies, delays)
}

/// The desired covariance matrix the paper reports for the spectral scenario
/// (Eq. 22), for comparison in tests and experiments.
pub fn paper_covariance_matrix_22() -> CMatrix {
    use corrfade_linalg::c64;
    CMatrix::from_rows(&[
        vec![c64(1.0, 0.0), c64(0.3782, 0.4753), c64(0.0878, 0.2207)],
        vec![c64(0.3782, -0.4753), c64(1.0, 0.0), c64(0.3063, 0.3849)],
        vec![c64(0.0878, -0.2207), c64(0.3063, -0.3849), c64(1.0, 0.0)],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doppler_frequency_helper() {
        // 900 MHz carrier, 60 km/h ≈ 16.67 m/s → Fm ≈ 50 Hz (paper's setup).
        let fm = max_doppler_frequency(60.0 / 3.6, 900e6);
        assert!((fm - 50.0).abs() < 0.1, "Fm = {fm}");
    }

    #[test]
    fn zero_separation_zero_delay_gives_half_power_per_dimension() {
        let m = JakesSpectralModel::new(2.0, 50.0, 1e-6);
        let q = m.covariances(0.0, 0.0);
        // Rxx = σ²/2, Rxy = 0 → µ = σ².
        assert!((q.rxx - 1.0).abs() < 1e-12);
        assert!(q.rxy.abs() < 1e-15);
        assert!(m
            .complex_covariance(0.0, 0.0)
            .approx_eq(corrfade_linalg::c64(2.0, 0.0), 1e-12));
    }

    #[test]
    fn covariance_decays_with_frequency_separation() {
        let m = JakesSpectralModel::new(1.0, 50.0, 1e-6);
        let c0 = m.complex_covariance(0.0, 0.0).abs();
        let c1 = m.complex_covariance(200e3, 0.0).abs();
        let c2 = m.complex_covariance(400e3, 0.0).abs();
        assert!(c0 > c1 && c1 > c2, "covariance must decay: {c0} {c1} {c2}");
    }

    #[test]
    fn covariance_oscillates_with_delay_via_bessel() {
        let m = JakesSpectralModel::new(1.0, 50.0, 0.0);
        // With zero delay spread, µ = σ² J0(2π Fm τ); the first zero of J0 is
        // at 2.4048, i.e. τ ≈ 7.65 ms for Fm = 50 Hz.
        let tau_zero = 2.404825557695773 / (2.0 * core::f64::consts::PI * 50.0);
        assert!(m.complex_covariance(0.0, tau_zero).abs() < 1e-9);
        assert!(m.complex_covariance(0.0, tau_zero * 1.8).re < 0.0);
    }

    #[test]
    fn reproduces_paper_equation_22() {
        // The headline check of experiment E1: our Eq. (3)-(4)+(12)-(13)
        // implementation must reproduce the covariance matrix the paper
        // prints, to the 4 decimal places the paper reports.
        let (model, freqs, delays) = paper_spectral_scenario();
        let k = model.covariance_matrix(&freqs, &delays).unwrap();
        let expected = paper_covariance_matrix_22();
        assert!(
            k.max_abs_diff(&expected) < 5e-4,
            "computed covariance deviates from the paper's Eq. (22):\n{k:?}\nvs\n{expected:?}"
        );
        assert!(k.is_hermitian(1e-12));
    }

    #[test]
    fn eq22_is_positive_definite_as_the_paper_states() {
        let (model, freqs, delays) = paper_spectral_scenario();
        let k = model.covariance_matrix(&freqs, &delays).unwrap();
        assert!(corrfade_linalg::is_positive_definite(&k));
    }

    #[test]
    fn arrival_time_helper_is_symmetric_and_consistent() {
        let d = pairwise_delays_from_arrival_times(&[0.0, 1e-3, 4e-3]);
        assert_eq!(d[0][1], 1e-3);
        assert_eq!(d[1][2], 3e-3);
        assert_eq!(d[0][2], 4e-3);
        assert_eq!(d[2][0], d[0][2]);
        assert_eq!(d[1][1], 0.0);
    }

    #[test]
    fn covariance_matrix_from_arrival_times_matches_paper_delays() {
        let (model, freqs, _) = paper_spectral_scenario();
        let delays = pairwise_delays_from_arrival_times(&[0.0, 1e-3, 4e-3]);
        let k = model.covariance_matrix(&freqs, &delays).unwrap();
        assert!(k.max_abs_diff(&paper_covariance_matrix_22()) < 5e-4);
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn non_positive_power_rejected() {
        let _ = JakesSpectralModel::new(0.0, 50.0, 1e-6);
    }

    #[test]
    #[should_panic(expected = "N×N")]
    fn ragged_delay_table_rejected() {
        let m = JakesSpectralModel::new(1.0, 50.0, 1e-6);
        let _ = m.covariance_matrix(&[0.0, 1.0], &[vec![0.0, 1.0]]);
    }
}
