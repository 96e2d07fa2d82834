//! Physical channel / radio parameters and derived quantities.
//!
//! The paper's experiments are specified in physical units (GSM 900 carrier,
//! 60 km/h mobile, 1 kHz sampling, 200 kHz carrier spacing, 1 µs delay
//! spread). This module holds those parameters in one place and derives the
//! normalized quantities the algorithms actually consume (`F_m`, `f_m = F_m/F_s`,
//! `k_m = ⌊f_m·M⌋`).

use crate::jakes::{max_doppler_frequency, SPEED_OF_LIGHT};

/// Radio / mobility parameters describing one fading scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChannelParams {
    /// Carrier frequency `f_c` in Hz.
    pub carrier_freq_hz: f64,
    /// Mobile speed `v` in m/s.
    pub mobile_speed_mps: f64,
    /// Sampling frequency `F_s` of the transmitted signal in Hz.
    pub sampling_freq_hz: f64,
    /// RMS delay spread `σ_τ` of the channel in seconds.
    pub rms_delay_spread_s: f64,
}

impl ChannelParams {
    /// The parameter set used throughout the paper's Sec. 6 experiments:
    /// GSM 900 (900 MHz), 60 km/h, `F_s` = 1 kHz, `σ_τ` = 1 µs
    /// (giving `F_m ≈ 50 Hz`, `f_m = 0.05`).
    pub fn paper_defaults() -> Self {
        Self {
            carrier_freq_hz: 900e6,
            mobile_speed_mps: 60.0 / 3.6,
            sampling_freq_hz: 1e3,
            rms_delay_spread_s: 1e-6,
        }
    }

    /// Maximum Doppler frequency `F_m = v·f_c/c` in Hz.
    pub fn max_doppler_hz(&self) -> f64 {
        max_doppler_frequency(self.mobile_speed_mps, self.carrier_freq_hz)
    }

    /// Normalized maximum Doppler frequency `f_m = F_m / F_s`.
    pub fn normalized_doppler(&self) -> f64 {
        self.max_doppler_hz() / self.sampling_freq_hz
    }

    /// Carrier wavelength `λ = c / f_c` in metres.
    pub fn wavelength_m(&self) -> f64 {
        SPEED_OF_LIGHT / self.carrier_freq_hz
    }

    /// The Doppler band-edge index `k_m = ⌊f_m·M⌋` for an `M`-point IDFT.
    pub fn doppler_band_edge(&self, m: usize) -> usize {
        (self.normalized_doppler() * m as f64).floor() as usize
    }
}

impl Default for ChannelParams {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_the_reported_derived_values() {
        let p = ChannelParams::paper_defaults();
        // The paper: Fm = 50 Hz, fm = 0.05, km = 204 at M = 4096.
        assert!((p.max_doppler_hz() - 50.0).abs() < 0.1);
        assert!((p.normalized_doppler() - 0.05).abs() < 1e-4);
        assert_eq!(p.doppler_band_edge(4096), 204);
        // GSM 900 wavelength ≈ 33.3 cm (paper: D = 33.3 cm for D/λ = 1).
        assert!((p.wavelength_m() - 0.333).abs() < 1e-3);
    }

    #[test]
    fn default_is_paper_defaults() {
        assert_eq!(ChannelParams::default(), ChannelParams::paper_defaults());
    }
}
