//! # corrfade-scenarios
//!
//! A declarative, named registry of channel scenarios for the `corrfade`
//! workspace.
//!
//! The paper's experiments each pin a concrete channel operating point —
//! carrier frequency, mobile speed, array geometry, correlation family.
//! Instead of hard-coding those constructors inside every experiment binary,
//! bench and example, this crate captures each operating point as a
//! [`Scenario`]: a plain-data description of the physical channel
//! ([`corrfade_models::ChannelParams`]), the envelope count, the covariance
//! family ([`CovarianceSpec`]), the power profile ([`PowerProfile`]) and the
//! real-time Doppler settings ([`DopplerSettings`]).
//!
//! Scenarios are registered under stable kebab-case names (the two paper
//! scenarios `fig4a-spectral` / `fig4b-spatial` plus extended stress cases
//! such as `near-singular-eps1e6` and `indefinite-rho09`) and resolved with
//! [`lookup`]; [`iter`] walks the whole catalog. The bridge into the
//! generator stack is [`Scenario::to_builder`], which returns a
//! pre-configured [`corrfade::GeneratorBuilder`].
//!
//! Selecting scenarios by name composes with the zero-allocation streaming
//! API: [`Scenario::stream`] opens a named scenario as a boxed
//! [`corrfade::ChannelStream`] whose blocks are written into caller-owned
//! planar [`corrfade::SampleBlock`] buffers — a request can name its
//! scenario instead of shipping a covariance matrix, and the service layer
//! can pool one block per connection.
//!
//! # Examples
//!
//! Resolve a paper scenario and generate from it:
//!
//! ```
//! use corrfade_scenarios::lookup;
//!
//! let scenario = lookup("fig4b-spatial").unwrap();
//! assert_eq!(scenario.envelopes, 3);
//!
//! // Single-instant mode (paper Sec. 4.4).
//! let mut gen = scenario.build(7).unwrap();
//! assert_eq!(gen.sample().envelopes.len(), 3);
//!
//! // Real-time Doppler mode (paper Sec. 5) with the scenario's settings.
//! let mut rt = scenario.build_realtime(7).unwrap();
//! assert_eq!(rt.block_len(), 4096);
//! ```
//!
//! Stream a named scenario through the zero-allocation block API:
//!
//! ```
//! use corrfade::{ChannelStream, SampleBlock};
//! use corrfade_scenarios::lookup;
//!
//! let mut stream = lookup("fig4a-spectral").unwrap().stream(7).unwrap();
//! let mut block = SampleBlock::empty();
//! for _ in 0..2 {
//!     // After the first call has sized `block`, subsequent calls reuse it
//!     // without any heap allocation.
//!     stream.next_block_into(&mut block).unwrap();
//! }
//! assert_eq!(block.envelopes(), 3);
//! assert_eq!(block.samples(), 4096);
//! ```
//!
//! Unknown names are a typed error, not a panic:
//!
//! ```
//! use corrfade_scenarios::{lookup, ScenarioError};
//!
//! let err = lookup("no-such-scenario").unwrap_err();
//! assert!(matches!(err, ScenarioError::UnknownScenario { .. }));
//! ```
//!
//! Customize a registered scenario through the builder bridge:
//!
//! ```
//! use corrfade_scenarios::lookup;
//!
//! let mut gen = lookup("fig4a-spectral")
//!     .unwrap()
//!     .to_builder()
//!     .envelope_powers(&[0.5, 1.0, 2.0])
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! assert!((gen.desired_covariance()[(2, 2)].re - 2.0 / 0.2146).abs() < 0.1);
//! ```

#![warn(missing_docs)]

mod error;
mod families;
mod generated;
mod registry;
mod scenario;

pub use error::ScenarioError;
pub use registry::{iter, lookup, names, REGISTRY};
pub use scenario::{CovarianceSpec, DopplerSettings, PowerProfile, Provenance, Scenario};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PAPER_CHANNEL;
    use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};

    /// The satellite acceptance test: every registered scenario bridges into
    /// a generator that actually builds.
    #[test]
    fn every_registered_scenario_builds_a_valid_generator() {
        for s in iter() {
            let gen = s.to_builder().seed(1).build();
            assert!(
                gen.is_ok(),
                "scenario `{}` failed to build: {gen:?}",
                s.name
            );
            assert_eq!(
                gen.unwrap().dimension(),
                s.envelopes,
                "scenario `{}` dimension mismatch",
                s.name
            );
        }
    }

    #[test]
    fn every_registered_scenario_builds_a_realtime_generator() {
        for s in iter() {
            let gen = s.build_realtime(1);
            assert!(
                gen.is_ok(),
                "scenario `{}` failed to build in real-time mode: {gen:?}",
                s.name
            );
        }
    }

    #[test]
    fn every_registered_scenario_streams_both_modes() {
        use corrfade::{ChannelStream, SampleBlock};
        let mut block = SampleBlock::empty();
        for s in iter() {
            let mut rt = s.stream(1).unwrap();
            rt.next_block_into(&mut block).unwrap();
            assert_eq!(block.envelopes(), s.envelopes, "scenario `{}`", s.name);
            assert_eq!(
                block.samples(),
                s.doppler.idft_size,
                "scenario `{}`",
                s.name
            );
            let mut si = s.stream_snapshots(1).unwrap();
            si.next_block_into(&mut block).unwrap();
            assert_eq!(block.envelopes(), s.envelopes, "scenario `{}`", s.name);
            assert_eq!(block.samples(), si.block_len(), "scenario `{}`", s.name);
        }
    }

    #[test]
    fn paper_scenarios_reproduce_the_reported_matrices() {
        let k22 = lookup("fig4a-spectral")
            .unwrap()
            .covariance_matrix()
            .unwrap();
        assert!(k22.max_abs_diff(&paper_covariance_matrix_22()) < 5e-4);

        let k23 = lookup("fig4b-spatial")
            .unwrap()
            .covariance_matrix()
            .unwrap();
        assert!(k23.max_abs_diff(&paper_covariance_matrix_23()) < 5e-4);
    }

    #[test]
    fn paper_channel_derives_the_reported_doppler_quantities() {
        assert!((PAPER_CHANNEL.max_doppler_hz() - 50.0).abs() < 0.1);
        assert!((PAPER_CHANNEL.normalized_doppler() - 0.05).abs() < 1e-4);
        assert_eq!(PAPER_CHANNEL.doppler_band_edge(4096), 204);
    }

    #[test]
    fn stress_scenarios_are_forced_psd_but_still_build() {
        for name in ["indefinite-rho08", "indefinite-rho09"] {
            let gen = lookup(name).unwrap().build(3).unwrap();
            assert!(
                gen.coloring().psd.clipped_count > 0,
                "scenario `{name}` should need eigenvalue clipping"
            );
        }
    }
}
