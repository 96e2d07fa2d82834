//! The declarative [`Scenario`] description and its bridge into the
//! [`corrfade::GeneratorBuilder`].

use corrfade::{
    ChannelStream, CorrelatedRayleighGenerator, GeneratorBuilder, Precision, RealtimeConfig,
    RealtimeGenerator,
};
use corrfade_linalg::{c64, CMatrix};
use corrfade_models::{
    pairwise_delays_from_arrival_times, ChannelParams, JakesSpectralModel, SalzWintersSpatialModel,
};

use crate::error::ScenarioError;
use crate::families;

/// Where a registered scenario comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Defined in the source paper; the string names the equation, figure
    /// and/or Sec. 6 experiment it reproduces (e.g. `"Eq. (22), Fig. 4(a)"`).
    Paper(&'static str),
    /// An extension beyond the paper; the string names the experiment or
    /// bench that motivates it (e.g. `"E7 PSD-forcing ablation"`).
    Extended(&'static str),
}

impl Provenance {
    /// The human-readable reference string, regardless of origin.
    pub fn reference(&self) -> &'static str {
        match self {
            Provenance::Paper(s) | Provenance::Extended(s) => s,
        }
    }
}

/// How the per-envelope powers of a scenario are specified.
///
/// The profile is applied on top of the correlation *structure* produced by
/// the scenario's [`CovarianceSpec`] — see
/// [`GeneratorBuilder::gaussian_powers`] and
/// [`GeneratorBuilder::envelope_powers`] for the rescaling semantics and the
/// paper's Eq. (11) for the envelope → Gaussian power conversion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerProfile {
    /// Keep whatever powers the covariance family itself puts on the
    /// diagonal (most families produce unit powers; the
    /// unequal-power-exponential family produces a geometric profile).
    Intrinsic,
    /// Per-envelope Gaussian powers `σ_g²_j`; the length must equal the
    /// scenario's envelope count.
    Gaussian(&'static [f64]),
    /// Per-envelope Rayleigh-envelope powers `σ_r²_j`, converted to Gaussian
    /// powers through the paper's Eq. (11); the length must equal the
    /// scenario's envelope count.
    Envelope(&'static [f64]),
}

/// The declarative description of where a scenario's desired covariance
/// matrix **K** comes from.
///
/// Physical families (`Spectral`, `Spatial`) go through the corresponding
/// correlation model in `corrfade-models`; synthetic families go through the
/// crate's closed-form family generators; `Explicit` carries the matrix entries
/// verbatim (row-major `(re, im)` pairs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CovarianceSpec {
    /// Jakes spectral (OFDM-style) correlation — paper Eq. (3)–(4) — between
    /// carriers at the given frequency offsets, with pairwise delays derived
    /// from the per-carrier arrival times. The envelope count is the number
    /// of carriers.
    Spectral {
        /// Maximum Doppler frequency `F_m` in Hz fed to the model. Pinned
        /// here (rather than derived from [`Scenario::channel`]) so paper
        /// scenarios reproduce the rounded value the paper prints.
        max_doppler_hz: f64,
        /// RMS delay spread `σ_τ` of the channel in seconds.
        rms_delay_spread_s: f64,
        /// Carrier-frequency offsets in Hz (only differences matter).
        carrier_offsets_hz: &'static [f64],
        /// Per-carrier signal arrival times in seconds; pairwise delays are
        /// `|t_j − t_k|`.
        arrival_times_s: &'static [f64],
    },
    /// Salz–Winters spatial correlation — paper Eq. (5)–(7) — across a
    /// uniform linear array; the envelope count is the antenna count.
    Spatial {
        /// Antenna spacing `D/λ` in carrier wavelengths.
        spacing_wavelengths: f64,
        /// Mean angle of arrival `Φ` in radians (0 = broadside).
        mean_arrival_rad: f64,
        /// Angular spread `Δ` of the arriving scatter in radians.
        angular_spread_rad: f64,
    },
    /// Real exponential correlation `ρ^{|k−j|}`.
    Exponential {
        /// Adjacent-envelope correlation coefficient in `[0, 1)`.
        rho: f64,
    },
    /// Complex exponential correlation with a phase ramp.
    ComplexExponential {
        /// Adjacent-envelope correlation magnitude in `[0, 1)`.
        rho: f64,
        /// Phase increment per index difference in radians.
        theta: f64,
    },
    /// Exponential correlation with a geometric power profile.
    UnequalPowerExponential {
        /// Adjacent-envelope correlation coefficient in `[0, 1)`.
        rho: f64,
        /// Geometric power ratio: envelope `j` has power `base^j`.
        base: f64,
    },
    /// A deliberately indefinite (non-PSD) target that exercises the paper's
    /// Sec. 4.2 eigenvalue clipping.
    Indefinite {
        /// Correlation strength; the matrix is indefinite for `rho ≥ 0.6`.
        rho: f64,
    },
    /// A nearly-singular positive-definite target.
    NearSingular {
        /// Approximate smallest eigenvalue of the matrix.
        eps: f64,
    },
    /// Two equal-power envelopes with a complex correlation coefficient.
    TwoEnvelopeComplex {
        /// Common Gaussian power `σ_g²`.
        sigma_sq: f64,
        /// Real part of the correlation coefficient.
        rho_re: f64,
        /// Imaginary part of the correlation coefficient.
        rho_im: f64,
    },
    /// An explicit matrix, stored row-major as `(re, im)` pairs; the length
    /// must equal the squared envelope count.
    Explicit {
        /// Row-major matrix entries.
        entries: &'static [(f64, f64)],
    },
}

impl CovarianceSpec {
    /// The envelope count this spec natively describes, when it is fixed:
    /// `Spectral` is pinned to its carrier list, `TwoEnvelopeComplex` to
    /// two envelopes, `Explicit` to the side length of its entry table.
    /// Parametric families (`Spatial` and the synthetic families) return
    /// `None` — they build at whatever size
    /// [`Scenario::with_envelopes`] requests.
    pub fn native_envelopes(&self) -> Option<usize> {
        match self {
            CovarianceSpec::Spectral {
                carrier_offsets_hz, ..
            } => Some(carrier_offsets_hz.len()),
            CovarianceSpec::TwoEnvelopeComplex { .. } => Some(2),
            CovarianceSpec::Explicit { entries } => {
                Some((entries.len() as f64).sqrt().round() as usize)
            }
            _ => None,
        }
    }
}

/// Real-time (Doppler) generation settings of a scenario — the inputs of the
/// paper's Sec. 5 algorithm besides the covariance matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DopplerSettings {
    /// IDFT length `M` (samples per generated block).
    pub idft_size: usize,
    /// Normalized maximum Doppler frequency `f_m = F_m/F_s`. Pinned rather
    /// than derived from [`Scenario::channel`] so paper scenarios use the
    /// rounded `0.05` the paper prints.
    pub normalized_doppler: f64,
    /// Variance `σ²_orig` of the Gaussian sequences feeding the Doppler
    /// filter; the output statistics are invariant to it.
    pub sigma_orig_sq: f64,
}

impl DopplerSettings {
    /// The paper's Sec. 6 settings: `M = 4096`, `f_m = 0.05`,
    /// `σ²_orig = 1/2`.
    pub const PAPER: Self = Self {
        idft_size: 4096,
        normalized_doppler: 0.05,
        sigma_orig_sq: 0.5,
    };
}

/// One named, fully-declarative channel scenario.
///
/// A scenario captures everything the workspace needs to reproduce a
/// generation experiment: the physical channel ([`ChannelParams`]: carrier,
/// mobile speed, sampling rate, delay spread), the envelope count, the
/// desired covariance structure ([`CovarianceSpec`]), the power profile
/// ([`PowerProfile`]) and the real-time Doppler settings
/// ([`DopplerSettings`]). Scenarios are registered by name in
/// the [`REGISTRY`](crate::REGISTRY) and resolved with [`crate::lookup`].
///
/// The bridge into the generator stack is [`Scenario::to_builder`], which
/// returns a pre-configured [`GeneratorBuilder`]; [`Scenario::build`] and
/// [`Scenario::build_realtime`] are one-call shortcuts for the two operating
/// modes.
///
/// # Examples
///
/// ```
/// let scenario = corrfade_scenarios::lookup("fig4b-spatial").unwrap();
/// let mut gen = scenario.build(7).unwrap();
/// let sample = gen.sample();
/// assert_eq!(sample.envelopes.len(), scenario.envelopes);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Unique registry name (kebab-case, e.g. `"fig4a-spectral"`).
    pub name: &'static str,
    /// One-line human-readable title.
    pub title: &'static str,
    /// Paper or extension provenance.
    pub provenance: Provenance,
    /// What the scenario models and which experiments use it.
    pub description: &'static str,
    /// Physical channel parameters (carrier frequency, mobile speed,
    /// sampling frequency, delay spread). For synthetic families these are
    /// descriptive context only; for physical families they are the source
    /// of the derived Doppler quantities.
    pub channel: ChannelParams,
    /// Number of Rayleigh envelopes `N` (carriers / antennas / processes).
    pub envelopes: usize,
    /// Per-envelope power profile applied on top of the covariance family.
    pub powers: PowerProfile,
    /// Declarative source of the desired covariance matrix **K**.
    pub covariance: CovarianceSpec,
    /// Real-time (Doppler) mode settings.
    pub doppler: DopplerSettings,
}

impl Scenario {
    /// Returns a copy of the scenario resized to `n` envelopes.
    ///
    /// Only scenarios whose [`CovarianceSpec`] is parametric in the envelope
    /// count (`Spatial` and the synthetic families,
    /// [`CovarianceSpec::native_envelopes`] = `None`) can be meaningfully
    /// resized; this is how the scaling experiments sweep `N` while still
    /// resolving the family from the registry. Resizing a fixed-size
    /// scenario (`Spectral`, `TwoEnvelopeComplex`, `Explicit`) makes
    /// [`Scenario::covariance_matrix`], [`Scenario::build`] and the other
    /// checked constructors return
    /// [`ScenarioError::DimensionMismatch`].
    ///
    /// ```
    /// let scenario = corrfade_scenarios::lookup("scaling-exp-rho07")
    ///     .unwrap()
    ///     .with_envelopes(32);
    /// assert_eq!(scenario.covariance_matrix().unwrap().rows(), 32);
    ///
    /// // Fixed-size scenarios refuse to resize with a typed error.
    /// let err = corrfade_scenarios::lookup("fig4a-spectral")
    ///     .unwrap()
    ///     .with_envelopes(8)
    ///     .build(1)
    ///     .unwrap_err();
    /// assert!(matches!(
    ///     err,
    ///     corrfade_scenarios::ScenarioError::DimensionMismatch { native: 3, .. }
    /// ));
    /// ```
    pub fn with_envelopes(mut self, n: usize) -> Self {
        self.envelopes = n;
        self
    }

    /// Checks that [`Scenario::envelopes`] is realizable by the covariance
    /// family (fixed-size specs cannot be resized).
    fn check_dimension(&self) -> Result<(), ScenarioError> {
        match self.covariance.native_envelopes() {
            Some(native) if native != self.envelopes => Err(ScenarioError::DimensionMismatch {
                name: self.name,
                requested: self.envelopes,
                native,
            }),
            _ => Ok(()),
        }
    }

    /// Bridges the declarative description into a pre-configured
    /// [`GeneratorBuilder`] (covariance source and power profile set; seed
    /// and driving variance left at the builder defaults).
    ///
    /// Fixed-size covariance families always bridge at their native
    /// dimension; use the checked constructors ([`Scenario::build`],
    /// [`Scenario::covariance_matrix`], …) to have an inconsistent
    /// [`Scenario::envelopes`] reported as a typed error instead.
    ///
    /// ```
    /// let scenario = corrfade_scenarios::lookup("fig4a-spectral").unwrap();
    /// let mut gen = scenario.to_builder().seed(42).build().unwrap();
    /// assert_eq!(gen.sample().envelopes.len(), 3);
    /// ```
    pub fn to_builder(&self) -> GeneratorBuilder {
        let builder = GeneratorBuilder::new();
        let builder = match self.covariance {
            CovarianceSpec::Spectral {
                max_doppler_hz,
                rms_delay_spread_s,
                carrier_offsets_hz,
                arrival_times_s,
            } => builder.spectral_scenario(
                JakesSpectralModel::new(1.0, max_doppler_hz, rms_delay_spread_s),
                carrier_offsets_hz.to_vec(),
                pairwise_delays_from_arrival_times(arrival_times_s),
            ),
            CovarianceSpec::Spatial {
                spacing_wavelengths,
                mean_arrival_rad,
                angular_spread_rad,
            } => builder.spatial_scenario(
                SalzWintersSpatialModel::new(
                    1.0,
                    spacing_wavelengths,
                    mean_arrival_rad,
                    angular_spread_rad,
                ),
                self.envelopes,
            ),
            CovarianceSpec::Exponential { rho } => {
                builder.covariance(families::exponential_correlation(self.envelopes, rho))
            }
            CovarianceSpec::ComplexExponential { rho, theta } => builder.covariance(
                families::complex_exponential_correlation(self.envelopes, rho, theta),
            ),
            CovarianceSpec::UnequalPowerExponential { rho, base } => builder.covariance(
                families::unequal_power_exponential(self.envelopes, rho, base),
            ),
            CovarianceSpec::Indefinite { rho } => {
                builder.covariance(families::indefinite_correlation(self.envelopes, rho))
            }
            CovarianceSpec::NearSingular { eps } => {
                builder.covariance(families::near_singular_correlation(self.envelopes, eps))
            }
            CovarianceSpec::TwoEnvelopeComplex {
                sigma_sq,
                rho_re,
                rho_im,
            } => builder.covariance(families::two_envelope_complex(sigma_sq, rho_re, rho_im)),
            CovarianceSpec::Explicit { entries } => {
                let n = (entries.len() as f64).sqrt().round() as usize;
                builder.covariance(CMatrix::from_fn(n, n, |i, j| {
                    let (re, im) = entries[i * n + j];
                    c64(re, im)
                }))
            }
        };
        match self.powers {
            PowerProfile::Intrinsic => builder,
            PowerProfile::Gaussian(p) => builder.gaussian_powers(p),
            PowerProfile::Envelope(p) => builder.envelope_powers(p),
        }
    }

    /// Resolves the desired covariance matrix **K** of the scenario (power
    /// profile applied). Non-PSD families return the matrix *before* the
    /// algorithm's PSD forcing — the infeasible target the generator is
    /// asked for.
    ///
    /// # Errors
    /// [`ScenarioError::DimensionMismatch`] if a fixed-size scenario was
    /// resized; [`ScenarioError::Core`] if the generator stack rejects the
    /// configuration.
    pub fn covariance_matrix(&self) -> Result<CMatrix, ScenarioError> {
        self.check_dimension()?;
        Ok(self.to_builder().resolve_covariance()?)
    }

    /// Builds the single-instant generator (paper Sec. 4.4) for this
    /// scenario with the given RNG seed.
    ///
    /// # Errors
    /// See [`Scenario::covariance_matrix`].
    pub fn build(&self, seed: u64) -> Result<CorrelatedRayleighGenerator, ScenarioError> {
        self.check_dimension()?;
        Ok(self.to_builder().seed(seed).build()?)
    }

    /// The real-time generator configuration (paper Sec. 5) of this
    /// scenario: its covariance matrix combined with its
    /// [`DopplerSettings`].
    ///
    /// # Errors
    /// See [`Scenario::covariance_matrix`].
    pub fn realtime_config(&self, seed: u64) -> Result<RealtimeConfig, ScenarioError> {
        Ok(RealtimeConfig {
            covariance: self.covariance_matrix()?,
            idft_size: self.doppler.idft_size,
            normalized_doppler: self.doppler.normalized_doppler,
            sigma_orig_sq: self.doppler.sigma_orig_sq,
            seed,
            precision: Precision::F64,
        })
    }

    /// Builds the real-time Doppler generator (paper Sec. 5) for this
    /// scenario with the given RNG seed.
    ///
    /// # Errors
    /// See [`Scenario::covariance_matrix`].
    pub fn build_realtime(&self, seed: u64) -> Result<RealtimeGenerator, ScenarioError> {
        Ok(RealtimeGenerator::new(self.realtime_config(seed)?)?)
    }

    /// Like [`Scenario::build_realtime`], but resolves the eigen-coloring
    /// through the process-wide decomposition cache
    /// ([`corrfade::cached_eigen_coloring`]): the first open of a given
    /// covariance matrix pays for the decomposition, every later open of
    /// *any* scenario with the same matrix — another stream of a fleet, a
    /// reconnecting client — shares it. The produced generator is
    /// bit-identical to the uncached [`Scenario::build_realtime`] path.
    ///
    /// # Errors
    /// See [`Scenario::covariance_matrix`].
    pub fn build_realtime_cached(&self, seed: u64) -> Result<RealtimeGenerator, ScenarioError> {
        let config = self.realtime_config(seed)?;
        let coloring = corrfade::cached_eigen_coloring(&config.covariance)?;
        Ok(RealtimeGenerator::from_coloring(coloring, config)?)
    }

    /// Opens this scenario as a boxed [`ChannelStream`] in real-time
    /// (Doppler) mode — the convenience entry point for services that
    /// resolve a channel simulation by name and stream blocks from it:
    ///
    /// ```
    /// use corrfade::{ChannelStream, SampleBlock};
    ///
    /// let scenario = corrfade_scenarios::lookup("fig4b-spatial").unwrap();
    /// let mut stream = scenario.stream(7).unwrap();
    /// let mut block = SampleBlock::empty();
    /// stream.next_block_into(&mut block).unwrap();
    /// assert_eq!(block.envelopes(), scenario.envelopes);
    /// assert_eq!(block.samples(), scenario.doppler.idft_size);
    /// // Reusing `block` for subsequent calls performs no heap allocation.
    /// stream.next_block_into(&mut block).unwrap();
    /// ```
    ///
    /// # Errors
    /// See [`Scenario::covariance_matrix`].
    pub fn stream(&self, seed: u64) -> Result<Box<dyn ChannelStream>, ScenarioError> {
        Ok(Box::new(self.build_realtime(seed)?))
    }

    /// Opens this scenario as a boxed [`ChannelStream`] in single-instant
    /// mode (paper Sec. 4.4): each block batches independent snapshots.
    ///
    /// # Errors
    /// See [`Scenario::covariance_matrix`].
    pub fn stream_snapshots(&self, seed: u64) -> Result<Box<dyn ChannelStream>, ScenarioError> {
        Ok(Box::new(self.build(seed)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_CHANNEL: ChannelParams = ChannelParams {
        carrier_freq_hz: 900e6,
        mobile_speed_mps: 60.0 / 3.6,
        sampling_freq_hz: 1e3,
        rms_delay_spread_s: 1e-6,
    };

    fn demo(covariance: CovarianceSpec, envelopes: usize) -> Scenario {
        Scenario {
            name: "test-demo",
            title: "test scenario",
            provenance: Provenance::Extended("unit test"),
            description: "unit-test scenario",
            channel: PAPER_CHANNEL,
            envelopes,
            powers: PowerProfile::Intrinsic,
            covariance,
            doppler: DopplerSettings::PAPER,
        }
    }

    #[test]
    fn explicit_spec_round_trips_entries() {
        static ENTRIES: [(f64, f64); 4] = [(1.0, 0.0), (0.5, 0.4), (0.5, -0.4), (1.0, 0.0)];
        let s = demo(CovarianceSpec::Explicit { entries: &ENTRIES }, 2);
        let k = s.covariance_matrix().unwrap();
        assert!((k[(0, 1)].re - 0.5).abs() < 1e-15);
        assert!((k[(0, 1)].im - 0.4).abs() < 1e-15);
        assert!((k[(1, 0)].im + 0.4).abs() < 1e-15);
    }

    #[test]
    fn explicit_spec_rejects_dimension_mismatch_with_typed_error() {
        static ENTRIES: [(f64, f64); 4] = [(1.0, 0.0), (0.5, 0.4), (0.5, -0.4), (1.0, 0.0)];
        let s = demo(CovarianceSpec::Explicit { entries: &ENTRIES }, 3);
        assert!(matches!(
            s.covariance_matrix().unwrap_err(),
            ScenarioError::DimensionMismatch {
                requested: 3,
                native: 2,
                ..
            }
        ));
    }

    #[test]
    fn fixed_size_specs_reject_resizing_in_every_checked_constructor() {
        static OFFSETS: [f64; 2] = [200e3, 0.0];
        static ARRIVALS: [f64; 2] = [0.0, 1e-3];
        let s = demo(
            CovarianceSpec::Spectral {
                max_doppler_hz: 50.0,
                rms_delay_spread_s: 1e-6,
                carrier_offsets_hz: &OFFSETS,
                arrival_times_s: &ARRIVALS,
            },
            2,
        );
        assert_eq!(s.covariance_matrix().unwrap().rows(), 2);
        let resized = s.with_envelopes(5);
        for err in [
            resized.covariance_matrix().map(|_| ()).unwrap_err(),
            resized.build(1).map(|_| ()).unwrap_err(),
            resized.realtime_config(1).map(|_| ()).unwrap_err(),
            resized.build_realtime(1).map(|_| ()).unwrap_err(),
        ] {
            assert!(matches!(
                err,
                ScenarioError::DimensionMismatch {
                    requested: 5,
                    native: 2,
                    ..
                }
            ));
        }

        let two = demo(
            CovarianceSpec::TwoEnvelopeComplex {
                sigma_sq: 1.0,
                rho_re: 0.3,
                rho_im: 0.2,
            },
            2,
        )
        .with_envelopes(4);
        assert!(matches!(
            two.build(1).unwrap_err(),
            ScenarioError::DimensionMismatch { native: 2, .. }
        ));
    }

    #[test]
    fn with_envelopes_resizes_parametric_families() {
        let s = demo(CovarianceSpec::Exponential { rho: 0.7 }, 4);
        for n in [2usize, 8, 17] {
            assert_eq!(
                s.with_envelopes(n).covariance_matrix().unwrap().rows(),
                n,
                "n = {n}"
            );
        }
    }

    #[test]
    fn power_profile_is_applied_by_the_bridge() {
        static POWERS: [f64; 3] = [2.0, 0.5, 1.0];
        let mut s = demo(CovarianceSpec::Exponential { rho: 0.5 }, 3);
        s.powers = PowerProfile::Gaussian(&POWERS);
        let k = s.covariance_matrix().unwrap();
        for (i, &p) in POWERS.iter().enumerate() {
            assert!((k[(i, i)].re - p).abs() < 1e-12);
        }
    }

    #[test]
    fn realtime_config_carries_the_doppler_settings() {
        let mut s = demo(CovarianceSpec::Exponential { rho: 0.5 }, 3);
        s.doppler = DopplerSettings {
            idft_size: 2048,
            normalized_doppler: 0.1,
            sigma_orig_sq: 0.25,
        };
        let cfg = s.realtime_config(9).unwrap();
        assert_eq!(cfg.idft_size, 2048);
        assert!((cfg.normalized_doppler - 0.1).abs() < 1e-15);
        assert!((cfg.sigma_orig_sq - 0.25).abs() < 1e-15);
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn cached_realtime_build_is_bit_identical_to_uncached() {
        let s = demo(CovarianceSpec::Exponential { rho: 0.6 }, 3);
        let mut cached = s.build_realtime_cached(11).unwrap();
        let mut fresh = s.build_realtime(11).unwrap();
        assert_eq!(
            cached.next_block().unwrap(),
            fresh.next_block().unwrap(),
            "the decomposition cache must not change the generated values"
        );
    }

    #[test]
    fn cached_realtime_builds_share_one_coloring() {
        // A covariance no other test here decomposes, so no concurrent test
        // holds its coloring.
        let s = demo(CovarianceSpec::Exponential { rho: 0.37 }, 5);
        let k = s.covariance_matrix().unwrap();
        let handle = corrfade::cached_eigen_coloring(&k).unwrap();
        let before = std::sync::Arc::strong_count(&handle);
        let a = s.build_realtime_cached(1).unwrap();
        let b = s.build_realtime_cached(2).unwrap();
        assert_eq!(std::sync::Arc::strong_count(&handle), before + 2);
        assert!(std::ptr::eq(a.coloring(), &*handle));
        assert!(std::ptr::eq(b.coloring(), &*handle));
    }

    #[test]
    fn provenance_helpers() {
        assert_eq!(Provenance::Paper("Eq. (22)").reference(), "Eq. (22)");
        assert_eq!(Provenance::Extended("E9").reference(), "E9");
    }
}
