//! The static catalog of named scenarios and the [`lookup`] entry point.
//!
//! Every entry is a fully-declarative [`Scenario`]; the experiment binaries,
//! Criterion benches and examples of the workspace resolve their
//! configuration from here by name instead of hard-coding constructors. The
//! catalog is also rendered as the "Scenario catalog" table in the
//! repository `README.md`.

use core::f64::consts::{FRAC_PI_4, PI};

use corrfade_models::ChannelParams;

use crate::error::ScenarioError;
use crate::scenario::{CovarianceSpec, DopplerSettings, PowerProfile, Provenance, Scenario};

/// The physical channel of the paper's Sec. 6 experiments: GSM 900
/// (900 MHz), 60 km/h, `F_s` = 1 kHz, `σ_τ` = 1 µs — giving `F_m ≈ 50 Hz`
/// and `f_m ≈ 0.05`.
pub const PAPER_CHANNEL: ChannelParams = ChannelParams {
    carrier_freq_hz: 900e6,
    mobile_speed_mps: 60.0 / 3.6,
    sampling_freq_hz: 1e3,
    rms_delay_spread_s: 1e-6,
};

/// Carrier offsets of the paper's spectral experiment: three carriers
/// 200 kHz apart with `f₁ > f₂ > f₃` (only differences matter).
static SPECTRAL_CARRIER_OFFSETS_HZ: [f64; 3] = [400e3, 200e3, 0.0];
/// Arrival times of the paper's spectral experiment: `τ₁,₂ = 1 ms`,
/// `τ₂,₃ = 3 ms`, `τ₁,₃ = 4 ms`.
static SPECTRAL_ARRIVAL_TIMES_S: [f64; 3] = [0.0, 1e-3, 4e-3];

/// Envelope powers `σ_r²` of the `unequal-power-spatial` scenario (E5b).
static UNEQUAL_SPATIAL_ENVELOPE_POWERS: [f64; 3] = [0.5, 2.0, 1.0];

/// The 3 × 3 demo covariance of the `quickstart` example: unit powers,
/// moderate complex correlations.
static QUICKSTART_ENTRIES: [(f64, f64); 9] = [
    (1.0, 0.0),
    (0.55, 0.25),
    (0.10, 0.05),
    (0.55, -0.25),
    (1.0, 0.0),
    (0.45, 0.15),
    (0.10, -0.05),
    (0.45, -0.15),
    (1.0, 0.0),
];

/// Unequal powers (2 / 1 / 0.5) with complex correlations — the
/// `baseline_comparison` stress case no equal-power baseline can realize.
static BASELINE_UNEQUAL_ENTRIES: [(f64, f64); 9] = [
    (2.0, 0.0),
    (0.6, 0.2),
    (0.1, 0.0),
    (0.6, -0.2),
    (1.0, 0.0),
    (0.3, -0.1),
    (0.1, 0.0),
    (0.3, 0.1),
    (0.5, 0.0),
];

/// Every registered scenario, in catalog order (paper scenarios first).
pub static REGISTRY: &[Scenario] = &[
    Scenario {
        name: "fig4a-spectral",
        title: "Three frequency-correlated (OFDM) envelopes, GSM 900",
        provenance: Provenance::Paper("Eq. (22), Fig. 4(a); E1/E3"),
        description: "The paper's first Sec. 6 experiment: three carriers 200 kHz apart \
                      observed through a GSM-900 channel (Fm = 50 Hz, sigma_tau = 1 us) with \
                      arrival delays of 1/3/4 ms. The Jakes spectral model reproduces the \
                      covariance the paper prints as Eq. (22).",
        channel: PAPER_CHANNEL,
        envelopes: 3,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::Spectral {
            max_doppler_hz: 50.0,
            rms_delay_spread_s: 1e-6,
            carrier_offsets_hz: &SPECTRAL_CARRIER_OFFSETS_HZ,
            arrival_times_s: &SPECTRAL_ARRIVAL_TIMES_S,
        },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "fig4b-spatial",
        title: "Three spatially-correlated (MIMO ULA) envelopes, D/lambda = 1",
        provenance: Provenance::Paper("Eq. (23), Fig. 4(b); E2/E4"),
        description: "The paper's second Sec. 6 experiment: a three-element uniform linear \
                      array spaced one wavelength apart (33.3 cm at GSM 900) with all scatter \
                      arriving within +-10 degrees of broadside. The Salz-Winters model \
                      reproduces the covariance the paper prints as Eq. (23).",
        channel: PAPER_CHANNEL,
        envelopes: 3,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::Spatial {
            spacing_wavelengths: 1.0,
            mean_arrival_rad: 0.0,
            angular_spread_rad: PI / 18.0,
        },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "mimo-ula-halfwave",
        title: "Four-element half-wavelength ULA, 30-degree spread",
        provenance: Provenance::Extended("mimo_spatial example"),
        description: "A denser, more scattered array than the paper's: half-wavelength \
                      spacing with a 30-degree angular spread, broadside arrival. Adjacent \
                      antennas stay strongly correlated while the outer pair decorrelates.",
        channel: PAPER_CHANNEL,
        envelopes: 4,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::Spatial {
            spacing_wavelengths: 0.5,
            mean_arrival_rad: 0.0,
            angular_spread_rad: PI / 6.0,
        },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "mimo-offbroadside",
        title: "Off-broadside ULA (Phi = 45 degrees) — complex covariance",
        provenance: Provenance::Extended("mimo_spatial example; covariance_build bench"),
        description: "Scatter arriving 45 degrees off broadside makes the spatial covariance \
                      genuinely complex — the general case the paper's algorithm supports and \
                      several conventional methods (refs [4]/[5]) do not.",
        channel: PAPER_CHANNEL,
        envelopes: 3,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::Spatial {
            spacing_wavelengths: 0.5,
            mean_arrival_rad: FRAC_PI_4,
            angular_spread_rad: 0.3,
        },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "unequal-power-spatial",
        title: "Paper spatial correlation with unequal envelope powers",
        provenance: Provenance::Extended("E5b; unequal_power example"),
        description: "The paper's Eq. (23) correlation structure with desired envelope powers \
                      sigma_r^2 = [0.5, 2.0, 1.0], converted to Gaussian powers through \
                      Eq. (11) — the unequal-power generalization the paper's title promises.",
        channel: PAPER_CHANNEL,
        envelopes: 3,
        powers: PowerProfile::Envelope(&UNEQUAL_SPATIAL_ENVELOPE_POWERS),
        covariance: CovarianceSpec::Spatial {
            spacing_wavelengths: 1.0,
            mean_arrival_rad: 0.0,
            angular_spread_rad: PI / 18.0,
        },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "unequal-power-geometric",
        title: "Geometric power profile on an exponential correlation",
        provenance: Provenance::Extended("E10 S4"),
        description: "Exponential correlation rho = 0.6 with powers halving per envelope \
                      (p_j = 0.5^j) — trips the equal-power restriction of the conventional \
                      baselines in the E10 shortcoming matrix.",
        channel: PAPER_CHANNEL,
        envelopes: 3,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::UnequalPowerExponential {
            rho: 0.6,
            base: 0.5,
        },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "two-envelope-complex",
        title: "Two envelopes with a complex correlation coefficient",
        provenance: Provenance::Extended("E10 S3"),
        description: "N = 2, equal powers, correlation 0.5 + 0.4i — the restricted setting of \
                      the paper's two-envelope references, used to show which baselines only \
                      handle this case.",
        channel: PAPER_CHANNEL,
        envelopes: 2,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::TwoEnvelopeComplex {
            sigma_sq: 1.0,
            rho_re: 0.5,
            rho_im: 0.4,
        },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "indefinite-rho08",
        title: "Indefinite covariance target, rho = 0.8",
        provenance: Provenance::Extended("PSD-forcing stress case"),
        description: "A jointly-infeasible correlation chain (one sign flipped) at moderate \
                      strength: Hermitian but with a negative eigenvalue, so the paper's \
                      Sec. 4.2 zero-clipping engages.",
        channel: PAPER_CHANNEL,
        envelopes: 4,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::Indefinite { rho: 0.8 },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "indefinite-rho09",
        title: "Indefinite covariance target, rho = 0.9",
        provenance: Provenance::Extended("E5c; E7; E10 S5; unequal_power example"),
        description: "The strongly-infeasible variant used by the PSD-forcing ablations: at \
                      N = 3 the correlation triangle +0.9/+0.9/-0.9 is jointly impossible, so \
                      zero-clipping (proposed) engages while epsilon-replacement (ref. [6]) \
                      distorts more and raw Cholesky aborts.",
        channel: PAPER_CHANNEL,
        envelopes: 3,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::Indefinite { rho: 0.9 },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "near-singular-eps1e6",
        title: "Near-singular PD target, min eigenvalue ~ 1e-6",
        provenance: Provenance::Extended("E7"),
        description: "All pairwise correlations equal to 1 - 1e-6: positive definite but with \
                      a tiny smallest eigenvalue, the regime where MATLAB-style Cholesky \
                      round-off failures live.",
        channel: PAPER_CHANNEL,
        envelopes: 6,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::NearSingular { eps: 1e-6 },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "near-singular-eps1e9",
        title: "Near-singular PD target, min eigenvalue ~ 1e-9",
        provenance: Provenance::Extended("E7; E10 S6"),
        description: "Pairwise correlations 1 - 1e-9 — close enough to singular that raw \
                      Cholesky fails in double precision while the eigen coloring proceeds.",
        channel: PAPER_CHANNEL,
        envelopes: 4,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::NearSingular { eps: 1e-9 },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "near-singular-eps1e13",
        title: "Near-singular PD target, min eigenvalue ~ 1e-13",
        provenance: Provenance::Extended("E7"),
        description: "The hardest near-singular case of the E7 sweep: the smallest eigenvalue \
                      sits at the edge of double-precision round-off.",
        channel: PAPER_CHANNEL,
        envelopes: 6,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::NearSingular { eps: 1e-13 },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "quickstart-demo",
        title: "Hand-picked 3x3 complex demo covariance",
        provenance: Provenance::Extended("quickstart example"),
        description: "Unit powers with moderate complex correlations — a small, well-behaved \
                      matrix for first contact with the API.",
        channel: PAPER_CHANNEL,
        envelopes: 3,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::Explicit {
            entries: &QUICKSTART_ENTRIES,
        },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "baseline-unequal",
        title: "Unequal powers with complex correlations",
        provenance: Provenance::Extended("baseline_comparison example"),
        description: "Powers 2/1/0.5 with complex off-diagonals: realizable by the paper's \
                      algorithm but outside the equal-power and real-covariance restrictions \
                      of the conventional baselines.",
        channel: PAPER_CHANNEL,
        envelopes: 3,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::Explicit {
            entries: &BASELINE_UNEQUAL_ENTRIES,
        },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "scaling-exp-rho07",
        title: "Exponential correlation rho = 0.7 (scaling family)",
        provenance: Provenance::Extended("E9 scaling; decomposition/parallel benches"),
        description: "The always-PD equal-power family K_kj = 0.7^|k-j|, resizable to any N \
                      with Scenario::with_envelopes — the workhorse of the decomposition and \
                      throughput scaling sweeps.",
        channel: PAPER_CHANNEL,
        envelopes: 16,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::Exponential { rho: 0.7 },
        doppler: DopplerSettings::PAPER,
    },
    Scenario {
        name: "complex-exp-rho08",
        title: "Complex exponential correlation with phase ramp",
        provenance: Provenance::Extended("decomposition bench, complex path"),
        description: "K_kj = 0.8^|k-j| * exp(0.7i*(k-j)): Hermitian positive definite with \
                      genuinely complex entries, exercising the complex-covariance path that \
                      ref. [5] cannot represent.",
        channel: PAPER_CHANNEL,
        envelopes: 16,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::ComplexExponential {
            rho: 0.8,
            theta: 0.7,
        },
        doppler: DopplerSettings::PAPER,
    },
];

/// Iterates over every registered scenario in catalog order.
///
/// ```
/// let paper_count = corrfade_scenarios::iter()
///     .filter(|s| s.provenance.is_paper())
///     .count();
/// assert_eq!(paper_count, 2);
/// ```
pub fn iter() -> impl Iterator<Item = &'static Scenario> {
    REGISTRY.iter()
}

/// The names of every registered scenario, in catalog order.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|s| s.name).collect()
}

/// Looks a scenario up by its registry name. Names in the `network/`
/// namespace resolve through the generated families of [`crate::generated`]
/// (built, leaked and cached on first use) instead of the static catalog.
///
/// # Errors
/// Returns [`ScenarioError::UnknownScenario`] — including a closest-name
/// suggestion when one exists — if no scenario with that name is registered
/// and it does not match a generated family.
///
/// ```
/// let scenario = corrfade_scenarios::lookup("near-singular-eps1e6").unwrap();
/// assert_eq!(scenario.envelopes, 6);
///
/// let err = corrfade_scenarios::lookup("near-singular-eps1e7").unwrap_err();
/// assert!(err.to_string().contains("did you mean"));
/// ```
pub fn lookup(name: &str) -> Result<&'static Scenario, ScenarioError> {
    REGISTRY
        .iter()
        .find(|s| s.name == name)
        .or_else(|| crate::generated::resolve(name))
        .ok_or_else(|| ScenarioError::UnknownScenario {
            name: name.to_string(),
            suggestion: closest_name(name),
        })
}

/// The registered name sharing the longest prefix with `name` (at least
/// four characters), if any — the "did you mean" suggestion attached to
/// [`ScenarioError::UnknownScenario`], exported so remote-facing layers
/// (the `corrfade-serve` wire protocol) can embed the same suggestion in
/// their own typed error frames.
///
/// ```
/// assert_eq!(
///     corrfade_scenarios::suggest("fig4a-spektral"),
///     Some("fig4a-spectral")
/// );
/// assert_eq!(corrfade_scenarios::suggest("zzz"), None);
/// ```
#[must_use]
pub fn suggest(name: &str) -> Option<&'static str> {
    closest_name(name)
}

fn closest_name(name: &str) -> Option<&'static str> {
    REGISTRY
        .iter()
        .map(|s| (common_prefix_len(s.name, name), s.name))
        .filter(|&(len, _)| len >= 4)
        .max_by_key(|&(len, _)| len)
        .map(|(_, n)| n)
}

fn common_prefix_len(a: &str, b: &str) -> usize {
    a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_every_registered_name() {
        for s in iter() {
            assert_eq!(lookup(s.name).unwrap().name, s.name);
        }
    }

    #[test]
    fn unknown_name_is_a_typed_error_with_suggestion() {
        let err = lookup("fig4a-spectrel").unwrap_err();
        let ScenarioError::UnknownScenario { name, suggestion } = &err else {
            panic!("expected UnknownScenario, got {err:?}");
        };
        assert_eq!(name, "fig4a-spectrel");
        assert_eq!(*suggestion, Some("fig4a-spectral"));

        // A name nothing resembles has no suggestion.
        let err = lookup("zzz").unwrap_err();
        let ScenarioError::UnknownScenario { suggestion, .. } = &err else {
            panic!("expected UnknownScenario, got {err:?}");
        };
        assert!(suggestion.is_none());
    }

    #[test]
    fn names_are_unique_and_kebab_case() {
        let names = names();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate scenario names");
        for n in names {
            assert!(
                n.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
                "name `{n}` is not kebab-case"
            );
        }
    }

    #[test]
    fn registry_has_the_documented_size() {
        assert!(
            (10..=20).contains(&REGISTRY.len()),
            "catalog drifted to {} entries — update README.md",
            REGISTRY.len()
        );
    }
}
