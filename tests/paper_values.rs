//! Regression tests that lock in the numbers the paper actually prints, so
//! any future change to the models or the special functions that would break
//! the reproduction is caught immediately.
//!
//! Sources: Sec. 6 of the paper (parameter derivations, Eq. 22, Eq. 23) and
//! the analytic constants of Eq. (11), (14), (15) and (21).

use corrfade::ChannelStream;
use corrfade_dsp::DopplerFilter;
use corrfade_linalg::c64;
use corrfade_models::{
    paper_spatial_scenario, paper_spectral_scenario, ChannelParams, SalzWintersSpatialModel,
};
use corrfade_stats::{envelope_mean, envelope_variance, gaussian_variance_from_envelope_variance};

/// Sec. 6: "Fs = 1kHz, Fm = 50Hz (corresponding to a carrier frequency
/// 900 MHz and a mobile speed v = 60 km/hr). Therefore, we have fm = 0.05,
/// km = 204."
#[test]
fn paper_derived_doppler_parameters() {
    let p = ChannelParams::paper_defaults();
    assert!((p.max_doppler_hz() - 50.0).abs() < 0.05);
    assert!((p.normalized_doppler() - 0.05).abs() < 5e-5);
    assert_eq!(p.doppler_band_edge(4096), 204);

    let filter = DopplerFilter::new(4096, 0.05).unwrap();
    assert_eq!(filter.km(), 204);
}

/// Eq. (22), all six independent complex entries to the paper's 4 decimals.
#[test]
fn paper_equation_22_entries() {
    let (model, freqs, delays) = paper_spectral_scenario();
    let k = model.covariance_matrix(&freqs, &delays).unwrap();
    let expected = [
        ((0usize, 1usize), c64(0.3782, 0.4753)),
        ((0, 2), c64(0.0878, 0.2207)),
        ((1, 2), c64(0.3063, 0.3849)),
    ];
    for ((i, j), value) in expected {
        assert!(
            k[(i, j)].approx_eq(value, 5e-4),
            "K[{i},{j}] = {} but the paper prints {value}",
            k[(i, j)]
        );
        assert!(k[(j, i)].approx_eq(value.conj(), 5e-4));
    }
    for i in 0..3 {
        assert!(k[(i, i)].approx_eq(c64(1.0, 0.0), 1e-12));
    }
}

/// Eq. (23), both independent entries to the paper's 4 decimals, and the
/// paper's remark that Φ = 0 makes the matrix real.
#[test]
fn paper_equation_23_entries() {
    let k = paper_spatial_scenario().covariance_matrix(3).unwrap();
    assert!((k[(0, 1)].re - 0.8123).abs() < 5e-4);
    assert!((k[(1, 2)].re - 0.8123).abs() < 5e-4);
    assert!((k[(0, 2)].re - 0.3730).abs() < 5e-4);
    for i in 0..3 {
        for j in 0..3 {
            assert!(k[(i, j)].im.abs() < 1e-9, "K must be real at Phi = 0");
        }
    }
}

/// Sec. 6: "D = 33.3 cm for GSM 900" at D/λ = 1.
#[test]
fn paper_antenna_spacing_for_gsm900() {
    let p = ChannelParams::paper_defaults();
    assert!((p.wavelength_m() * 100.0 - 33.3).abs() < 0.05);
}

/// Eq. (14) and (15): E{r} = 0.8862·σ_g, Var{r} = 0.2146·σ_g², and Eq. (11)
/// as their inverse.
#[test]
fn paper_envelope_moment_constants() {
    assert!((envelope_mean(1.0) - 0.8862).abs() < 5e-5);
    assert!((envelope_variance(1.0) - 0.2146).abs() < 5e-5);
    let sigma_g_sq = gaussian_variance_from_envelope_variance(0.2146);
    assert!((sigma_g_sq - 1.0).abs() < 5e-4);
}

/// Eq. (21): structural facts of the Doppler filter the paper re-states —
/// zero DC bin, zero stop band, symmetric band edges, and the closed-form
/// edge value.
#[test]
fn paper_equation_21_filter_structure() {
    let m = 4096usize;
    let fm = 0.05;
    let filter = DopplerFilter::new(m, fm).unwrap();
    let f = filter.coefficients();
    let km = filter.km();
    assert_eq!(f[0], 0.0);
    assert!(f[km] > 0.0);
    assert_eq!(f[km + 1], 0.0);
    assert_eq!(f[m - km - 1], 0.0);
    assert!((f[km] - f[m - km]).abs() < 1e-15);
    let km_f = km as f64;
    let edge = (km_f / 2.0
        * (std::f64::consts::FRAC_PI_2 - ((km_f - 1.0) / (2.0 * km_f - 1.0).sqrt()).atan()))
    .sqrt();
    assert!((f[km] - edge).abs() < 1e-12);
    // Interior pass-band sample, k = 100:
    let expected = (1.0 / (2.0 * (1.0 - (100.0 / (m as f64 * fm)).powi(2)).sqrt())).sqrt();
    assert!((f[100] - expected).abs() < 1e-12);
}

/// The paper's statement that both Eq. (22) and Eq. (23) are positive
/// definite (so no PSD forcing is triggered on the paper's own scenarios).
#[test]
fn paper_matrices_are_positive_definite_and_not_clipped() {
    for k in [
        paper_spectral_scenario()
            .0
            .covariance_matrix(&paper_spectral_scenario().1, &paper_spectral_scenario().2)
            .unwrap(),
        paper_spatial_scenario().covariance_matrix(3).unwrap(),
    ] {
        assert!(corrfade_linalg::is_positive_definite(&k));
        let f = corrfade::force_positive_semidefinite(&k).unwrap();
        assert!(f.was_positive_semidefinite);
        assert_eq!(f.clipped_count, 0);
    }
}

/// Off-broadside spatial scenarios produce complex covariances — the general
/// case the paper insists on supporting (its criticism of ref. [5]).
#[test]
fn off_broadside_spatial_covariances_are_complex() {
    let model = SalzWintersSpatialModel::new(1.0, 1.0, 0.5, std::f64::consts::PI / 18.0);
    let k = model.covariance_matrix(3).unwrap();
    assert!(k.is_hermitian(1e-12));
    assert!(k[(0, 1)].im.abs() > 1e-3);
    // And the generator still realizes it.
    let block = corrfade::CorrelatedRayleighGenerator::new(k.clone(), 0xFACE)
        .unwrap()
        .with_stream_block_len(60_000)
        .next_block()
        .unwrap();
    let khat = corrfade_stats::sample_covariance_from_block(&block);
    assert!(corrfade_stats::relative_frobenius_error(&khat, &k) < 0.03);
}
