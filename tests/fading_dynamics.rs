//! Second-order fading dynamics of the real-time generator: level-crossing
//! rate (LCR) and average fade duration (AFD) against the closed-form
//! Rayleigh-fading expressions, plus the Doppler-bandwidth sanity checks a
//! link-level simulator user would rely on.
//!
//! These quantities are not tabulated in the paper, but they are the standard
//! acceptance criteria for any fading generator built on the Clarke/Jakes
//! model (Rappaport, the paper's ref. [9]); they fail loudly if either the
//! Doppler filter or the coloring step distorts the temporal statistics.

use corrfade::{ChannelStream, RealtimeConfig, RealtimeGenerator};
use corrfade_models::paper_covariance_matrix_23;
use corrfade_stats::{
    empirical_afd, empirical_lcr, envelope_rms, theoretical_afd, theoretical_lcr,
};

/// Envelope 0 of one real-time block of `samples` time samples.
fn long_envelope(fm: f64, samples: usize, seed: u64) -> Vec<f64> {
    let mut gen = RealtimeGenerator::new(RealtimeConfig {
        covariance: paper_covariance_matrix_23(),
        idft_size: samples,
        normalized_doppler: fm,
        sigma_orig_sq: 0.5,
        seed,
        precision: corrfade::Precision::F64,
    })
    .unwrap();
    gen.next_block().unwrap().envelope_path(0).to_vec()
}

#[test]
fn level_crossing_rate_matches_rayleigh_theory() {
    let fm = 0.05;
    let env = long_envelope(fm, 1 << 17, 0xFAD0);
    let rms = envelope_rms(&env);
    // LCR is most accurately estimated around the peak (rho ≈ 0.7); deep
    // thresholds have few events and need longer runs.
    for &rho in &[0.3f64, 0.5, 0.7, 1.0] {
        let measured = empirical_lcr(&env, rho * rms);
        let theory = theoretical_lcr(rho, fm);
        let rel = (measured - theory).abs() / theory;
        assert!(
            rel < 0.15,
            "LCR at rho = {rho}: measured {measured:.5}, theory {theory:.5} (rel {rel:.3})"
        );
    }
}

#[test]
fn average_fade_duration_matches_rayleigh_theory() {
    let fm = 0.05;
    let env = long_envelope(fm, 1 << 17, 0xFAD1);
    let rms = envelope_rms(&env);
    for &rho in &[0.3f64, 0.5, 1.0] {
        let measured = empirical_afd(&env, rho * rms);
        let theory = theoretical_afd(rho, fm);
        let rel = (measured - theory).abs() / theory;
        assert!(
            rel < 0.2,
            "AFD at rho = {rho}: measured {measured:.3}, theory {theory:.3} (rel {rel:.3})"
        );
    }
}

#[test]
fn lcr_scales_with_the_doppler_frequency() {
    // Doubling fm doubles the fade rate — the first-order sanity check of the
    // Doppler filter design.
    let rho = 0.7f64;
    let env_slow = long_envelope(0.02, 1 << 16, 0xFAD2);
    let env_fast = long_envelope(0.08, 1 << 16, 0xFAD3);
    let lcr_slow = empirical_lcr(&env_slow, rho * envelope_rms(&env_slow));
    let lcr_fast = empirical_lcr(&env_fast, rho * envelope_rms(&env_fast));
    let ratio = lcr_fast / lcr_slow;
    assert!(
        (ratio - 4.0).abs() < 0.8,
        "LCR ratio for fm 0.08 vs 0.02 should be ~4, got {ratio:.2}"
    );
}

#[test]
fn outage_probability_is_rayleigh() {
    // Pr[r < rho * Rrms] = 1 - exp(-rho^2) for a Rayleigh envelope,
    // independent of the Doppler rate.
    let env = long_envelope(0.05, 1 << 17, 0xFAD4);
    let rms = envelope_rms(&env);
    for &rho in &[0.1f64, 0.3, 1.0] {
        let measured = env.iter().filter(|&&r| r < rho * rms).count() as f64 / env.len() as f64;
        let theory = 1.0 - (-rho * rho).exp();
        assert!(
            (measured - theory).abs() < 0.01 + 0.1 * theory,
            "outage at rho = {rho}: measured {measured:.4}, theory {theory:.4}"
        );
    }
}
