//! Statistical conformance of every named stream in realtime mode (the
//! Sec. 5 algorithm): each registry scenario and each `network/` family
//! name must realize its PSD-forced covariance, Rayleigh envelope
//! marginals and the Clarke/Jakes autocorrelation `J₀(2π·f_m·d)`.
//!
//! Seeds are pinned, so the suite is deterministic on a given kernel
//! backend; the bounds leave room for the last-bit differences between the
//! scalar and vector backends (CI runs it under both `CORRFADE_KERNEL`
//! values). Each stream draws about 32k samples per envelope, which keeps
//! the whole suite to seconds in a debug build.

use corrfade::{ChannelStream, SampleBlock};
use corrfade_linalg::CMatrix;
use corrfade_scenarios::{iter, lookup, Scenario};
use corrfade_specfun::rayleigh_cdf;
use corrfade_stats::{ks_test, normalized_autocorrelation, relative_frobenius_error};

/// Time samples drawn per envelope (whole blocks).
const SAMPLES_PER_ENVELOPE: usize = 1 << 15;
/// Lags `0 ..= MAX_LAG` compared against `J₀(2π·f_m·d)`.
const MAX_LAG: usize = 30;
/// Stride between the envelope samples fed to the KS test. At `f_m = 0.05`
/// the envelope correlation at this lag is ≈ 0.03, so the thinned samples
/// are close enough to independent for the test's null distribution.
const KS_STRIDE: usize = 16;

/// Bound on the relative Frobenius error of the sample covariance. The
/// estimate's noise grows with `N`: at these seeds the 24-link
/// `network/grid16` field reads 0.079 and the three-envelope streams 0.013
/// to 0.055.
const MAX_FROBENIUS: f64 = 0.12;
/// Significance level of each envelope's KS test (the smallest p-value over
/// the ~110 envelopes is 1.1e-3 at these seeds).
const KS_ALPHA: f64 = 1e-4;
/// Bound on `|ρ̂(d) − J₀(2π·f_m·d)|` over the compared lags (largest gap at
/// these seeds: 0.061, `scaling-exp-rho07`).
const MAX_AUTOCORRELATION_GAP: f64 = 0.1;

/// What one stream measured.
struct Conformance {
    frobenius: f64,
    min_ks_p: f64,
    autocorrelation_gap: f64,
}

fn measure(scenario: &Scenario, seed: u64) -> Conformance {
    let mut gen = scenario
        .build_realtime(seed)
        .unwrap_or_else(|e| panic!("`{}`: realtime build failed: {e}", scenario.name));
    let n = gen.dimension();
    let m = gen.block_len();
    let blocks = SAMPLES_PER_ENVELOPE.div_ceil(m);
    let forced = gen.realized_covariance();
    let target = gen.filter().target_autocorrelation(MAX_LAG);

    let mut acc = CMatrix::zeros(n, n);
    let mut thinned = vec![Vec::new(); n];
    let mut rho = vec![vec![0.0f64; MAX_LAG + 1]; n];
    let mut block = SampleBlock::empty();
    for _ in 0..blocks {
        gen.next_block_into(&mut block).unwrap();
        block.accumulate_covariance(&mut acc);
        for (j, rho_j) in rho.iter_mut().enumerate() {
            let r = normalized_autocorrelation(block.path(j), MAX_LAG);
            for (mean, r) in rho_j.iter_mut().zip(r) {
                *mean += r / blocks as f64;
            }
        }
        for (j, samples) in thinned.iter_mut().enumerate() {
            samples.extend(block.envelope_path(j).iter().step_by(KS_STRIDE));
        }
    }
    let khat = acc.scale_real(1.0 / (blocks * m) as f64);

    let min_ks_p = thinned
        .iter()
        .enumerate()
        .map(|(j, samples)| {
            // |z_j| of a complex Gaussian of variance K_jj is Rayleigh with
            // scale √(K_jj/2).
            let sigma = (forced[(j, j)].re / 2.0).sqrt();
            ks_test(samples, |r| rayleigh_cdf(r, sigma)).p_value
        })
        .fold(1.0, f64::min);
    let autocorrelation_gap = rho
        .iter()
        .flat_map(|rho_j| rho_j.iter().zip(&target).map(|(a, b)| (a - b).abs()))
        .fold(0.0, f64::max);
    Conformance {
        frobenius: relative_frobenius_error(&khat, &forced),
        min_ks_p,
        autocorrelation_gap,
    }
}

fn assert_conforms(scenario: &Scenario, seed: u64) {
    let c = measure(scenario, seed);
    let name = scenario.name;
    assert!(
        c.frobenius < MAX_FROBENIUS,
        "`{name}`: sample covariance off the PSD-forced K by {:.4}",
        c.frobenius
    );
    assert!(
        c.min_ks_p > KS_ALPHA,
        "`{name}`: an envelope fails the Rayleigh KS test (p = {:.2e})",
        c.min_ks_p
    );
    assert!(
        c.autocorrelation_gap < MAX_AUTOCORRELATION_GAP,
        "`{name}`: autocorrelation strays {:.4} from J0(2π·fm·d)",
        c.autocorrelation_gap
    );
}

#[test]
fn every_registry_scenario_conforms_in_realtime_mode() {
    for (i, scenario) in iter().enumerate() {
        assert_conforms(scenario, 0xC0F0 + i as u64);
    }
}

#[test]
fn every_network_family_stream_conforms_in_realtime_mode() {
    let names = std::iter::once("network/grid16".to_string())
        .chain((0..24).map(|k| format!("network/grid16/link{k}")));
    for (i, name) in names.enumerate() {
        assert_conforms(lookup(&name).unwrap(), 0xC0F1_0000 + i as u64);
    }
}
