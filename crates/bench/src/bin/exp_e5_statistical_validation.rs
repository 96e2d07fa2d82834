//! Experiment E5 — verify the analytical claims of paper Sec. 4.5:
//!
//! * `E[Z·Zᴴ] = K̄` (the realized covariance equals the desired/forced one),
//! * envelope mean `0.8862·σ_g` (Eq. 14) and variance `0.2146·σ_g²` (Eq. 15),
//! * unequal-power support: starting from desired envelope powers `σ_r²`
//!   through Eq. (11) the realized envelope variances equal `σ_r²`,
//! * non-PSD targets are replaced by their closest PSD approximation.
//!
//! All three configurations are resolved from the scenario registry:
//! `fig4a-spectral`, `unequal-power-spatial` and `indefinite-rho09`.

use corrfade::ChannelStream;
use corrfade_bench::{report, stream_covariance};
use corrfade_scenarios::{lookup, PowerProfile};
use corrfade_stats::relative_frobenius_error;

const SNAPSHOTS: usize = 200_000;
/// Snapshots per streamed block (the single-instant generators batch
/// independent snapshots through `ChannelStream`).
const STREAM_BATCH: usize = 1000;

fn main() {
    report::section("E5: statistical validation of Sec. 4.5 (single-instant mode)");

    // 1. Equal-power complex covariance (Eq. 22 target). The covariance is
    //    folded straight from the pooled planar block — no snapshot ensemble
    //    is materialized.
    let spectral = lookup("fig4a-spectral").expect("registered scenario");
    let k = spectral.covariance_matrix().expect("valid scenario");
    let mut gen = spectral
        .build(0xE5)
        .unwrap()
        .with_stream_block_len(STREAM_BATCH);
    let khat = stream_covariance(&mut gen, SNAPSHOTS / STREAM_BATCH);
    report::compare_matrices("E[Z Z^H] vs Eq. (22) target", &k, &khat);
    report::measured_scalar(
        "relative Frobenius error",
        relative_frobenius_error(&khat, &k),
    );

    // Envelope moments, per envelope (sigma_g^2 = 1), over one planar block
    // of all the snapshots.
    let mut block = spectral
        .build(0xE51)
        .unwrap()
        .with_stream_block_len(SNAPSHOTS)
        .next_block()
        .unwrap();
    for j in 0..block.envelopes() {
        let path = block.envelope_path(j);
        let check = corrfade_stats::check_envelope_moments(path, 1.0);
        report::compare_scalar(
            &format!("envelope {} mean (Eq. 14)", j + 1),
            check.theoretical_mean,
            check.sample_mean,
        );
        report::compare_scalar(
            &format!("envelope {} variance (Eq. 15)", j + 1),
            check.theoretical_variance,
            check.sample_variance,
        );
        let sigma = corrfade_stats::rayleigh_scale(1.0);
        let ks = corrfade_stats::ks_test(path, |r| corrfade_specfun::rayleigh_cdf(r, sigma));
        println!(
            "envelope {} Rayleigh KS test: statistic {:.4}, p-value {:.3} ({})",
            j + 1,
            ks.statistic,
            ks.p_value,
            if ks.passes(0.01) {
                "accepted"
            } else {
                "REJECTED"
            }
        );
    }

    // 2. Unequal envelope powers specified through Eq. (11).
    report::section("E5b: unequal envelope powers (Eq. 11 path)");
    let unequal = lookup("unequal-power-spatial").expect("registered scenario");
    let PowerProfile::Envelope(envelope_powers) = unequal.powers else {
        unreachable!("unequal-power-spatial declares envelope powers");
    };
    let mut block = unequal
        .build(0xE52)
        .unwrap()
        .with_stream_block_len(SNAPSHOTS)
        .next_block()
        .unwrap();
    for (j, &requested) in envelope_powers.iter().enumerate() {
        report::compare_scalar(
            &format!("envelope {} variance vs requested sigma_r^2", j + 1),
            requested,
            corrfade_stats::variance(block.envelope_path(j)),
        );
    }

    // 3. Non-PSD target: realized covariance equals the forced PSD matrix.
    report::section("E5c: non-PSD target is replaced by its closest PSD approximation");
    let stress = lookup("indefinite-rho09")
        .expect("registered scenario")
        .with_envelopes(4);
    let bad = stress.covariance_matrix().expect("valid scenario");
    let mut gen = stress
        .build(0xE53)
        .unwrap()
        .with_stream_block_len(STREAM_BATCH);
    let forced = gen.realized_covariance();
    let khat = stream_covariance(&mut gen, SNAPSHOTS / STREAM_BATCH);
    println!(
        "clipped eigenvalues: {} of {}",
        gen.coloring().psd.clipped_count,
        stress.envelopes
    );
    report::measured_scalar(
        "rel. error of E[Z Z^H] vs forced PSD matrix",
        relative_frobenius_error(&khat, &forced),
    );
    report::measured_scalar(
        "rel. distance between forced matrix and the (infeasible) target",
        relative_frobenius_error(&forced, &bad),
    );
}
