//! MIMO antenna-array spatially-correlated fading: the paper's second
//! experiment (Sec. 6, covariance Eq. 23, Fig. 4b).
//!
//! A uniform linear array of transmit antennas produces correlated fades
//! whose strength depends on the spacing and the angular spread of the
//! arriving scatter. This example walks the registered spatial scenarios to
//! show how the geometry changes the correlation (and hence the achievable
//! diversity), then generates the paper's exact scenario.
//!
//! Run with: `cargo run --release --example mimo_spatial`

use corrfade::{ChannelStream, SampleBlock};
use corrfade_scenarios::{iter, lookup, CovarianceSpec};
use corrfade_stats::{relative_frobenius_error, sample_covariance_from_block};

fn main() {
    // How does adjacent-antenna correlation depend on geometry? Compare the
    // registered spatial scenarios.
    println!("adjacent-antenna correlation |K[1,2]| across the registered spatial scenarios:");
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>14}",
        "scenario", "D/lambda", "Phi [deg]", "spread [deg]", "|correlation|"
    );
    for scenario in iter() {
        let CovarianceSpec::Spatial {
            spacing_wavelengths,
            mean_arrival_rad,
            angular_spread_rad,
        } = scenario.covariance
        else {
            continue;
        };
        let k = scenario.covariance_matrix().expect("valid scenario");
        let corr = k[(0, 1)].abs() / (k[(0, 0)].re * k[(1, 1)].re).sqrt();
        println!(
            "{:<22} {:>10.2} {:>12.1} {:>12.1} {:>14.4}",
            scenario.name,
            spacing_wavelengths,
            mean_arrival_rad.to_degrees(),
            angular_spread_rad.to_degrees(),
            corr
        );
    }

    // The paper's exact scenario: D/lambda = 1, spread 10 degrees, broadside.
    let paper = lookup("fig4b-spatial").expect("registered scenario");
    let k = paper.covariance_matrix().expect("valid scenario");
    println!();
    println!("desired covariance matrix (paper Eq. 23):\n{k:.4}");

    // Single-instant mode: 100k snapshots streamed as one planar block,
    // check E[Z Z^H] = K without materializing any snapshot vectors.
    let mut gen = paper
        .build(0x313D)
        .expect("valid configuration")
        .with_stream_block_len(100_000);
    let mut block = SampleBlock::empty();
    gen.next_block_into(&mut block)
        .expect("valid configuration");
    let khat = sample_covariance_from_block(&block);
    println!("achieved covariance (100k snapshots):\n{khat:.4}");
    println!(
        "relative Frobenius error: {:.4}",
        relative_frobenius_error(&khat, &k)
    );

    // Envelope statistics per antenna (all powers are 1).
    let mut gen = paper
        .build(0x313E)
        .expect("valid configuration")
        .with_stream_block_len(100_000);
    gen.next_block_into(&mut block)
        .expect("valid configuration");
    println!();
    for j in 0..block.envelopes() {
        let check = corrfade_stats::check_envelope_moments(block.envelope_path(j), 1.0);
        println!(
            "antenna {}: envelope mean {:.4} (theory {:.4}), variance {:.4} (theory {:.4})",
            j + 1,
            check.sample_mean,
            check.theoretical_mean,
            check.sample_variance,
            check.theoretical_variance
        );
    }

    // Off-broadside arrival produces complex covariances — the general case
    // the algorithm supports and several conventional methods do not.
    let tilted = lookup("mimo-offbroadside").expect("registered scenario");
    let k_tilted = tilted.covariance_matrix().expect("valid scenario");
    println!();
    println!(
        "off-broadside ({}) covariance is complex:\n{k_tilted:.4}",
        tilted.title
    );
}
