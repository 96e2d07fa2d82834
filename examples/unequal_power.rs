//! Unequal-power envelopes and non-PSD covariance targets — the two
//! generalizations the paper's title promises over the conventional methods,
//! resolved from the registry as the `unequal-power-spatial` and
//! `indefinite-rho09` scenarios.
//!
//! Run with: `cargo run --release --example unequal_power`

use corrfade::{ChannelStream, SampleBlock};
use corrfade_scenarios::{lookup, PowerProfile};
use corrfade_stats::{relative_frobenius_error, sample_covariance_from_block};

fn main() {
    // 1. Unequal powers specified as desired *envelope* variances σ_r²
    //    (converted through Eq. 11), on top of the paper's spatial
    //    correlation structure.
    let scenario = lookup("unequal-power-spatial").expect("registered scenario");
    let PowerProfile::Envelope(requested) = scenario.powers else {
        unreachable!("unequal-power-spatial declares envelope powers");
    };
    let mut gen = scenario
        .build(0xAB)
        .expect("valid configuration")
        .with_stream_block_len(150_000);
    println!("scenario: {} — {}", scenario.name, scenario.title);
    println!("desired covariance with unequal powers (Eq. 11 applied):");
    println!("{:.4}", gen.desired_covariance());

    let mut block = SampleBlock::empty();
    gen.next_block_into(&mut block)
        .expect("valid configuration");
    for (j, &r) in requested.iter().enumerate() {
        println!(
            "envelope {}: requested sigma_r^2 = {:.3}, measured envelope variance = {:.3}",
            j + 1,
            r,
            corrfade_stats::variance(block.envelope_path(j))
        );
    }

    // 2. A covariance target that is NOT positive semi-definite: correlation
    //    +0.9 / +0.9 / -0.9 is jointly infeasible. Conventional Cholesky
    //    methods abort; the proposed algorithm replaces the target with its
    //    closest PSD approximation and proceeds.
    let stress = lookup("indefinite-rho09").expect("registered scenario");
    let infeasible = stress.covariance_matrix().expect("valid scenario");
    println!();
    println!("scenario: {} — {}", stress.name, stress.title);
    println!("infeasible (non-PSD) covariance target:");
    println!("{infeasible:.4}");
    println!(
        "Cholesky (conventional methods): {}",
        match corrfade_linalg::cholesky(&infeasible) {
            Ok(_) => "succeeded (unexpected!)".to_string(),
            Err(e) => format!("fails — {e}"),
        }
    );

    let mut gen = stress
        .build(0xAC)
        .expect("the proposed algorithm accepts non-PSD targets");
    println!(
        "proposed algorithm: clipped {} negative eigenvalue(s); realized (closest PSD) covariance:",
        gen.coloring().psd.clipped_count
    );
    println!("{:.4}", gen.realized_covariance());

    gen.set_stream_block_len(150_000);
    gen.next_block_into(&mut block)
        .expect("valid configuration");
    let khat = sample_covariance_from_block(&block);
    println!("sample covariance of the generated envelopes:");
    println!("{khat:.4}");
    println!(
        "rel. error vs realized (forced) covariance: {:.4}",
        relative_frobenius_error(&khat, &gen.realized_covariance())
    );
    println!(
        "rel. distance of forced covariance from the infeasible target: {:.4}",
        relative_frobenius_error(&gen.realized_covariance(), &infeasible)
    );
}
