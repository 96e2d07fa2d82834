//! Quickstart: generate three correlated Rayleigh fading envelopes from a
//! named scenario in the registry and check their statistics.
//!
//! Run with: `cargo run --release --example quickstart`

use corrfade::{ChannelStream, SampleBlock};
use corrfade_scenarios::lookup;
use corrfade_stats::{relative_frobenius_error, sample_covariance_from_block};

fn main() {
    println!("corrfade quickstart (v{})", corrfade_suite::VERSION);
    println!();

    // 1. Pick a scenario from the registry by name. `quickstart-demo` is a
    //    small, well-behaved 3x3 complex covariance; run
    //    `corrfade_scenarios::names()` for the full catalog.
    let scenario = lookup("quickstart-demo").expect("registered scenario");
    println!("scenario: {} — {}", scenario.name, scenario.title);
    let k = scenario.covariance_matrix().expect("valid scenario");

    // 2. Build the generator (eigendecomposition + coloring happen here).
    let mut gen = scenario.build(42).expect("valid covariance");
    println!("envelopes: {}", gen.dimension());
    println!(
        "covariance was PSD: {} (clipped eigenvalues: {})",
        gen.coloring().psd.was_positive_semidefinite,
        gen.coloring().psd.clipped_count
    );

    // 3. Draw a few samples: each sample is one vector of N complex Gaussians
    //    and their Rayleigh envelopes.
    println!();
    println!("first five samples (envelopes):");
    for i in 0..5 {
        let s = gen.sample();
        let formatted: Vec<String> = s.envelopes.iter().map(|r| format!("{r:.3}")).collect();
        println!("  sample {i}: [{}]", formatted.join(", "));
    }

    // 4. Verify the headline property E[Z·Z^H] = K on a larger ensemble,
    //    streamed through the zero-allocation block API: the generator
    //    batches 100k snapshots into one caller-owned planar SampleBlock.
    gen.set_stream_block_len(100_000);
    let mut block = SampleBlock::empty();
    gen.next_block_into(&mut block)
        .expect("valid configuration");
    let khat = sample_covariance_from_block(&block);
    println!();
    println!("desired covariance:\n{k:.4}");
    println!("sample covariance over 100k snapshots:\n{khat:.4}");
    println!(
        "relative Frobenius error: {:.4}",
        relative_frobenius_error(&khat, &k)
    );

    // 5. The same scenario through the builder bridge, overriding the powers
    //    with desired *envelope* variances σ_r² (Eq. 11 conversion happens
    //    internally).
    let requested = [0.2146, 0.4292, 0.2146];
    let mut gen2 = scenario
        .to_builder()
        .envelope_powers(&requested)
        .seed(7)
        .build()
        .expect("valid configuration")
        .with_stream_block_len(50_000);
    gen2.next_block_into(&mut block)
        .expect("valid configuration");
    println!();
    println!("builder with envelope powers {requested:?}:");
    for (j, &r) in requested.iter().enumerate() {
        println!(
            "  envelope {} variance: {:.4} (requested {:.4})",
            j + 1,
            corrfade_stats::variance(block.envelope_path(j)),
            r
        );
    }

    // 6. Real-time (Doppler) mode as a boxed ChannelStream: services resolve
    //    a scenario by name and stream M-sample blocks from it, reusing the
    //    same planar buffer — zero heap allocation per block in steady
    //    state.
    let mut stream = scenario.stream(3).expect("valid scenario");
    stream.next_block_into(&mut block).expect("valid scenario");
    println!();
    println!(
        "streamed one real-time block: {} envelopes x {} Doppler-correlated samples",
        block.envelopes(),
        block.samples()
    );
}
