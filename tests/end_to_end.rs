//! End-to-end integration tests spanning every crate of the workspace:
//! physical parameters → correlation model → covariance matrix → coloring →
//! generation → statistical validation.

use corrfade::{
    ChannelStream, CorrelatedRayleighGenerator, GeneratorBuilder, RealtimeConfig,
    RealtimeGenerator, SampleBlock,
};
use corrfade_linalg::{c64, CMatrix};
use corrfade_models::{
    paper_covariance_matrix_22, paper_covariance_matrix_23, paper_spatial_scenario,
    paper_spectral_scenario, ChannelParams,
};
use corrfade_stats::{ks_test, relative_frobenius_error, sample_covariance_from_block};

/// Sample covariance of `blocks` streamed blocks, folded block by block.
fn stream_covariance(stream: &mut dyn ChannelStream, blocks: usize) -> CMatrix {
    let n = stream.dimension();
    let mut acc = CMatrix::zeros(n, n);
    let mut block = SampleBlock::empty();
    for _ in 0..blocks {
        stream.next_block_into(&mut block).unwrap();
        block.accumulate_covariance(&mut acc);
    }
    acc.scale_real(1.0 / (blocks * stream.block_len()) as f64)
}

/// The full paper pipeline for the spectral (OFDM) experiment: physical
/// parameters produce Eq. (22); the generator realizes it; the envelopes are
/// Rayleigh with the Eq. (14)/(15) moments.
#[test]
fn spectral_experiment_end_to_end() {
    let params = ChannelParams::paper_defaults();
    assert!((params.max_doppler_hz() - 50.0).abs() < 0.1);

    let (model, freqs, delays) = paper_spectral_scenario();
    let k = model.covariance_matrix(&freqs, &delays).unwrap();
    assert!(k.max_abs_diff(&paper_covariance_matrix_22()) < 5e-4);

    let snapshots = |seed| {
        CorrelatedRayleighGenerator::new(k.clone(), seed)
            .unwrap()
            .with_stream_block_len(80_000)
            .next_block()
            .unwrap()
    };
    let khat = sample_covariance_from_block(&snapshots(0xE2E));
    assert!(relative_frobenius_error(&khat, &k) < 0.03);

    let mut block = snapshots(0xE2E1);
    for j in 0..block.envelopes() {
        let path = block.envelope_path(j);
        let moments = corrfade_stats::check_envelope_moments(path, 1.0);
        assert!(moments.max_relative_error() < 0.05, "{moments:?}");
        let sigma = corrfade_stats::rayleigh_scale(1.0);
        let t = ks_test(path, |r| corrfade_specfun::rayleigh_cdf(r, sigma));
        assert!(t.passes(0.001), "{t:?}");
    }
}

/// The full paper pipeline for the spatial (MIMO) experiment through the
/// builder API and the real-time generator.
#[test]
fn spatial_experiment_end_to_end_realtime() {
    let k = paper_spatial_scenario().covariance_matrix(3).unwrap();
    assert!(k.max_abs_diff(&paper_covariance_matrix_23()) < 5e-4);

    let mut gen = GeneratorBuilder::new()
        .spatial_scenario(paper_spatial_scenario(), 3)
        .seed(0xE2E2)
        .build_realtime(1024, 0.05, 0.5)
        .unwrap();
    const BLOCKS: usize = 30;
    let mut acc = CMatrix::zeros(3, 3);
    let mut rho = [[0.0f64; 31]; 3];
    let mut block = SampleBlock::empty();
    for _ in 0..BLOCKS {
        gen.next_block_into(&mut block).unwrap();
        block.accumulate_covariance(&mut acc);
        for (j, rho_j) in rho.iter_mut().enumerate() {
            let r = corrfade_stats::normalized_autocorrelation(block.path(j), 30);
            for (mean, r) in rho_j.iter_mut().zip(r) {
                *mean += r / BLOCKS as f64;
            }
        }
    }
    let khat = acc.scale_real(1.0 / (BLOCKS * gen.block_len()) as f64);
    assert!(relative_frobenius_error(&khat, &k) < 0.08);

    // Each envelope keeps the Doppler autocorrelation after coloring.
    let target = gen.filter().normalized_autocorrelation(30);
    for rho_j in &rho {
        for d in 0..=30 {
            assert!((rho_j[d] - target[d]).abs() < 0.25, "lag {d}");
        }
    }
}

/// The proposed algorithm and every applicable baseline agree on an easy
/// scenario; only the proposed algorithm covers the hard ones.
#[test]
fn proposed_covers_scenarios_baselines_cannot() {
    use corrfade_baselines::BaselineMethod;

    // Hard scenario: unequal powers AND complex covariances AND not PSD.
    let hard = CMatrix::from_rows(&[
        vec![c64(2.0, 0.0), c64(1.4, 0.2), c64(-1.3, 0.0)],
        vec![c64(1.4, -0.2), c64(1.0, 0.0), c64(0.9, 0.1)],
        vec![c64(-1.3, 0.0), c64(0.9, -0.1), c64(1.0, 0.0)],
    ]);
    for method in BaselineMethod::ALL {
        assert!(
            method.try_generate(&hard, 1).is_err(),
            "{} unexpectedly handled the hard scenario",
            method.name()
        );
    }
    let gen = CorrelatedRayleighGenerator::new(hard.clone(), 0xE2E3).unwrap();
    let forced = gen.realized_covariance();
    let khat =
        sample_covariance_from_block(&gen.with_stream_block_len(60_000).next_block().unwrap());
    assert!(relative_frobenius_error(&khat, &forced) < 0.04);
}

/// The parallel engine reproduces the sequential generator's statistics.
#[test]
fn parallel_engine_matches_sequential_statistics() {
    let k = paper_covariance_matrix_22();
    let cfg = corrfade_parallel::ParallelConfig {
        chunk_size: 4096,
        seed: 0xE2E4,
    };
    let khat = corrfade_parallel::monte_carlo_covariance(&k, 100_000, &cfg).unwrap();
    assert!(relative_frobenius_error(&khat, &k) < 0.03);
}

/// Real-time generation through the flawed ref.-[6] combination misses the
/// covariance by the Doppler variance factor, while the proposed combination
/// hits it — the paper's central comparative claim.
#[test]
fn variance_aware_combination_beats_the_flawed_one() {
    let k = paper_covariance_matrix_22();

    let mut proposed = RealtimeGenerator::new(RealtimeConfig {
        covariance: k.clone(),
        idft_size: 1024,
        normalized_doppler: 0.05,
        sigma_orig_sq: 0.5,
        seed: 0xE2E5,
        precision: corrfade::Precision::F64,
    })
    .unwrap();
    let err_proposed = relative_frobenius_error(&stream_covariance(&mut proposed, 20), &k);

    let mut flawed =
        corrfade_baselines::SorooshyariDautRealtimeGenerator::new(&k, 1024, 0.05, 0.5, 0xE2E5)
            .unwrap();
    let err_flawed = relative_frobenius_error(&stream_covariance(&mut flawed, 20), &k);

    assert!(
        err_flawed > 4.0 * err_proposed,
        "flawed combination error {err_flawed} should dwarf the proposed one {err_proposed}"
    );
}
