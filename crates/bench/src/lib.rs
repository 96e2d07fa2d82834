//! # corrfade-bench
//!
//! Reporting helpers and paper reference data for the experiment binaries
//! (`src/bin/exp_e*.rs`) and the Criterion benchmarks (`benches/`). Channel
//! configurations are resolved by name from the declarative registry in
//! [`corrfade_scenarios`]; this crate only adds the paper-reported reference
//! matrices and the measurement plumbing around them.
//!
//! Every experiment of DESIGN.md §4 has a binary that prints the
//! paper-reported values next to the values measured from this
//! implementation; EXPERIMENTS.md records the comparison. The Criterion
//! benches measure the computational cost of the same code paths.

#![warn(missing_docs)]

use corrfade::{ChannelStream, RealtimeConfig, RealtimeGenerator, SampleBlock};
use corrfade_linalg::{CMatrix, Complex64};
use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};

pub mod report;

/// The paper's real-time generation settings (Sec. 6): `M = 4096`,
/// `f_m = 0.05`, `σ²_orig = 1/2`.
pub fn paper_realtime_config(covariance: CMatrix, seed: u64) -> RealtimeConfig {
    RealtimeConfig::paper_defaults(covariance, seed)
}

/// Builds the paper's spectral-scenario covariance matrix (should equal
/// Eq. 22) by resolving the registered `fig4a-spectral` scenario.
pub fn computed_spectral_covariance() -> CMatrix {
    corrfade_scenarios::lookup("fig4a-spectral")
        .expect("paper scenario is registered")
        .covariance_matrix()
        .expect("paper scenario is well-formed")
}

/// Builds the paper's spatial-scenario covariance matrix (should equal
/// Eq. 23) by resolving the registered `fig4b-spatial` scenario.
pub fn computed_spatial_covariance() -> CMatrix {
    corrfade_scenarios::lookup("fig4b-spatial")
        .expect("paper scenario is registered")
        .covariance_matrix()
        .expect("paper scenario is well-formed")
}

/// The covariance matrix printed in the paper as Eq. (22).
pub fn reported_spectral_covariance() -> CMatrix {
    paper_covariance_matrix_22()
}

/// The covariance matrix printed in the paper as Eq. (23).
pub fn reported_spatial_covariance() -> CMatrix {
    paper_covariance_matrix_23()
}

/// Generates the first `samples` time samples of the paper's Fig.-4-style
/// experiment for the given covariance matrix (real-time mode, paper
/// parameters) and returns the envelope paths in dB around RMS — exactly the
/// quantity plotted in Fig. 4. Streams one planar block and reads the lazy
/// envelope view.
pub fn fig4_envelope_traces(covariance: CMatrix, samples: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut gen = RealtimeGenerator::new(paper_realtime_config(covariance, seed))
        .expect("paper configuration is valid");
    let mut block = SampleBlock::empty();
    gen.next_block_into(&mut block)
        .expect("streaming is infallible after construction");
    (0..block.envelopes())
        .map(|j| {
            let path = block.envelope_path(j);
            corrfade_stats::envelope_db_around_rms(&path[..samples.min(path.len())])
        })
        .collect()
}

/// Concatenates several real-time blocks into per-envelope complex paths —
/// the raw material for the covariance / autocorrelation measurements of
/// experiments E3, E4 and E6. One planar block is streamed into repeatedly;
/// only the concatenated output paths are materialized.
pub fn realtime_paths(covariance: CMatrix, blocks: usize, seed: u64) -> Vec<Vec<Complex64>> {
    let mut gen = RealtimeGenerator::new(paper_realtime_config(covariance, seed))
        .expect("paper configuration is valid");
    collect_stream_paths(&mut gen, blocks)
}

/// Drives any [`ChannelStream`] for `blocks` blocks through one pooled
/// planar buffer and concatenates the per-envelope complex paths.
pub fn collect_stream_paths<S: ChannelStream + ?Sized>(
    stream: &mut S,
    blocks: usize,
) -> Vec<Vec<Complex64>> {
    let n = stream.dimension();
    let mut paths: Vec<Vec<Complex64>> = vec![Vec::new(); n];
    let mut block = SampleBlock::empty();
    for _ in 0..blocks {
        stream
            .next_block_into(&mut block)
            .expect("in-tree streams are infallible after construction");
        for (j, path) in paths.iter_mut().enumerate() {
            path.extend_from_slice(block.path(j));
        }
    }
    paths
}

/// Estimates the sample covariance of any [`ChannelStream`] over `blocks`
/// blocks, folding the accumulator straight from the pooled planar buffer —
/// nothing but the `N × N` accumulator is materialized.
pub fn stream_covariance<S: ChannelStream + ?Sized>(stream: &mut S, blocks: usize) -> CMatrix {
    let n = stream.dimension();
    let mut acc = CMatrix::zeros(n, n);
    let mut block = SampleBlock::empty();
    let mut total = 0usize;
    for _ in 0..blocks {
        stream
            .next_block_into(&mut block)
            .expect("in-tree streams are infallible after construction");
        block.accumulate_covariance(&mut acc);
        total += block.samples();
    }
    assert!(total > 0, "stream_covariance: zero samples streamed");
    acc.scale_real(1.0 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_stats::relative_frobenius_error;

    #[test]
    fn computed_matrices_match_reported_matrices() {
        assert!(
            computed_spectral_covariance().max_abs_diff(&reported_spectral_covariance()) < 5e-4
        );
        assert!(computed_spatial_covariance().max_abs_diff(&reported_spatial_covariance()) < 5e-4);
    }

    #[test]
    fn fig4_traces_have_the_requested_shape() {
        let traces = fig4_envelope_traces(reported_spatial_covariance(), 200, 1);
        assert_eq!(traces.len(), 3);
        assert!(traces.iter().all(|t| t.len() == 200));
        // dB around RMS: values are centred around 0 dB and deep fades are
        // strongly negative.
        for t in &traces {
            let max = t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(max < 15.0 && max > 0.0);
        }
    }

    #[test]
    fn realtime_paths_realize_the_covariance() {
        let k = reported_spectral_covariance();
        let paths = realtime_paths(k.clone(), 6, 3);
        let khat = corrfade_stats::sample_covariance_from_paths(&paths);
        assert!(relative_frobenius_error(&khat, &k) < 0.15);
    }

    #[test]
    fn stream_covariance_matches_materialized_paths() {
        let k = reported_spatial_covariance();
        let cfg = paper_realtime_config(k.clone(), 9);
        let mut a = RealtimeGenerator::new(cfg.clone()).unwrap();
        let mut b = RealtimeGenerator::new(cfg).unwrap();
        let paths = collect_stream_paths(&mut a, 4);
        let from_paths = corrfade_stats::sample_covariance_from_paths(&paths);
        let streamed = stream_covariance(&mut b, 4);
        assert!(streamed.approx_eq(&from_paths, 1e-10));
    }
}
