//! Streaming-equivalence regression tests: the zero-allocation
//! `ChannelStream` path of the single-instant generator must be
//! **bit-identical** to repeated per-snapshot `sample_gaussian()` calls for
//! equal seeds on both paper covariance matrices (Eq. 22 spectral, Eq. 23
//! spatial), and the parallel engine's streamed covariance estimate must be
//! bit-identical at every thread count and to a sequential generator.
//! (The real-time stream's bits are pinned by `golden_scalar`.)

use corrfade::{ChannelStream, CorrelatedRayleighGenerator, SampleBlock};
use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};
use corrfade_parallel::{ParallelConfig, Runtime};

fn paper_matrices() -> [(&'static str, corrfade_linalg::CMatrix); 2] {
    [
        ("Eq. 22 spectral", paper_covariance_matrix_22()),
        ("Eq. 23 spatial", paper_covariance_matrix_23()),
    ]
}

fn parallel_config() -> ParallelConfig {
    ParallelConfig {
        chunk_size: 256,
        seed: 77,
    }
}

#[test]
fn single_instant_streaming_matches_sample_gaussian_bit_for_bit() {
    const BATCH: usize = 100;
    const BLOCKS: usize = 4;
    for (label, k) in paper_matrices() {
        let mut reference = CorrelatedRayleighGenerator::new(k.clone(), 0xCAFE).unwrap();
        let mut streaming = CorrelatedRayleighGenerator::new(k, 0xCAFE)
            .unwrap()
            .with_stream_block_len(BATCH);

        let mut block = SampleBlock::empty();
        for b in 0..BLOCKS {
            streaming.next_block_into(&mut block).unwrap();
            for l in 0..BATCH {
                for (j, z) in reference.sample_gaussian().into_iter().enumerate() {
                    assert_eq!(
                        block.path(j)[l],
                        z,
                        "{label}: snapshot {} envelope {j} diverged",
                        b * BATCH + l
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_engine_is_thread_count_invariant_through_streaming() {
    for (label, k) in paper_matrices() {
        let estimate = |threads| {
            corrfade_parallel::monte_carlo_covariance_on(
                &Runtime::new(threads),
                &k,
                1000,
                &parallel_config(),
            )
            .unwrap()
        };
        let one = estimate(1);
        for threads in [2usize, 4, 8] {
            let many = estimate(threads);
            assert_eq!(
                one.as_slice(),
                many.as_slice(),
                "{label}: estimate changed with {threads} threads"
            );
        }
    }
}

#[test]
fn streamed_covariance_estimates_agree_between_engines() {
    // A workload of `MIN_CHUNK_SAMPLES` snapshots is exactly chunk 0, so the
    // pooled estimate must equal a sequential generator streaming chunk 0's
    // seed, bit for bit.
    let total = corrfade_parallel::MIN_CHUNK_SAMPLES;
    let cfg = parallel_config();
    assert_eq!(cfg.effective_chunk_size(total), total);
    for (label, k) in paper_matrices() {
        let pooled = corrfade_parallel::monte_carlo_covariance(&k, total, &cfg).unwrap();
        let block = CorrelatedRayleighGenerator::new(k, corrfade_parallel::chunk_seed(77, 0))
            .unwrap()
            .with_stream_block_len(total)
            .next_block()
            .unwrap();
        assert!(
            pooled.approx_eq(&corrfade_stats::sample_covariance_from_block(&block), 0.0),
            "{label}: parallel chunk 0 diverged from the sequential generator"
        );
    }
}
