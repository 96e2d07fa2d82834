//! Streaming-equivalence regression tests: the zero-allocation
//! `ChannelStream` path must be **bit-identical** to the legacy wrapper APIs
//! for equal seeds — on both paper covariance matrices (Eq. 22 spectral,
//! Eq. 23 spatial), in both generation modes, and through the parallel
//! engine at every thread count.

use corrfade::{
    ChannelStream, CorrelatedRayleighGenerator, RealtimeConfig, RealtimeGenerator, SampleBlock,
};
use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};

fn paper_matrices() -> [(&'static str, corrfade_linalg::CMatrix); 2] {
    [
        ("Eq. 22 spectral", paper_covariance_matrix_22()),
        ("Eq. 23 spatial", paper_covariance_matrix_23()),
    ]
}

fn realtime_config(k: corrfade_linalg::CMatrix, seed: u64) -> RealtimeConfig {
    RealtimeConfig {
        covariance: k,
        idft_size: 512,
        normalized_doppler: 0.05,
        sigma_orig_sq: 0.5,
        seed,
        precision: corrfade::Precision::F64,
    }
}

#[test]
fn realtime_streaming_matches_generate_blocks_bit_for_bit() {
    const BLOCKS: usize = 5;
    for (label, k) in paper_matrices() {
        let mut legacy = RealtimeGenerator::new(realtime_config(k.clone(), 0xBEEF)).unwrap();
        let mut streaming = RealtimeGenerator::new(realtime_config(k, 0xBEEF)).unwrap();
        let reference = legacy.generate_blocks(BLOCKS);

        let mut block = SampleBlock::empty();
        let mut offset = 0usize;
        for _ in 0..BLOCKS {
            streaming.next_block_into(&mut block).unwrap();
            let m = block.samples();
            for j in 0..block.envelopes() {
                assert_eq!(
                    &reference.gaussian_paths[j][offset..offset + m],
                    block.path(j),
                    "{label}: gaussian path {j} diverged at block offset {offset}"
                );
                assert_eq!(
                    &reference.envelope_paths[j][offset..offset + m],
                    block.envelope_path(j),
                    "{label}: envelope path {j} diverged at block offset {offset}"
                );
            }
            offset += m;
        }
        assert_eq!(offset, reference.samples());
    }
}

#[test]
fn single_instant_streaming_matches_generate_snapshots_bit_for_bit() {
    const BATCH: usize = 100;
    const BLOCKS: usize = 4;
    for (label, k) in paper_matrices() {
        let mut legacy = CorrelatedRayleighGenerator::new(k.clone(), 0xCAFE).unwrap();
        let mut streaming = CorrelatedRayleighGenerator::new(k, 0xCAFE)
            .unwrap()
            .with_stream_block_len(BATCH);
        let reference = legacy.generate_snapshots(BATCH * BLOCKS);

        let mut block = SampleBlock::empty();
        for b in 0..BLOCKS {
            streaming.next_block_into(&mut block).unwrap();
            for l in 0..BATCH {
                for (j, &z) in reference[b * BATCH + l].iter().enumerate() {
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
    use corrfade_parallel::ParallelConfig;
    for (label, k) in paper_matrices() {
        // Snapshot ensembles: bit-identical for every worker count, and
        // bit-identical to a sequential generator streaming the same chunk
        // seeds.
        let cfg = |threads| ParallelConfig {
            threads,
            chunk_size: 256,
            seed: 77,
        };
        let one = corrfade_parallel::generate_snapshots(&k, 1000, &cfg(1)).unwrap();
        for threads in [2usize, 4, 8] {
            let many = corrfade_parallel::generate_snapshots(&k, 1000, &cfg(threads)).unwrap();
            assert_eq!(
                one, many,
                "{label}: ensemble changed with {threads} threads"
            );
        }
        // Chunk 0 covers the first `effective_chunk_size` samples (the
        // configured chunk_size bounded by the load-balancing heuristic).
        let chunk0 = cfg(1).effective_chunk_size(1000);
        let mut sequential =
            CorrelatedRayleighGenerator::new(k.clone(), corrfade_parallel::chunk_seed(77, 0))
                .unwrap();
        assert_eq!(
            &one[..chunk0],
            &sequential.generate_snapshots(chunk0)[..],
            "{label}: parallel chunk 0 diverged from the sequential generator"
        );

        // Realtime block paths: bit-identical for every worker count.
        let base = realtime_config(k, 5);
        let a = corrfade_parallel::generate_realtime_paths(&base, 4, &cfg(1)).unwrap();
        for threads in [2usize, 4] {
            let b = corrfade_parallel::generate_realtime_paths(&base, 4, &cfg(threads)).unwrap();
            assert_eq!(
                a, b,
                "{label}: realtime paths changed with {threads} threads"
            );
        }
    }
}

#[test]
fn streamed_covariance_estimates_agree_between_engines() {
    use corrfade_parallel::ParallelConfig;
    for (label, k) in paper_matrices() {
        let cfg = ParallelConfig {
            threads: 3,
            chunk_size: 512,
            seed: 3,
        };
        let snaps = corrfade_parallel::generate_snapshots(&k, 4096, &cfg).unwrap();
        let materialized = corrfade_stats::sample_covariance(&snaps);
        let streamed = corrfade_parallel::monte_carlo_covariance(&k, 4096, &cfg).unwrap();
        assert!(
            materialized.approx_eq(&streamed, 1e-10),
            "{label}: streaming covariance fold diverged from the materialized estimate"
        );
    }
}
