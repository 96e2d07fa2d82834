//! Golden-output regression test for the scalar kernel backend.
//!
//! `CORRFADE_KERNEL=scalar` promises **bit-exact** reproduction of the
//! output every release before the kernel-dispatch layer produced — the
//! scalar backend is the reference the vectorized backends are validated
//! against, and downstream users rely on it for reproducible experiment
//! reruns. This test pins that promise to hard-coded `f64::to_bits`
//! patterns captured from the pre-kernel implementation (PR 3), for both
//! generation modes and the raw RNG stream.
//!
//! The whole file is a single `#[test]` in its own integration-test binary:
//! the environment override must be installed before the process-wide
//! backend latch is first read, and no other test may race that write.

use corrfade::{ChannelStream, CorrelatedRayleighGenerator, RealtimeConfig, RealtimeGenerator};
use corrfade_linalg::kernel::Backend;
use corrfade_linalg::SampleBlock;
use corrfade_models::paper_covariance_matrix_22;
use rand::RngCore;

/// `(envelope j, sample l, re bits, im bits)` golden samples.
type Golden = (usize, usize, u64, u64);

/// First realtime block: Eq. 22 covariance, `M = 512`, `f_m = 0.05`,
/// `σ²_orig = 0.5`, seed `0xBEEF` (the `streaming_equivalence` config).
const REALTIME_BLOCK1: [Golden; 12] = [
    (0, 0, 0xbff09bb6f6a61601, 0xbff7d53e8bbb999c),
    (0, 1, 0xbff1b2c17b5958a9, 0xbff672c99253c08a),
    (0, 255, 0x3fc16ce3dc2e04f4, 0x3ff127bb1b76f3fe),
    (0, 511, 0xbfee8cda7d8cc7ad, 0xbff7d32b02929810),
    (1, 0, 0xbffc4c8181d891eb, 0x3fcfe6dd62e6285f),
    (1, 1, 0xbffcc61aeaa66c64, 0x3fd9fc8b78da9017),
    (1, 255, 0x3fe77a450ecbfbbf, 0x4001cbffe129db88),
    (1, 511, 0xbffa830264c042ae, 0x3fb791fdfee968c7),
    (2, 0, 0x3fc9a2adaf4035fa, 0x3fd00db837108501),
    (2, 1, 0x3fcbc644e22e9ef9, 0x3fcc6e7577c51190),
    (2, 255, 0xbfc38e0c5e63d039, 0x3fdbad918140596e),
    (2, 511, 0x3fc2d7724bb0fffc, 0x3fd163c136bd5cb8),
];

/// First sample of the second realtime block (same generator, RNG advanced).
const REALTIME_BLOCK2_J0_L0: (u64, u64) = (0x3ff392e39c9cef44, 0xbfd986c27ab9d11c);

/// Single-instant stream: Eq. 22 covariance, seed `0xCAFE`, block length 8.
const SINGLE_INSTANT: [Golden; 6] = [
    (0, 0, 0xbfdef84bdb703d1c, 0x3fe2fdc2d0b3f6c2),
    (0, 7, 0x3ff25bdf92161213, 0xbfe098ce50c1ae70),
    (1, 0, 0x3fc8ccee6b662cab, 0x3fed55fd18c8c47d),
    (1, 7, 0x3fda1e026ab725a1, 0x3fa9a36a4a7148af),
    (2, 0, 0x3fe9b6d4c28fd971, 0x3fd76eb629bb7a13),
    (2, 7, 0x3fe539016a4fc6d5, 0x3fd0c25d79d789d0),
];

/// First 8 `u32` words of `RandomStream::new(3)` — pins the vendored RNG
/// stack underneath everything else.
const RNG_STREAM3: [u32; 8] = [
    0x2eca9bdb, 0x6382d88d, 0x8ea1257a, 0xd49c1ff8, 0x3e401684, 0x94f0a612, 0xbf5a3d51, 0x2dbe91ce,
];

fn assert_bits(block: &SampleBlock, golden: &[Golden], label: &str) {
    for &(j, l, re_bits, im_bits) in golden {
        let z = block.path(j)[l];
        assert_eq!(
            (z.re.to_bits(), z.im.to_bits()),
            (re_bits, im_bits),
            "{label}: envelope {j}, sample {l} diverged from the pre-kernel \
             golden output: got {}{:+}i",
            z.re,
            z.im
        );
    }
}

#[test]
fn scalar_backend_reproduces_pre_kernel_golden_outputs() {
    // Must happen before anything queries the backend latch; this file is
    // its own process and holds exactly one test, so nothing races it.
    std::env::set_var("CORRFADE_KERNEL", "scalar");
    assert_eq!(corrfade_linalg::kernel::backend(), Backend::Scalar);

    // RNG substrate.
    let mut rng = corrfade_randn::RandomStream::new(3);
    for (i, &expected) in RNG_STREAM3.iter().enumerate() {
        assert_eq!(rng.next_u32(), expected, "RNG word {i} diverged");
    }

    // Realtime (Doppler) generation: coloring matvec + in-place IDFT.
    let cfg = RealtimeConfig {
        covariance: paper_covariance_matrix_22(),
        idft_size: 512,
        normalized_doppler: 0.05,
        sigma_orig_sq: 0.5,
        seed: 0xBEEF,
        // Golden constants are the f64 reference tier by definition.
        precision: corrfade::Precision::F64,
    };
    let mut rt = RealtimeGenerator::new(cfg).unwrap();
    let mut block = SampleBlock::empty();
    rt.next_block_into(&mut block).unwrap();
    assert_bits(&block, &REALTIME_BLOCK1, "realtime block 1");
    rt.next_block_into(&mut block).unwrap();
    let z = block.path(0)[0];
    assert_eq!(
        (z.re.to_bits(), z.im.to_bits()),
        REALTIME_BLOCK2_J0_L0,
        "realtime block 2 diverged"
    );

    // Single-instant streaming: per-snapshot matvec path.
    let mut si = CorrelatedRayleighGenerator::new(paper_covariance_matrix_22(), 0xCAFE)
        .unwrap()
        .with_stream_block_len(8);
    si.next_block_into(&mut block).unwrap();
    assert_bits(&block, &SINGLE_INSTANT, "single-instant block");

    // The process-wide decomposition cache: a generator assembled from the
    // cached coloring must reproduce the identical golden bits (the cache
    // key is the exact bit pattern of the covariance matrix, so a hit
    // returns exactly what the uncached decomposition produced), and the
    // second lookup must be answered from the cache.
    let k = paper_covariance_matrix_22();
    let before = corrfade::coloring_cache_stats();
    let first = corrfade::cached_eigen_coloring(&k).unwrap();
    let second = corrfade::cached_eigen_coloring(&k).unwrap();
    let after = corrfade::coloring_cache_stats();
    assert!(
        after.misses > before.misses && after.hits > before.hits,
        "second lookup of the same covariance must hit the cache \
         (stats {before:?} -> {after:?})"
    );
    assert_eq!(
        first.matrix.as_slice(),
        second.matrix.as_slice(),
        "cache hit returned a different coloring"
    );
    let cfg_cached = RealtimeConfig {
        covariance: k,
        idft_size: 512,
        normalized_doppler: 0.05,
        sigma_orig_sq: 0.5,
        seed: 0xBEEF,
        // Golden constants are the f64 reference tier by definition.
        precision: corrfade::Precision::F64,
    };
    let mut rt_cached =
        RealtimeGenerator::from_coloring(corrfade::Coloring::clone(&second), cfg_cached).unwrap();
    rt_cached.next_block_into(&mut block).unwrap();
    assert_bits(&block, &REALTIME_BLOCK1, "cached-coloring realtime block 1");
}
