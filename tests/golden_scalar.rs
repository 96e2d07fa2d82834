//! Golden-output regression test for the scalar kernel backend.
//!
//! `CORRFADE_KERNEL=scalar` promises **bit-exact** reproduction of the
//! output every release before the kernel-dispatch layer produced — the
//! scalar backend is the reference the vectorized backends are validated
//! against, and downstream users rely on it for reproducible experiment
//! reruns. This test pins that promise to hard-coded `f64::to_bits`
//! patterns captured from the pre-kernel implementation (PR 3), for both
//! generation modes and the raw RNG stream. The conventional baselines'
//! first blocks (refs [1], [4], [5], [6] single-instant, and [6]'s flawed
//! realtime combination) are pinned the same way, captured before those
//! methods were rebuilt as restriction checks over one shared sampler.
//!
//! The whole file is a single `#[test]` in its own integration-test binary:
//! the environment override must be installed before the process-wide
//! backend latch is first read, and no other test may race that write.

use corrfade::{ChannelStream, CorrelatedRayleighGenerator, RealtimeConfig, RealtimeGenerator};
use corrfade_baselines::{BaselineMethod, SorooshyariDautRealtimeGenerator};
use corrfade_linalg::kernel::Backend;
use corrfade_linalg::SampleBlock;
use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};
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

/// First `ChannelStream` block (1024 snapshots) of each single-instant
/// baseline through `BaselineMethod::try_stream`: `(method, Eq. 22 or 23,
/// seed, golden samples)`. Natarajan [5] takes Eq. 23 because it rejects
/// the complex Eq. 22.
const BASELINE_SNAPSHOTS: [(BaselineMethod, bool, u64, [Golden; 6]); 4] = [
    (
        BaselineMethod::SalzWinters,
        true,
        0x5A1A,
        [
            (0, 0, 0xbfd43ee8c585feb6, 0x3fda6a2d3f463064),
            (0, 1023, 0xbfabe982c75a59b0, 0x3fcd205265e96590),
            (1, 0, 0xbfe39bf9699f2e0b, 0x3f74679c3e224280),
            (1, 1023, 0x3fd812d7aacf11c3, 0x3fd44e08b1297f1e),
            (2, 0, 0x3ff3da2ae0c57c4f, 0x3feff28b6a098ef2),
            (2, 1023, 0x3ff175170d19c357, 0x3ff1b8ba173c857a),
        ],
    ),
    (
        BaselineMethod::BeaulieuMerani,
        true,
        0xBEA4,
        [
            (0, 0, 0xbfed6aa71403119a, 0xbff2c5b8154bb28e),
            (0, 1023, 0x3fedb84dc85b055f, 0xbfe58d060bfa41be),
            (1, 0, 0xbfc536ca9233edc6, 0x3fd5e1373123d7d9),
            (1, 1023, 0xbfdaf38bccbfc765, 0xbfe2abefc9ac7295),
            (2, 0, 0xbfe49652b0704558, 0xbfd627496fb10b58),
            (2, 1023, 0x3fe04f0dea63e282, 0xbfddc020d94ba070),
        ],
    ),
    (
        BaselineMethod::Natarajan,
        false,
        0x4A7A,
        [
            (0, 0, 0xbff44b6b7ee3c487, 0xbfc92edb4d19b8de),
            (0, 1023, 0xbfe7bd97083720f1, 0xbfb4c82b140dabf1),
            (1, 0, 0xbff3a090f9cdaa55, 0xbfe5f5d686ed6774),
            (1, 1023, 0xbfdd386320b28b1e, 0xbfe09ed052642e79),
            (2, 0, 0xbfe43732b45e8aaa, 0xbfe1c9f3c90c2fbc),
            (2, 1023, 0x3fa14d7751bf67e0, 0xbfe326b73e14923f),
        ],
    ),
    (
        BaselineMethod::SorooshyariDaut,
        true,
        0x50D6,
        [
            (0, 0, 0x3fdc5a0fcd0ceabb, 0xbfda168c65151d5a),
            (0, 1023, 0x3fdd66ce99b6277a, 0x3fe679ae6c75c959),
            (1, 0, 0xbfe7dd1c4cebebcc, 0xbfd59d1178f1d14d),
            (1, 1023, 0x3fd366d29c92c0dc, 0xbfe1a1a4e41b2dcf),
            (2, 0, 0x3fbac4dc1cf38ffe, 0x3ff1b36f89fa8f68),
            (2, 1023, 0x3f9f09e2fab1299d, 0x3fe30eb68fd59368),
        ],
    ),
];

/// First block of the flawed ref.-[6] realtime combination
/// (`SorooshyariDautRealtimeGenerator`): Eq. 22 covariance, `M = 512`,
/// `f_m = 0.05`, `σ²_orig = 0.5`, seed `0xBEEF`.
const SOROOSHYARI_DAUT_REALTIME_BLOCK1: [Golden; 6] = [
    (0, 0, 0xbf6aa5a54666d526, 0xbf93ae1e4995c633),
    (0, 511, 0xbf5ed6098785a024, 0xbf93161d9b59948a),
    (1, 0, 0xbf8074fc9af6d0c6, 0xbf9426ea4af3eb07),
    (1, 511, 0xbf7c2b9b3a995304, 0xbf93858fcd228013),
    (2, 0, 0xbf84c752346576fb, 0xbf5e5c335e846e6b),
    (2, 511, 0xbf865a3ecab7d55b, 0xbf6570f81033dc6c),
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

    // The conventional baselines: each single-instant method's first
    // streamed block, and the flawed ref.-[6] realtime combination.
    for (method, eq22, seed, golden) in &BASELINE_SNAPSHOTS {
        let k = if *eq22 {
            paper_covariance_matrix_22()
        } else {
            paper_covariance_matrix_23()
        };
        let mut stream = method.try_stream(&k, *seed).unwrap();
        stream.next_block_into(&mut block).unwrap();
        assert_bits(&block, golden, method.name());
    }
    let mut sd_rt = SorooshyariDautRealtimeGenerator::new(
        &paper_covariance_matrix_22(),
        512,
        0.05,
        0.5,
        0xBEEF,
    )
    .unwrap();
    sd_rt.next_block_into(&mut block).unwrap();
    assert_bits(
        &block,
        &SOROOSHYARI_DAUT_REALTIME_BLOCK1,
        "Sorooshyari-Daut realtime block 1",
    );

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
