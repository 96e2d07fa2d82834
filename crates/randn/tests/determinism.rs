//! Determinism and stream-independence guarantees of the random substrate.
//!
//! The parallel engine and every statistical regression test in the
//! workspace rely on two properties proved here end-to-end (uniform stream →
//! normal transform → complex Gaussian vector):
//!
//! 1. **Reproducibility** — the same `(seed, stream)` pair always produces
//!    the identical sample sequence, across generator instances.
//! 2. **Stream independence** — different stream ids of one master seed
//!    produce statistically decorrelated sequences (no overlap, negligible
//!    sample correlation).

use corrfade_randn::{ComplexGaussian, NormalSampler, RandomStream};
use rand::RngCore;

#[test]
fn same_seed_identical_uniform_sequence() {
    let mut a = RandomStream::substream(0xDEAD_BEEF, 3);
    let mut b = RandomStream::substream(0xDEAD_BEEF, 3);
    let seq_a: Vec<u64> = (0..256).map(|_| a.next_u64()).collect();
    let seq_b: Vec<u64> = (0..256).map(|_| b.next_u64()).collect();
    assert_eq!(seq_a, seq_b);
}

#[test]
fn same_seed_identical_normal_sequence() {
    let draw = || {
        let mut rng = RandomStream::substream(42, 0);
        let mut sampler = NormalSampler::default();
        (0..512)
            .map(|_| sampler.sample(&mut rng))
            .collect::<Vec<f64>>()
    };
    let a = draw();
    let b = draw();
    assert_eq!(a, b, "normal transform must be bit-reproducible per seed");
}

#[test]
fn same_seed_identical_complex_gaussian_vector() {
    let draw = || {
        let mut rng = RandomStream::substream(7, 2);
        ComplexGaussian::default().sample_vec(&mut rng, 128, 1.5)
    };
    assert_eq!(draw(), draw());
}

#[test]
fn different_seeds_produce_disjoint_sequences() {
    let mut a = RandomStream::new(1);
    let mut b = RandomStream::new(2);
    let collisions = (0..512).filter(|_| a.next_u64() == b.next_u64()).count();
    assert_eq!(collisions, 0);
}

#[test]
fn different_stream_ids_are_decorrelated() {
    // Pearson correlation between the uniform outputs of neighbouring
    // streams must be statistically indistinguishable from zero.
    let n = 50_000;
    for pair in [(0u64, 1u64), (1, 2), (0, 1 << 40)] {
        let mut s1 = RandomStream::substream(99, pair.0);
        let mut s2 = RandomStream::substream(99, pair.1);
        let to_unit = |v: u64| (v >> 11) as f64 / (1u64 << 53) as f64;
        let x: Vec<f64> = (0..n).map(|_| to_unit(s1.next_u64())).collect();
        let y: Vec<f64> = (0..n).map(|_| to_unit(s2.next_u64())).collect();
        let mx = x.iter().sum::<f64>() / n as f64;
        let my = y.iter().sum::<f64>() / n as f64;
        let cov: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (a - mx) * (b - my))
            .sum::<f64>();
        let vx: f64 = x.iter().map(|a| (a - mx).powi(2)).sum::<f64>();
        let vy: f64 = y.iter().map(|b| (b - my).powi(2)).sum::<f64>();
        let rho = cov / (vx * vy).sqrt();
        // 4σ bound for i.i.d. uniforms: σ_ρ ≈ 1/√n ≈ 0.0045.
        assert!(rho.abs() < 0.018, "streams {pair:?} correlate: rho = {rho}");
    }
}

#[test]
fn different_stream_ids_change_gaussian_output() {
    let mut g = ComplexGaussian::default();
    let mut r0 = RandomStream::substream(5, 0);
    let mut r1 = RandomStream::substream(5, 1);
    let a = g.sample_vec(&mut r0, 64, 1.0);
    let mut g2 = ComplexGaussian::default();
    let b = g2.sample_vec(&mut r1, 64, 1.0);
    assert_ne!(a, b);
}

#[test]
fn child_streams_are_deterministic_functions_of_parent_identity() {
    let parent_a = RandomStream::substream(11, 6);
    let parent_b = RandomStream::substream(11, 6);
    let mut c1 = parent_a.child(4);
    let mut c2 = parent_b.child(4);
    for _ in 0..64 {
        assert_eq!(c1.next_u64(), c2.next_u64());
    }
    // ... and distinct child indices diverge.
    let mut c3 = parent_a.child(5);
    let collisions = {
        let mut c1 = parent_a.child(4);
        (0..256).filter(|_| c1.next_u64() == c3.next_u64()).count()
    };
    assert_eq!(collisions, 0);
}
