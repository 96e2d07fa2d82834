//! Bit identity of the batched `ComplexGaussian::fill` against the loop it
//! replaced: one `ComplexGaussian::sample` call per element. Every re/im
//! must match bit for bit (`to_bits`, so signed zeros count), both must
//! consume exactly the same keystream words, and a draw after the fill
//! must agree too (no normal is left cached in between).

use corrfade_linalg::Complex64;
use corrfade_randn::{ComplexGaussian, RandomStream};
use rand::RngCore;

/// Counts the `next_u64` calls it forwards (the only draw the samplers
/// make).
struct Counting<R> {
    inner: R,
    calls: u64,
}

impl<R: RngCore> RngCore for Counting<R> {
    fn next_u32(&mut self) -> u32 {
        unreachable!("the samplers draw 64-bit words only");
    }

    fn next_u64(&mut self) -> u64 {
        self.calls += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unreachable!("the samplers draw 64-bit words only");
    }
}

fn counting(seed: u64) -> Counting<RandomStream> {
    Counting {
        inner: RandomStream::new(seed),
        calls: 0,
    }
}

fn assert_same_bits(got: &[Complex64], want: &[Complex64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (g.re.to_bits(), g.im.to_bits()),
            (w.re.to_bits(), w.im.to_bits()),
            "{what}, element {i}: {g:?} vs {w:?}"
        );
    }
}

const LENGTHS: [usize; 7] = [0, 1, 16, 63, 64, 65, 4096];
const VARIANCES: [f64; 3] = [0.0, 1.0, 2.7e-3];

#[test]
fn fill_is_bit_identical_to_the_per_element_sample_loop() {
    for (k, &len) in LENGTHS.iter().enumerate() {
        for &variance in &VARIANCES {
            let what = format!("len {len}, variance {variance}");
            let seed = 40 + k as u64;
            let (mut rng_fill, mut rng_loop) = (counting(seed), counting(seed));
            let mut filler = ComplexGaussian::default();
            let mut looper = ComplexGaussian::default();

            let mut got = vec![Complex64::ZERO; len];
            filler.fill(&mut rng_fill, &mut got, variance);
            let want: Vec<Complex64> = (0..len)
                .map(|_| looper.sample(&mut rng_loop, variance))
                .collect();
            assert_same_bits(&got, &want, &what);
            assert_eq!(rng_fill.calls, rng_loop.calls, "{what}: words consumed");

            // The next draws agree: nothing is left cached after a fill.
            assert_same_bits(
                &[filler.sample(&mut rng_fill, 1.0)],
                &[looper.sample(&mut rng_loop, 1.0)],
                &format!("{what}, draw after the fill"),
            );
        }
    }
}

#[test]
fn consecutive_fills_continue_the_sample_stream() {
    // Odd and even lengths back to back, then `sample_vec`: the draws are
    // those of one per-element loop over the concatenation.
    let (mut rng_fill, mut rng_loop) = (counting(7), counting(7));
    let mut filler = ComplexGaussian::default();
    let mut looper = ComplexGaussian::default();
    let mut got = Vec::new();
    for len in [3, 16, 1, 65] {
        let mut buf = vec![Complex64::ZERO; len];
        filler.fill(&mut rng_fill, &mut buf, 0.5);
        got.extend_from_slice(&buf);
    }
    got.extend(filler.sample_vec(&mut rng_fill, 9, 0.5));
    let want: Vec<Complex64> = (0..got.len())
        .map(|_| looper.sample(&mut rng_loop, 0.5))
        .collect();
    assert_same_bits(&got, &want, "consecutive fills");
    assert_eq!(rng_fill.calls, rng_loop.calls);
}
