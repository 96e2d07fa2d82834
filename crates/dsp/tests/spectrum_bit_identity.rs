//! Bit identity of the Doppler spectrum fill against the draw loop it
//! replaced: two `NormalSampler::sample_with(rng, 0, σ_orig)` calls per
//! bin on a fresh sampler, weighted by `F[k]`. `fill_spectrum_into` skips
//! the polar transform on zero-weight bins; every re/im must still match
//! bit for bit (`to_bits`, so signed zeros count), and `skip_spectrum` must
//! consume exactly the keystream words of a fill.

use corrfade_dsp::{DopplerFilter, IdftRayleighGenerator};
use corrfade_linalg::{c64, Complex64};
use corrfade_randn::{NormalSampler, RandomStream};
use rand::RngCore;

/// The spectrum fill as written before the zero-bin shortcut.
fn reference_fill<R: RngCore>(filter: &DopplerFilter, std: f64, rng: &mut R) -> Vec<Complex64> {
    let mut sampler = NormalSampler::default();
    filter
        .coefficients()
        .iter()
        .map(|&f| {
            let a = sampler.sample_with(rng, 0.0, std);
            let b = sampler.sample_with(rng, 0.0, std);
            c64(f * a, -f * b)
        })
        .collect()
}

/// Counts the `next_u64` calls it forwards (the only draw the generators
/// make).
struct Counting<R> {
    inner: R,
    calls: u64,
}

impl<R: RngCore> RngCore for Counting<R> {
    fn next_u32(&mut self) -> u32 {
        unreachable!("the spectrum draws 64-bit words only");
    }

    fn next_u64(&mut self) -> u64 {
        self.calls += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unreachable!("the spectrum draws 64-bit words only");
    }
}

/// The paper filter, a wide-band one with few zero bins, and a Bluestein
/// (non-power-of-two) length.
const SHAPES: [(usize, f64); 3] = [(4096, 0.05), (4096, 0.449), (4000, 0.05)];

#[test]
fn fill_spectrum_is_bit_identical_to_the_sampler_loop() {
    for (m, fm) in SHAPES {
        let filter = DopplerFilter::new(m, fm).unwrap();
        let zero_bins = filter.coefficients().iter().filter(|&&f| f == 0.0).count();
        assert!(zero_bins > 0 && zero_bins < m, "m {m}, fm {fm}");
        for (sigma_sq, seed) in [(1.0, 3u64), (0.5, 17), (2.7e-3, 91), (f64::INFINITY, 5)] {
            let gen = IdftRayleighGenerator::new(filter.clone(), sigma_sq).unwrap();
            let mut rng = RandomStream::new(seed);
            let mut reference_rng = RandomStream::new(seed);
            let mut out = vec![Complex64::ZERO; m];
            // Several spectra per stream: the fill must leave the RNG where
            // the reference loop does.
            for spectrum in 0..3 {
                gen.fill_spectrum_into(&mut rng, &mut out);
                let want = reference_fill(&filter, sigma_sq.sqrt(), &mut reference_rng);
                for (k, (got, want)) in out.iter().zip(&want).enumerate() {
                    assert_eq!(
                        (got.re.to_bits(), got.im.to_bits()),
                        (want.re.to_bits(), want.im.to_bits()),
                        "m {m}, fm {fm}, σ² {sigma_sq}, spectrum {spectrum}, bin {k}"
                    );
                }
            }
        }
    }
}

#[test]
fn skip_spectrum_consumes_the_words_of_a_fill() {
    for (m, fm) in SHAPES {
        let gen = IdftRayleighGenerator::new(DopplerFilter::new(m, fm).unwrap(), 0.5).unwrap();
        for seed in [1u64, 2, 3] {
            let mut filled = Counting {
                inner: RandomStream::new(seed),
                calls: 0,
            };
            let mut skipped = Counting {
                inner: RandomStream::new(seed),
                calls: 0,
            };
            let mut out = vec![Complex64::ZERO; m];
            gen.fill_spectrum_into(&mut filled, &mut out);
            gen.skip_spectrum(&mut skipped);
            assert!(filled.calls >= 2 * m as u64);
            assert_eq!(filled.calls, skipped.calls, "m {m}, fm {fm}, seed {seed}");
            assert_eq!(filled.inner.next_u64(), skipped.inner.next_u64());
        }
    }
}
