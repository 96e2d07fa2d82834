//! Zero-mean Gaussian sampling on top of a uniform random source.
//!
//! The paper's algorithm consumes two kinds of Gaussian input:
//!
//! * step 6 (Sec. 4.4): a vector `W` of `N` i.i.d. zero-mean **complex**
//!   Gaussian samples with common variance `σ_g²`,
//! * step 3 of the real-time algorithm (Sec. 5): the real sequences
//!   `{A[k]}`, `{B[k]}` with variance `σ²_orig` feeding the Doppler filter.
//!
//! Both reduce to sampling `N(0, 1)` and scaling. The transform is
//! Marsaglia's polar method, which avoids trigonometric calls.

use corrfade_linalg::{c64, Complex64};
use rand::Rng;

/// A reusable sampler of standard-normal variates (Marsaglia's polar
/// method).
///
/// The transform produces samples in pairs; the spare sample is cached so
/// no randomness is wasted.
#[derive(Debug, Clone, Default)]
pub struct NormalSampler {
    cached: Option<f64>,
}

impl NormalSampler {
    /// Draws one `N(0, 1)` sample using the supplied uniform source.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(v) = self.cached.take() {
            return v;
        }
        let (a, b) = polar_pair(rng);
        self.cached = Some(b);
        a
    }

    /// Draws one `N(mean, std²)` sample.
    pub fn sample_with<R: Rng + ?Sized>(&mut self, rng: &mut R, mean: f64, std: f64) -> f64 {
        assert!(
            std >= 0.0,
            "standard deviation must be non-negative, got {std}"
        );
        mean + std * self.sample(rng)
    }

    /// Fills a slice with i.i.d. `N(mean, std²)` samples.
    pub fn fill<R: Rng + ?Sized>(&mut self, rng: &mut R, buf: &mut [f64], mean: f64, std: f64) {
        for x in buf.iter_mut() {
            *x = self.sample_with(rng, mean, std);
        }
    }
}

/// The accept step of Marsaglia's polar method, for `points.len()`
/// successive samples: `points[k] = x + i·y` is the `k`-th uniform point
/// on `(-1, 1)²` with `s = x² + y²` in `(0, 1)`, drawn exactly as
/// [`NormalSampler`] draws its polar pairs, and the words consumed are
/// those of `points.len()` pair draws.
///
/// [`polar_normals`] maps each point to the pair of independent `N(0, 1)`
/// samples the sampler would hand out, bit for bit. A consumer that needs
/// only some of the pairs transformed (a spectrum whose Doppler weight is
/// zero on most bins, a fast-forward that needs none) calls this and
/// skips the logarithm, square root and division for the rest.
///
/// The loop has no data-dependent branch: every point takes at least one
/// candidate, so a pass draws one candidate per point still missing, keeps
/// the accepted ones in order, and repeats until all points are accepted —
/// never drawing a candidate past the last point's.
pub fn polar_points_into<R: Rng + ?Sized>(rng: &mut R, points: &mut [Complex64]) {
    let mut k = 0;
    while k < points.len() {
        let missing = points.len() - k;
        for _ in 0..missing {
            let x: f64 = 2.0 * rng.gen::<f64>() - 1.0;
            let y: f64 = 2.0 * rng.gen::<f64>() - 1.0;
            let s = x * x + y * y;
            // k < points.len(): k grows by at most one per candidate, and
            // this pass draws one candidate per point missing at its start.
            points[k] = c64(x, y);
            k += usize::from((s > 0.0) & (s < 1.0));
        }
    }
}

/// The transform step of Marsaglia's polar method: maps an accepted point
/// `x + i·y` of [`polar_points_into`] to its pair of independent `N(0, 1)`
/// samples `(x·g, y·g)`, with `s = x·x + y·y` and `g = √(−2 ln s / s)`.
///
/// This is the one place the formula lives: the sampler, the batched
/// complex-Gaussian fill and the Doppler spectrum fill all call it, so
/// their outputs agree bit for bit. `ln` is the scalar libm call; the
/// square root and division are correctly rounded on every target.
#[inline]
#[must_use]
pub fn polar_normals(point: Complex64) -> (f64, f64) {
    let (x, y) = (point.re, point.im);
    let s = x * x + y * y;
    let g = (-2.0 * s.ln() / s).sqrt();
    (x * g, y * g)
}

/// One Marsaglia-polar pair of independent `N(0, 1)` samples.
fn polar_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let mut point = [Complex64::ZERO];
    polar_points_into(rng, &mut point);
    polar_normals(point[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn moments(samples: &[f64]) -> (f64, f64, f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let skew = samples.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n / var.powf(1.5);
        let kurt = samples.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n / var.powi(2);
        (mean, var, skew, kurt)
    }

    #[test]
    fn polar_produces_standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut sampler = NormalSampler::default();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sampler.sample(&mut rng)).collect();
        let (mean, var, skew, kurt) = moments(&samples);
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
        assert!(skew.abs() < 0.03, "skew = {skew}");
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis = {kurt}");
    }

    #[test]
    fn sample_with_scales_and_shifts() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sampler = NormalSampler::default();
        let n = 100_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| sampler.sample_with(&mut rng, 3.0, 2.0))
            .collect();
        let (mean, var, _, _) = moments(&samples);
        assert!((mean - 3.0).abs() < 0.03);
        assert!((var - 4.0).abs() < 0.1);
    }

    #[test]
    fn fill_matches_repeated_sampling() {
        let mut rng1 = StdRng::seed_from_u64(11);
        let mut rng2 = StdRng::seed_from_u64(11);
        let mut s1 = NormalSampler::default();
        let mut s2 = NormalSampler::default();
        let mut buf = [0.0; 16];
        s1.fill(&mut rng1, &mut buf, 0.0, 1.0);
        for &b in &buf {
            assert_eq!(b, s2.sample_with(&mut rng2, 0.0, 1.0));
        }
    }

    #[test]
    fn polar_points_transform_to_the_sampler_pairs_bit_for_bit() {
        let mut rng_points = StdRng::seed_from_u64(5);
        let mut rng_sampler = StdRng::seed_from_u64(5);
        let mut sampler = NormalSampler::default();
        let mut points = vec![Complex64::ZERO; 1000];
        polar_points_into(&mut rng_points, &mut points);
        for p in &points {
            let s = p.re * p.re + p.im * p.im;
            assert!(s > 0.0 && s < 1.0);
            let g = (-2.0 * s.ln() / s).sqrt();
            assert_eq!(
                (p.re * g).to_bits(),
                sampler.sample(&mut rng_sampler).to_bits()
            );
            assert_eq!(
                (p.im * g).to_bits(),
                sampler.sample(&mut rng_sampler).to_bits()
            );
        }
        assert_eq!(rng_points.next_u64(), rng_sampler.next_u64());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = NormalSampler::default();
        let mut b = NormalSampler::default();
        let mut rng_a = StdRng::seed_from_u64(123);
        let mut rng_b = StdRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.sample(&mut rng_a), b.sample(&mut rng_b));
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_std_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = NormalSampler::default();
        let _ = s.sample_with(&mut rng, 0.0, -1.0);
    }
}
