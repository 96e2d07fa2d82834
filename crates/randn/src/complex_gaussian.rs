//! Zero-mean complex Gaussian (circularly-symmetric and per-dimension)
//! sampling.
//!
//! A zero-mean complex Gaussian variable `z = x + iy` with **total** variance
//! `σ_g² = E|z|²` and independent real/imaginary parts of equal variance
//! `σ_g²/2` has a Rayleigh-distributed modulus — this is the raw material of
//! every generator in the workspace (step 6 of the paper's algorithm).

use corrfade_linalg::{c64, Complex64};
use rand::Rng;

use crate::normal::{polar_normals, polar_points_into, NormalSampler};

/// Sampler of zero-mean complex Gaussian variables.
#[derive(Debug, Clone, Default)]
pub struct ComplexGaussian {
    sampler: NormalSampler,
}

impl ComplexGaussian {
    /// Draws one circularly-symmetric sample `CN(0, variance)`: the real and
    /// imaginary parts are independent `N(0, variance/2)`.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R, variance: f64) -> Complex64 {
        assert!(
            variance >= 0.0,
            "variance must be non-negative, got {variance}"
        );
        let std = (variance * 0.5).sqrt();
        c64(
            self.sampler.sample_with(rng, 0.0, std),
            self.sampler.sample_with(rng, 0.0, std),
        )
    }

    /// Draws a vector of `n` i.i.d. `CN(0, variance)` samples — exactly the
    /// vector `W` of step 6 of the paper's algorithm. Same draws and bits
    /// as [`Self::fill`] on a buffer of length `n`.
    pub fn sample_vec<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        n: usize,
        variance: f64,
    ) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; n];
        self.fill(rng, &mut out, variance);
        out
    }

    /// Fills a buffer with i.i.d. `CN(0, variance)` samples, bit for bit
    /// what a loop of [`Self::sample`] calls would write, consuming the same
    /// words of `rng`.
    ///
    /// The fill runs in two passes: it first draws one accepted polar point
    /// per element with [`polar_points_into`] — the words of `buf.len()`
    /// polar pair draws, rejected candidates included — and then transforms
    /// the whole buffer in place with [`polar_normals`], writing
    /// `z = (0 + std·(x·g)) + i·(0 + std·(y·g))` with `std = √(variance/2)`.
    /// That is the arithmetic of two `NormalSampler::sample_with` calls:
    /// every method of this type consumes whole normal pairs, so the
    /// sampler never holds a spare sample between calls and each element
    /// takes exactly one pair.
    ///
    /// # Panics
    /// Panics if `variance` is negative or NaN.
    pub fn fill<R: Rng + ?Sized>(&mut self, rng: &mut R, buf: &mut [Complex64], variance: f64) {
        assert!(
            variance >= 0.0,
            "variance must be non-negative, got {variance}"
        );
        let std = (variance * 0.5).sqrt();
        polar_points_into(rng, buf);
        for z in buf.iter_mut() {
            let (a, b) = polar_normals(*z);
            *z = c64(0.0 + std * a, 0.0 + std * b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn circular_sample_has_right_variance_split() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = ComplexGaussian::default();
        let n = 200_000;
        let variance = 2.5;
        let samples = g.sample_vec(&mut rng, n, variance);
        let mean: Complex64 = samples.iter().copied().sum::<Complex64>() / n as f64;
        assert!(mean.abs() < 0.02);
        let var_total: f64 = samples.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!(
            (var_total - variance).abs() < 0.05,
            "total variance {var_total}"
        );
        let var_re: f64 = samples.iter().map(|z| z.re * z.re).sum::<f64>() / n as f64;
        let var_im: f64 = samples.iter().map(|z| z.im * z.im).sum::<f64>() / n as f64;
        assert!((var_re - variance / 2.0).abs() < 0.05);
        assert!((var_im - variance / 2.0).abs() < 0.05);
        // Real and imaginary parts uncorrelated.
        let cov: f64 = samples.iter().map(|z| z.re * z.im).sum::<f64>() / n as f64;
        assert!(cov.abs() < 0.02);
    }

    #[test]
    fn envelope_of_circular_sample_is_rayleigh_in_the_mean() {
        // E|z| = sqrt(pi/4 * variance) = 0.8862 * sigma_g  (paper Eq. 14).
        let mut rng = StdRng::seed_from_u64(8);
        let mut g = ComplexGaussian::default();
        let n = 200_000;
        let variance: f64 = 1.0;
        let mean_env: f64 = g
            .sample_vec(&mut rng, n, variance)
            .iter()
            .map(|z| z.abs())
            .sum::<f64>()
            / n as f64;
        let expected = 0.8862 * variance.sqrt();
        assert!(
            (mean_env - expected).abs() < 0.01,
            "mean envelope {mean_env}, expected {expected}"
        );
    }

    #[test]
    fn zero_variance_gives_zero_samples() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = ComplexGaussian::default();
        assert_eq!(g.sample(&mut rng, 0.0), Complex64::ZERO);
    }

    #[test]
    fn fill_and_sample_vec_agree() {
        let mut g1 = ComplexGaussian::default();
        let mut g2 = ComplexGaussian::default();
        let mut rng1 = StdRng::seed_from_u64(77);
        let mut rng2 = StdRng::seed_from_u64(77);
        let v = g1.sample_vec(&mut rng1, 8, 1.0);
        let mut buf = vec![Complex64::ZERO; 8];
        g2.fill(&mut rng2, &mut buf, 1.0);
        assert_eq!(v, buf);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_variance_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = ComplexGaussian::default();
        let _ = g.sample(&mut rng, -1.0);
    }
}
