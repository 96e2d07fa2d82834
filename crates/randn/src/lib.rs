//! # corrfade-randn
//!
//! Seeded Gaussian and complex-Gaussian random sources for the `corrfade`
//! workspace:
//!
//! * [`RandomStream`] — reproducible, splittable ChaCha20 uniform streams,
//! * [`NormalSampler`] — `N(0, 1)` via Box–Muller or Marsaglia's polar
//!   transform,
//! * [`ComplexGaussian`] — circularly-symmetric `CN(0, σ²)` variables, the
//!   white vector `W` of the single-instant generator.
//!
//! The crate deliberately re-implements the normal transform instead of
//! pulling in `rand_distr`: the offline dependency set only guarantees
//! `rand`, and having the transform in-tree lets the statistics tests
//! cross-validate the two classic methods against each other.

#![warn(missing_docs)]

pub mod complex_gaussian;
pub mod normal;
pub mod streams;

pub use complex_gaussian::ComplexGaussian;
pub use normal::{NormalMethod, NormalSampler};
pub use streams::RandomStream;

/// Convenience: draws `n` i.i.d. circularly-symmetric complex Gaussian
/// samples `CN(0, variance)` from a fresh substream of `seed`.
pub fn complex_gaussian_vector(
    seed: u64,
    stream: u64,
    n: usize,
    variance: f64,
) -> Vec<corrfade_linalg::Complex64> {
    let mut rng = RandomStream::substream(seed, stream);
    let mut g = ComplexGaussian::default();
    g.sample_vec(&mut rng, n, variance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convenience_vector_is_reproducible() {
        let a = complex_gaussian_vector(1, 0, 16, 1.0);
        let b = complex_gaussian_vector(1, 0, 16, 1.0);
        let c = complex_gaussian_vector(1, 1, 16, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
    }
}
