//! # corrfade-randn
//!
//! Seeded Gaussian and complex-Gaussian random sources for the `corrfade`
//! workspace:
//!
//! * [`RandomStream`] — reproducible, splittable ChaCha20 uniform streams,
//! * [`NormalSampler`] — `N(0, 1)` via Marsaglia's polar transform,
//! * [`ComplexGaussian`] — circularly-symmetric `CN(0, σ²)` variables, the
//!   white vector `W` of the single-instant generator.
//!
//! The crate deliberately re-implements the normal transform instead of
//! pulling in `rand_distr`: the offline dependency set only guarantees
//! `rand`, and having the transform in-tree pins its exact arithmetic, which
//! every golden output depends on.

#![warn(missing_docs)]

mod complex_gaussian;
mod normal;
mod streams;

pub use complex_gaussian::ComplexGaussian;
pub use normal::{polar_normals, polar_points_into, NormalSampler};
pub use streams::RandomStream;
