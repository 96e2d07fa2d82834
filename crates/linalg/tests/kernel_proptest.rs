//! Property-based scalar-vs-vector kernel equivalence.
//!
//! The vector backend is free to reorder summations and fuse
//! multiplications, but every kernel must stay within ≤ 1e-12 of the scalar
//! reference for unit-scale data — across random dimensions, explicitly
//! including lengths that are *not* multiples of the 4-lane width (tails)
//! and degenerate 1×1 shapes.

use corrfade_linalg::kernel::{
    accumulate_covariance_with, color_block_with, envelope_into_with, matvec_into_with, Backend,
};
use corrfade_linalg::{c64, Complex64};
use proptest::prelude::*;

/// Random complex vector with entries in the unit box.
fn cvec(len: usize) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), len)
        .prop_map(|v| v.into_iter().map(|(re, im)| c64(re, im)).collect())
}

/// Random `(n, m)` block shape: small envelope counts, sample counts that
/// straddle the lane width and the cache-tile boundary.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=9, 1usize..=600)
}

fn max_abs_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The coloring matvec agrees between backends on every shape,
    /// including row lengths that are not multiples of the lane width.
    #[test]
    fn matvec_scalar_vs_vector(
        dims in (1usize..=17, 1usize..=19),
        entries in cvec(17 * 19),
        xs in cvec(19),
    ) {
        let (rows, cols) = dims;
        let a = &entries[..rows * cols];
        let x = &xs[..cols];
        let mut ys = vec![Complex64::ZERO; rows];
        let mut yv = vec![Complex64::ZERO; rows];
        matvec_into_with(Backend::Scalar, rows, cols, a, x, &mut ys);
        matvec_into_with(Backend::Vector, rows, cols, a, x, &mut yv);
        let diff = max_abs_diff(&ys, &yv);
        prop_assert!(diff <= 1e-12, "rows={rows} cols={cols}: diff {diff}");
    }

    /// The blocked coloring kernel agrees with the historical per-instant
    /// scalar loop for every `(N, M)` shape and scale.
    #[test]
    fn color_block_scalar_vs_vector(
        dims in shape(),
        a in cvec(81),
        scale in 0.1f64..3.0,
    ) {
        let (n, m) = dims;
        let a = &a[..n * n];
        let raw: Vec<Complex64> = (0..n * m)
            .map(|i| c64((0.37 * i as f64).sin(), 0.5 * (0.71 * i as f64).cos()))
            .collect();
        let mut outs = vec![Complex64::ZERO; n * m];
        let mut outv = vec![Complex64::ZERO; n * m];
        let mut w = Vec::new();
        let mut planes = Vec::new();
        color_block_with(Backend::Scalar, n, m, a, scale, &raw, &mut outs, &mut w, &mut planes);
        color_block_with(Backend::Vector, n, m, a, scale, &raw, &mut outv, &mut w, &mut planes);
        let diff = max_abs_diff(&outs, &outv);
        prop_assert!(diff <= 1e-12, "n={n} m={m}: diff {diff}");
    }

    /// The covariance fold agrees between backends within an `M`-scaled
    /// tolerance and both preserve an arbitrary pre-seeded accumulator.
    #[test]
    fn accumulate_covariance_scalar_vs_vector(dims in shape(), bias in -1.0f64..1.0) {
        let (n, m) = dims;
        let data: Vec<Complex64> = (0..n * m)
            .map(|i| c64((0.13 * i as f64).cos(), (0.29 * i as f64).sin()))
            .collect();
        let seed = c64(bias, -bias);
        let mut accs = vec![seed; n * n];
        let mut accv = vec![seed; n * n];
        accumulate_covariance_with(Backend::Scalar, n, m, &data, &mut accs);
        accumulate_covariance_with(Backend::Vector, n, m, &data, &mut accv);
        let tol = 1e-12 * (m as f64).max(1.0);
        let diff = max_abs_diff(&accs, &accv);
        prop_assert!(diff <= tol, "n={n} m={m}: diff {diff} (tol {tol})");
    }

    /// The envelope pass agrees between `hypot` and `√(re²+im²)`.
    #[test]
    fn envelope_scalar_vs_vector(data in cvec(137)) {
        let mut es = vec![0.0; data.len()];
        let mut ev = vec![0.0; data.len()];
        envelope_into_with(Backend::Scalar, &data, &mut es);
        envelope_into_with(Backend::Vector, &data, &mut ev);
        for (i, (s, v)) in es.iter().zip(ev.iter()).enumerate() {
            prop_assert!((s - v).abs() <= 1e-12, "index {i}: {s} vs {v}");
        }
    }
}
