//! Property-based coverage of the scalar-vs-vector FFT backend
//! equivalence: the scalar and vector (planned, table-driven) inverse
//! transforms agree to ≤ 1e-12 for unit-scale inputs on power-of-two and
//! Bluestein lengths.

use corrfade_dsp::ifft_in_place_with;
use corrfade_linalg::{c64, Backend, Complex64};
use proptest::prelude::*;

fn cvec(len: usize) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), len)
        .prop_map(|v| v.into_iter().map(|(re, im)| c64(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scalar and vector inverse transforms agree on arbitrary lengths
    /// (powers of two hit the planned path, the rest the Bluestein
    /// fallback built on it).
    #[test]
    fn ifft_backends_agree(len in 1usize..520, entries in cvec(520)) {
        let x = &entries[..len];
        let mut s = x.to_vec();
        let mut v = x.to_vec();
        ifft_in_place_with(Backend::Scalar, &mut s);
        ifft_in_place_with(Backend::Vector, &mut v);
        for (i, (&a, &b)) in s.iter().zip(v.iter()).enumerate() {
            prop_assert!(a.approx_eq(b, 1e-12), "len={len} index {i}: {a} vs {b}");
        }
    }
}
