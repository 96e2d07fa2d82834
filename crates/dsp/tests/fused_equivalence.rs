//! Property-based coverage of the fused coloring + IDFT kernel's
//! bit-identity contract, across random shapes rather than the handful of
//! hand-picked ones in the unit tests: on both backends, the fused kernel's
//! output equals the two-pass `ifft` + `color_block` composition *exactly*
//! (`assert_eq!` on the raw values, no tolerance), for power-of-two lengths
//! (the genuinely fused path) and non-pow2 / `m = 1` lengths (the
//! definitional fallback) alike.

use corrfade_dsp::fused::color_idft_block_with;
use corrfade_dsp::ifft_in_place_with;
use corrfade_linalg::kernel::color_block_with;
use corrfade_linalg::{c64, Backend, Complex64};
use proptest::prelude::*;

fn cvec(len: usize) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), len)
        .prop_map(|v| v.into_iter().map(|(re, im)| c64(re, im)).collect())
}

/// Random `(n, m)` fused-block shape: small envelope counts and sample
/// counts that mix genuine powers of two (the fused final-stage path,
/// including multi-tile halves) with arbitrary lengths (the two-pass
/// fallback) and the degenerate `m = 1`.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=5, 0usize..2, 1u32..=9, 1usize..=400).prop_map(|(n, pick, exp, len)| {
        let m = if pick == 0 {
            1usize << exp // 2..=512: the genuinely fused final-stage path
        } else {
            len // mostly non-pow2 (and m = 1): the two-pass fallback
        };
        (n, m)
    })
}

const MAX_N: usize = 5;
const MAX_M: usize = 512;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The f64 fused kernel is bit-identical to the two-pass path on both
    /// backends for every shape and scale.
    #[test]
    fn fused_f64_bit_identical_to_two_pass(
        dims in shape(),
        a in cvec(MAX_N * MAX_N),
        entries in cvec(MAX_N * MAX_M),
        scale in 0.1f64..3.0,
    ) {
        let (n, m) = dims;
        let a = &a[..n * n];
        let raw = &entries[..n * m];
        for b in [Backend::Scalar, Backend::Vector] {
            let mut two_pass = raw.to_vec();
            let mut expected = vec![Complex64::ZERO; n * m];
            let (mut w, mut s) = (Vec::new(), Vec::new());
            for j in 0..n {
                ifft_in_place_with(b, &mut two_pass[j * m..(j + 1) * m]);
            }
            color_block_with(b, n, m, a, scale, &two_pass, &mut expected, &mut w, &mut s);

            let mut fused_raw = raw.to_vec();
            let mut got = vec![Complex64::ZERO; n * m];
            let (mut w, mut s) = (Vec::new(), Vec::new());
            color_idft_block_with(b, n, m, a, scale, &mut fused_raw, &mut got, &mut w, &mut s);
            prop_assert_eq!(got, expected, "{:?} n={} m={}", b, n, m);
        }
    }
}
