//! The scalar (reference) kernel backend.
//!
//! Every routine here reproduces, operation for operation, the loops the
//! workspace ran before the kernel layer existed — same gather order, same
//! `Complex64::mul_add` folds, same summation direction — so
//! `CORRFADE_KERNEL=scalar` is **bit-identical** to the historical
//! generation output and stays the reference the golden/determinism tests
//! pin (see the scope note in the [module docs](super)).

use crate::complex::Complex64;
use crate::vector::dot;

/// `y = A·x`, one [`dot`] fold per row — exactly the historical
/// `CMatrix::matvec_into`.
pub(super) fn matvec_into(cols: usize, a: &[Complex64], x: &[Complex64], y: &mut [Complex64]) {
    for (i, yi) in y.iter_mut().enumerate() {
        *yi = dot(&a[i * cols..(i + 1) * cols], x);
    }
}

/// The historical real-time coloring loop: per time instant, gather `W[l]`
/// across the planar rows, one dot product per output envelope, scale,
/// scatter.
pub(super) fn color_block(
    n: usize,
    m: usize,
    a: &[Complex64],
    scale: f64,
    raw: &[Complex64],
    out: &mut [Complex64],
    w_scratch: &mut Vec<Complex64>,
) {
    w_scratch.resize(n, Complex64::ZERO);
    for l in 0..m {
        for (j, w) in w_scratch.iter_mut().enumerate() {
            *w = raw[j * m + l];
        }
        for i in 0..n {
            out[i * m + l] = dot(&a[i * n..(i + 1) * n], w_scratch).scale(scale);
        }
    }
}

/// Sample-major covariance fold — the historical
/// `SampleBlock::accumulate_covariance`, bit-identical to folding
/// materialized snapshot vectors in time order.
pub(super) fn accumulate_covariance(n: usize, m: usize, data: &[Complex64], acc: &mut [Complex64]) {
    for l in 0..m {
        for a in 0..n {
            let za = data[a * m + l];
            for b in 0..n {
                acc[a * n + b] += za * data[b * m + l].conj();
            }
        }
    }
}

/// `env[i] = |data[i]|` via `hypot`, as the envelope view always computed it.
pub(super) fn envelope_into(data: &[Complex64], env: &mut [f64]) {
    for (e, z) in env.iter_mut().zip(data.iter()) {
        *e = z.abs();
    }
}
