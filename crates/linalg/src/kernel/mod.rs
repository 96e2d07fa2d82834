//! Runtime-dispatched numeric kernels for the generation hot paths.
//!
//! Every hot loop of the workspace — the coloring matvec `Z = L·W/σ_g`, the
//! planar covariance fold, the envelope (modulus) pass and the IDFT
//! butterflies over in `corrfade-dsp` — funnels through this module, which
//! selects one of two backends **once per process**:
//!
//! * [`Backend::Scalar`] — the original, easily-audited element-at-a-time
//!   loops. This backend is the **bit-exact reference**: every *generation
//!   output* (RNG draws, coloring, IDFT generation, envelopes, covariance
//!   folds) is identical, bit for bit, to every release before the kernel
//!   layer existed, and the determinism/golden tests pin it via
//!   `CORRFADE_KERNEL=scalar`. (Analysis helpers that gained the real-FFT
//!   specialization — e.g. the Doppler filter's autocorrelation kernel —
//!   use it on every backend and agree with their pre-kernel values to
//!   ≤ 1e-12 rather than bitwise.)
//! * [`Backend::Vector`] — cache-blocked, split-complex (planar re/im)
//!   kernels written as fixed-width lane loops that LLVM autovectorizes; on
//!   `x86_64` the inner loops are additionally compiled as AVX2+FMA
//!   multiversions and selected by runtime CPU-feature detection. Results
//!   agree with the scalar backend to ≤ 1e-12 (absolute, for unit-scale
//!   data) but are *not* bit-identical — summation orders differ.
//!
//! # Selection
//!
//! The backend is latched on first use from the `CORRFADE_KERNEL`
//! environment variable:
//!
//! | value                | effect                                         |
//! |----------------------|------------------------------------------------|
//! | `scalar`             | force the bit-exact reference backend          |
//! | `vector` / `simd`    | force the vectorized backend                   |
//! | `auto` / unset       | vectorized backend (its generic lane loops are |
//! |                      | a win on every supported ISA); AVX2+FMA inner  |
//! |                      | kernels only where the CPU reports support     |
//!
//! Any other value panics — a typo silently falling back would make
//! determinism hunts miserable.
//!
//! Every kernel also has a `*_with(backend, …)` variant taking the backend
//! explicitly; the dispatched wrappers simply pass [`backend()`]. The
//! `_with` variants are what the scalar-vs-vector equivalence proptests and
//! the `kernel_dispatch` benchmark drive.

use std::sync::OnceLock;

use crate::complex::Complex64;

mod scalar;
mod vector;

/// The two kernel implementations. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Element-at-a-time reference loops — bit-exact with the pre-kernel
    /// releases.
    Scalar,
    /// Cache-blocked planar lane loops (AVX2+FMA multiversioned on
    /// `x86_64`), ≤ 1e-12 from scalar.
    Vector,
}

impl Backend {
    /// Human-readable name, including the instruction set the vector
    /// backend resolved to on this machine.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Vector => {
                if vector::has_fma_isa() {
                    "vector (x86_64 avx2+fma)"
                } else {
                    "vector (generic lanes)"
                }
            }
        }
    }
}

/// `true` when the vector backend's AVX2+FMA inner-loop multiversions are
/// active on this CPU (always `false` off `x86_64`). Exposed so other
/// crates' kernels (e.g. the FFT butterflies in `corrfade-dsp`) can reuse
/// the same latched detection.
#[must_use]
pub fn vector_uses_fma() -> bool {
    vector::has_fma_isa()
}

/// Parses a `CORRFADE_KERNEL` value (`None` = variable unset) into a
/// backend. Values are trimmed and matched case-insensitively; anything
/// else — including an empty or whitespace-only string — is rejected with
/// a diagnostic naming the variable, the offending value and the accepted
/// forms, so a typo can never silently fall back to the default backend.
///
/// # Errors
/// A human-readable diagnostic for any unrecognized value.
pub fn parse_backend(value: Option<&str>) -> Result<Backend, String> {
    let Some(raw) = value else {
        return Ok(Backend::Vector);
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "scalar" => Ok(Backend::Scalar),
        "vector" | "simd" => Ok(Backend::Vector),
        "auto" => Ok(Backend::Vector),
        _ => Err(format!(
            "CORRFADE_KERNEL={raw:?} is not recognized \
             (expected \"scalar\", \"vector\"/\"simd\" or \"auto\"; \
             unset the variable for the default)"
        )),
    }
}

/// The process-wide backend, latched from `CORRFADE_KERNEL` on first call.
///
/// # Panics
/// Panics if `CORRFADE_KERNEL` is set to an unrecognized value (see
/// [`parse_backend`]) — a typo silently falling back would make
/// determinism hunts miserable.
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        let value = std::env::var("CORRFADE_KERNEL").ok();
        match parse_backend(value.as_deref()) {
            Ok(backend) => backend,
            Err(diagnostic) => panic!("{diagnostic}"),
        }
    })
}

// ---------------------------------------------------------------------------
// Split-complex (planar) views
// ---------------------------------------------------------------------------

/// Splits an AoS complex slice into planar re/im lanes:
/// `re[i] = src[i].re`, `im[i] = src[i].im`.
///
/// This is the layout conversion behind the vector backend's split-complex
/// kernels: planar `f64` lanes keep every FMA operand contiguous, where the
/// interleaved `Complex64` layout forces shuffles.
///
/// # Panics
/// Panics if the three slices have different lengths.
pub fn deinterleave_into(src: &[Complex64], re: &mut [f64], im: &mut [f64]) {
    assert!(
        src.len() == re.len() && src.len() == im.len(),
        "deinterleave_into: length mismatch ({} vs {}/{})",
        src.len(),
        re.len(),
        im.len()
    );
    for ((z, r), i) in src.iter().zip(re.iter_mut()).zip(im.iter_mut()) {
        *r = z.re;
        *i = z.im;
    }
}

/// Recombines planar re/im lanes into an AoS complex slice, scaling by a
/// real factor on the way: `dst[i] = scale · (re[i] + i·im[i])`.
///
/// # Panics
/// Panics if the three slices have different lengths.
pub fn interleave_scaled_into(re: &[f64], im: &[f64], scale: f64, dst: &mut [Complex64]) {
    assert!(
        dst.len() == re.len() && dst.len() == im.len(),
        "interleave_scaled_into: length mismatch ({} vs {}/{})",
        dst.len(),
        re.len(),
        im.len()
    );
    for ((z, &r), &i) in dst.iter_mut().zip(re.iter()).zip(im.iter()) {
        z.re = scale * r;
        z.im = scale * i;
    }
}

/// The vector backend's planar complex AXPY `y ← y + (ar + i·ai)·x`,
/// FMA-multiversioned by the same latched CPU detection as every other
/// vector kernel. Exposed so the fused coloring+IDFT kernel in
/// `corrfade-dsp` accumulates with **exactly** the same inner loop (and
/// therefore the same per-element operation sequence) as
/// [`color_block_with`] on [`Backend::Vector`].
///
/// # Panics
/// Panics if the four plane slices have different lengths.
pub fn axpy_planar(ar: f64, ai: f64, xre: &[f64], xim: &[f64], yre: &mut [f64], yim: &mut [f64]) {
    assert!(
        xre.len() == xim.len() && xre.len() == yre.len() && xre.len() == yim.len(),
        "axpy_planar: plane length mismatch"
    );
    vector::axpy_planar(ar, ai, xre, xim, yre, yim);
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

/// Complex matrix–vector product `y = A·x` for a row-major `rows × cols`
/// matrix (the per-snapshot coloring step), on the process-wide backend.
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn matvec_into(
    rows: usize,
    cols: usize,
    a: &[Complex64],
    x: &[Complex64],
    y: &mut [Complex64],
) {
    matvec_into_with(backend(), rows, cols, a, x, y);
}

/// [`matvec_into`] on an explicit backend.
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn matvec_into_with(
    b: Backend,
    rows: usize,
    cols: usize,
    a: &[Complex64],
    x: &[Complex64],
    y: &mut [Complex64],
) {
    assert_eq!(a.len(), rows * cols, "matvec: matrix storage length");
    assert_eq!(x.len(), cols, "matvec: input length");
    assert_eq!(y.len(), rows, "matvec: output length");
    match b {
        Backend::Scalar => scalar::matvec_into(cols, a, x, y),
        Backend::Vector => vector::matvec_into(cols, a, x, y),
    }
}

/// Number of time samples per cache tile of [`color_block_with`]. One tile's
/// working set is `(2·N + 2)·TILE` doubles — 16 KiB for the paper's `N = 3`,
/// comfortably inside L1 together with the coloring matrix.
pub const COLOR_TILE: usize = 256;

/// The real-time coloring hot loop: for every time sample `l` of a planar
/// `N × M` block, `out[i·m + l] = scale · Σ_j a[i·n + j] · raw[j·m + l]`
/// (i.e. `Z[l] = scale · L·W[l]` with `W[l]` gathered across the planar
/// rows), on the process-wide backend.
///
/// The scalar backend reproduces the historical per-instant
/// gather → dot → scatter loop bit for bit. The vector backend deinterleaves
/// one [`COLOR_TILE`]-sample tile of all `N` rows into split-complex planes
/// (`scratch`, grown on first use and reused), accumulates the `N²`
/// planar AXPYs with FMA lane loops, and interleaves the scaled result back —
/// cache-blocked so every tile stays in L1.
///
/// `w_scratch` and `scratch` are caller-pooled buffers (resized on first
/// use); with warm buffers the call performs no heap allocation.
///
/// # Panics
/// Panics on any dimension mismatch.
#[allow(clippy::too_many_arguments)]
pub fn color_block(
    n: usize,
    m: usize,
    a: &[Complex64],
    scale: f64,
    raw: &[Complex64],
    out: &mut [Complex64],
    w_scratch: &mut Vec<Complex64>,
    scratch: &mut Vec<f64>,
) {
    color_block_with(backend(), n, m, a, scale, raw, out, w_scratch, scratch);
}

/// [`color_block`] on an explicit backend.
///
/// # Panics
/// Panics on any dimension mismatch.
#[allow(clippy::too_many_arguments)]
pub fn color_block_with(
    b: Backend,
    n: usize,
    m: usize,
    a: &[Complex64],
    scale: f64,
    raw: &[Complex64],
    out: &mut [Complex64],
    w_scratch: &mut Vec<Complex64>,
    scratch: &mut Vec<f64>,
) {
    assert_eq!(a.len(), n * n, "color_block: coloring matrix storage");
    assert_eq!(raw.len(), n * m, "color_block: raw block length");
    assert_eq!(out.len(), n * m, "color_block: output block length");
    match b {
        Backend::Scalar => scalar::color_block(n, m, a, scale, raw, out, w_scratch),
        Backend::Vector => vector::color_block(n, m, a, scale, raw, out, scratch),
    }
}

/// Folds the outer products `acc[a·n + b] += Σ_l z_a[l]·conj(z_b[l])` of a
/// planar `N × M` block into an `N × N` accumulator, on the process-wide
/// backend.
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn accumulate_covariance(n: usize, m: usize, data: &[Complex64], acc: &mut [Complex64]) {
    accumulate_covariance_with(backend(), n, m, data, acc);
}

/// [`accumulate_covariance`] on an explicit backend.
///
/// The scalar backend sums sample-major (`l` outermost), matching a fold
/// over materialized snapshot vectors bit for bit. The vector backend
/// processes envelope pairs `(a, b)`, `a ≤ b`, with multi-lane reductions
/// over the two contiguous rows and mirrors the Hermitian image — the
/// mirrored term `z_b·conj(z_a) = conj(z_a·conj(z_b))` is exact in floating
/// point, so only the summation *order* differs from scalar.
///
/// # Panics
/// Panics on any dimension mismatch.
pub fn accumulate_covariance_with(
    b: Backend,
    n: usize,
    m: usize,
    data: &[Complex64],
    acc: &mut [Complex64],
) {
    assert_eq!(data.len(), n * m, "accumulate_covariance: block length");
    assert_eq!(
        acc.len(),
        n * n,
        "accumulate_covariance: accumulator length"
    );
    match b {
        Backend::Scalar => scalar::accumulate_covariance(n, m, data, acc),
        Backend::Vector => vector::accumulate_covariance(n, m, data, acc),
    }
}

/// Writes the moduli `env[i] = |data[i]|` (the Rayleigh envelope pass), on
/// the process-wide backend.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn envelope_into(data: &[Complex64], env: &mut [f64]) {
    envelope_into_with(backend(), data, env);
}

/// [`envelope_into`] on an explicit backend. Scalar uses `hypot` (never
/// spuriously over/underflows); vector uses `√(re² + im²)` lane loops, which
/// agree to ≤ 1e-12 for all non-extreme magnitudes the generators produce.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn envelope_into_with(b: Backend, data: &[Complex64], env: &mut [f64]) {
    assert_eq!(data.len(), env.len(), "envelope_into: length mismatch");
    match b {
        Backend::Scalar => scalar::envelope_into(data, env),
        Backend::Vector => vector::envelope_into(data, env),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn block(n: usize, m: usize) -> Vec<Complex64> {
        (0..n * m)
            .map(|i| {
                let t = i as f64;
                c64((0.37 * t).sin(), (0.71 * t).cos() * 0.5)
            })
            .collect()
    }

    #[test]
    fn backend_latch_is_stable_and_describable() {
        let b = backend();
        assert_eq!(b, backend());
        assert!(!b.describe().is_empty());
        assert_eq!(Backend::Scalar.describe(), "scalar");
    }

    #[test]
    fn interleave_round_trip() {
        let src = block(1, 9);
        let mut re = vec![0.0; 9];
        let mut im = vec![0.0; 9];
        deinterleave_into(&src, &mut re, &mut im);
        let mut dst = vec![Complex64::ZERO; 9];
        interleave_scaled_into(&re, &im, 1.0, &mut dst);
        assert_eq!(src, dst);
        interleave_scaled_into(&re, &im, 2.0, &mut dst);
        assert_eq!(dst[3], src[3].scale(2.0));
    }

    #[test]
    fn matvec_backends_agree() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            let a = block(n, n);
            let x = block(1, n);
            let mut ys = vec![Complex64::ZERO; n];
            let mut yv = vec![Complex64::ZERO; n];
            matvec_into_with(Backend::Scalar, n, n, &a, &x, &mut ys);
            matvec_into_with(Backend::Vector, n, n, &a, &x, &mut yv);
            for (s, v) in ys.iter().zip(yv.iter()) {
                assert!(s.approx_eq(*v, 1e-12), "n={n}: {s} vs {v}");
            }
        }
    }

    #[test]
    fn color_block_backends_agree() {
        for (n, m) in [(1usize, 7usize), (3, 515), (4, 256), (6, 33)] {
            let a = block(n, n);
            let raw = block(n, m);
            let mut outs = vec![Complex64::ZERO; n * m];
            let mut outv = vec![Complex64::ZERO; n * m];
            let mut w = Vec::new();
            let mut planes = Vec::new();
            color_block_with(
                Backend::Scalar,
                n,
                m,
                &a,
                0.7,
                &raw,
                &mut outs,
                &mut w,
                &mut planes,
            );
            color_block_with(
                Backend::Vector,
                n,
                m,
                &a,
                0.7,
                &raw,
                &mut outv,
                &mut w,
                &mut planes,
            );
            for (s, v) in outs.iter().zip(outv.iter()) {
                assert!(s.approx_eq(*v, 1e-12), "n={n} m={m}: {s} vs {v}");
            }
        }
    }

    #[test]
    fn accumulate_covariance_backends_agree() {
        for (n, m) in [(1usize, 5usize), (2, 130), (3, 257), (5, 64)] {
            let data = block(n, m);
            let mut accs = vec![Complex64::ZERO; n * n];
            let mut accv = vec![Complex64::ZERO; n * n];
            accumulate_covariance_with(Backend::Scalar, n, m, &data, &mut accs);
            accumulate_covariance_with(Backend::Vector, n, m, &data, &mut accv);
            for (s, v) in accs.iter().zip(accv.iter()) {
                assert!(s.approx_eq(*v, 1e-10 * m as f64), "n={n} m={m}: {s} vs {v}");
            }
        }
    }

    #[test]
    fn envelope_backends_agree() {
        let data = block(1, 77);
        let mut es = vec![0.0; 77];
        let mut ev = vec![0.0; 77];
        envelope_into_with(Backend::Scalar, &data, &mut es);
        envelope_into_with(Backend::Vector, &data, &mut ev);
        for (s, v) in es.iter().zip(ev.iter()) {
            assert!((s - v).abs() <= 1e-12, "{s} vs {v}");
        }
    }

    #[test]
    #[should_panic(expected = "matvec: input length")]
    fn matvec_checks_dimensions() {
        let mut y = [Complex64::ZERO; 2];
        matvec_into_with(Backend::Scalar, 2, 2, &[Complex64::ZERO; 4], &[], &mut y);
    }

    #[test]
    fn backend_spec_parsing_accepts_documented_forms() {
        assert_eq!(parse_backend(None), Ok(Backend::Vector));
        assert_eq!(parse_backend(Some("scalar")), Ok(Backend::Scalar));
        assert_eq!(parse_backend(Some("vector")), Ok(Backend::Vector));
        assert_eq!(parse_backend(Some("simd")), Ok(Backend::Vector));
        assert_eq!(parse_backend(Some("auto")), Ok(Backend::Vector));
        // Trimmed and case-insensitive — shell quoting mishaps are not
        // configuration errors.
        assert_eq!(parse_backend(Some(" Scalar ")), Ok(Backend::Scalar));
        assert_eq!(parse_backend(Some("VECTOR")), Ok(Backend::Vector));
    }

    #[test]
    fn backend_spec_parsing_rejects_garbage_with_a_diagnostic() {
        for bad in ["", "  ", "scaler", "sse", "1", "scalar,vector"] {
            let err = parse_backend(Some(bad)).unwrap_err();
            assert!(
                err.contains("CORRFADE_KERNEL") && err.contains("expected"),
                "diagnostic must name the variable and the accepted forms: {err}"
            );
            assert!(
                err.contains(&format!("{bad:?}")),
                "diagnostic must quote the offending value: {err}"
            );
        }
    }

    #[test]
    fn axpy_planar_matches_color_block_inner_loop() {
        // One AXPY accumulated by hand must equal a 1×m color_block with a
        // single coefficient and unit scale, on the vector backend.
        let m = 37;
        let raw = block(1, m);
        let c = c64(0.8, -0.3);
        let mut xre = vec![0.0; m];
        let mut xim = vec![0.0; m];
        deinterleave_into(&raw, &mut xre, &mut xim);
        let mut yre = vec![0.0; m];
        let mut yim = vec![0.0; m];
        axpy_planar(c.re, c.im, &xre, &xim, &mut yre, &mut yim);
        let mut expected = vec![Complex64::ZERO; m];
        let mut w = Vec::new();
        let mut planes = Vec::new();
        color_block_with(
            Backend::Vector,
            1,
            m,
            &[c],
            1.0,
            &raw,
            &mut expected,
            &mut w,
            &mut planes,
        );
        let mut got = vec![Complex64::ZERO; m];
        interleave_scaled_into(&yre, &yim, 1.0, &mut got);
        assert_eq!(got, expected);
    }
}
