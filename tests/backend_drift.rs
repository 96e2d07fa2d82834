//! Stream-level drift between the kernel backends.
//!
//! The scalar backend is the bit-exact reference; the vector backend may
//! round differently but must stay within `1e-12` of it, relative to the
//! block's peak. The kernel suites compare the backends one kernel at a
//! time; this file builds whole blocks — Doppler-weighted spectra from
//! `fill_spectrum_into`, then the realtime IDFT + coloring — through both
//! explicit-backend entry points in one process, at the shapes the
//! benchmark and the paper run:
//!
//! * fig4a: `N = 3`, `M = 4096`, the Eq. (22) coloring;
//! * one `wsn-epoch` group: `N = 64`, `M = 256`, its link-field coloring;
//! * a Bluestein length: `N = 4`, `M = 1000`;
//! * single-instant mode at `N = 16` through `matvec_into_with`.
//!
//! It also pins the edge cases a change of operation order could break:
//! all-zero spectra, a `σ_orig = ∞` spectrum full of NaN and ∞ bins, and
//! the latched entry point against the explicit one.

#[path = "../crates/network/tests/support/wsn_epoch.rs"]
mod wsn_epoch;

use corrfade::eigen_coloring;
use corrfade_dsp::{color_idft_block, color_idft_block_with, DopplerFilter, IdftRayleighGenerator};
use corrfade_linalg::kernel::{self, matvec_into_with, Backend};
use corrfade_linalg::{CMatrix, Complex64};
use corrfade_models::paper_covariance_matrix_22;
use corrfade_randn::{ComplexGaussian, RandomStream};
use corrfade_scenarios::lookup;

/// Bound on `max|vector − scalar| / max|scalar|` over a block.
const MAX_DRIFT: f64 = 1e-12;

/// The paper's Doppler settings: `f_m = 0.05`, `σ²_orig = 1/2`.
const FM: f64 = 0.05;
const SIGMA_ORIG_SQ: f64 = 0.5;

/// One realtime block's inputs: the coloring matrix, the `1/σ_g` scale and
/// `N` Doppler-weighted spectra drawn from a pinned seed.
struct Case {
    n: usize,
    m: usize,
    a: Vec<Complex64>,
    scale: f64,
    raw: Vec<Complex64>,
}

impl Case {
    fn new(k: &CMatrix, m: usize, fm: f64, sigma_orig_sq: f64, seed: u64) -> Self {
        let n = k.rows();
        let coloring = eigen_coloring(k).unwrap();
        let idft =
            IdftRayleighGenerator::new(DopplerFilter::new(m, fm).unwrap(), sigma_orig_sq).unwrap();
        let mut rng = RandomStream::new(seed);
        let mut raw = vec![Complex64::ZERO; n * m];
        for row in raw.chunks_exact_mut(m) {
            idft.fill_spectrum_into(&mut rng, row);
        }
        Self {
            n,
            m,
            a: coloring.matrix.as_slice().to_vec(),
            scale: 1.0 / idft.output_variance().sqrt(),
            raw,
        }
    }

    /// The colored block on backend `b` (the spectra are copied, since the
    /// call destroys its input).
    fn block(&self, b: Backend) -> Vec<Complex64> {
        let mut raw = self.raw.clone();
        let mut out = vec![Complex64::ZERO; self.n * self.m];
        let (mut w, mut planes) = (Vec::new(), Vec::new());
        color_idft_block_with(
            b,
            self.n,
            self.m,
            &self.a,
            self.scale,
            &mut raw,
            &mut out,
            &mut w,
            &mut planes,
        );
        out
    }
}

/// `max|vector − scalar| / max|scalar|`, asserting both are finite.
fn drift(scalar: &[Complex64], vector: &[Complex64]) -> f64 {
    assert_eq!(scalar.len(), vector.len());
    let peak = scalar.iter().map(|z| z.abs()).fold(0.0, f64::max);
    let gap = scalar
        .iter()
        .zip(vector)
        .map(|(s, v)| (*s - *v).abs())
        .fold(0.0, f64::max);
    assert!(peak.is_finite() && peak > 0.0, "scalar peak {peak}");
    assert!(gap.is_finite(), "vector block is not finite");
    gap / peak
}

fn assert_block_drift(what: &str, case: &Case) {
    let d = drift(&case.block(Backend::Scalar), &case.block(Backend::Vector));
    assert!(
        d <= MAX_DRIFT,
        "{what}: relative drift {d:.3e} > {MAX_DRIFT:e}"
    );
}

#[test]
fn fig4a_block_stays_within_the_fft_tolerance() {
    let case = Case::new(
        &paper_covariance_matrix_22(),
        4096,
        FM,
        SIGMA_ORIG_SQ,
        0xF164,
    );
    assert_block_drift("fig4a (N = 3, M = 4096)", &case);
}

#[test]
fn wsn_epoch_group_block_stays_within_the_fft_tolerance() {
    let k = wsn_epoch::group_covariances()
        .into_iter()
        .find(|k| k.rows() == 64)
        .expect("wsn-epoch has a full 64-link group");
    let case = Case::new(&k, 256, FM, SIGMA_ORIG_SQ, 0x5E9);
    assert_block_drift("wsn-epoch group (N = 64, M = 256)", &case);
}

#[test]
fn bluestein_block_stays_within_the_fft_tolerance() {
    let scenario = *lookup("complex-exp-rho08").unwrap();
    let k = scenario.with_envelopes(4).covariance_matrix().unwrap();
    let case = Case::new(&k, 1000, 0.04, SIGMA_ORIG_SQ, 0xB1E);
    assert_block_drift("Bluestein (N = 4, M = 1000)", &case);
}

#[test]
fn single_instant_snapshots_stay_within_the_tolerance() {
    let k = lookup("scaling-exp-rho07")
        .unwrap()
        .covariance_matrix()
        .unwrap();
    let n = k.rows();
    assert_eq!(n, 16);
    let coloring = eigen_coloring(&k).unwrap();
    let a = coloring.matrix.as_slice();
    let snapshots = 64;
    let mut w = vec![Complex64::ZERO; n * snapshots];
    ComplexGaussian::default().fill(&mut RandomStream::new(0x516), &mut w, 1.0);
    let (mut zs, mut zv) = (w.clone(), w.clone());
    for ((x, s), v) in w
        .chunks_exact(n)
        .zip(zs.chunks_exact_mut(n))
        .zip(zv.chunks_exact_mut(n))
    {
        matvec_into_with(Backend::Scalar, n, n, a, x, s);
        matvec_into_with(Backend::Vector, n, n, a, x, v);
    }
    let d = drift(&zs, &zv);
    assert!(d <= MAX_DRIFT, "single-instant N = 16: drift {d:.3e}");
}

#[test]
fn all_zero_spectra_give_the_all_zero_block() {
    for (n, m) in [(3usize, 4096usize), (64, 256), (4, 1000)] {
        let case = Case {
            n,
            m,
            a: (0..n * n)
                .map(|i| Complex64::new(1.0 + i as f64, 0.5))
                .collect(),
            scale: 2.0,
            raw: vec![Complex64::ZERO; n * m],
        };
        for b in [Backend::Scalar, Backend::Vector] {
            let out = case.block(b);
            assert!(
                out.iter().all(|z| z.re == 0.0 && z.im == 0.0),
                "{b:?}, N = {n}, M = {m}: a zero spectrum must color to zero"
            );
        }
    }
}

#[test]
fn infinite_sigma_orig_propagates_nan_like_the_scalar_backend() {
    // σ_orig = ∞ makes every pass-band bin ±∞ and every stop-band bin
    // 0·∞ = NaN; both orders of IDFT and coloring must turn that into NaN
    // wherever the reference does.
    for (k, m) in [
        (paper_covariance_matrix_22(), 4096usize),
        (
            lookup("scaling-exp-rho07")
                .unwrap()
                .covariance_matrix()
                .unwrap(),
            256,
        ),
    ] {
        let mut case = Case::new(&k, m, FM, f64::INFINITY, 0x1AF);
        case.scale = 1.0;
        let scalar = case.block(Backend::Scalar);
        let vector = case.block(Backend::Vector);
        let nan = |z: &Complex64| z.re.is_nan() || z.im.is_nan();
        assert!(scalar.iter().any(nan), "the reference must produce NaN");
        for (i, (s, v)) in scalar.iter().zip(&vector).enumerate() {
            assert!(
                !nan(s) || nan(v),
                "N = {}, M = {m}, element {i}: scalar {s} is NaN, vector {v} is not",
                case.n
            );
        }
    }
}

#[test]
fn latched_entry_point_is_the_explicit_one_on_the_process_backend() {
    for case in [
        Case::new(&paper_covariance_matrix_22(), 4096, FM, SIGMA_ORIG_SQ, 7),
        Case::new(
            &lookup("scaling-exp-rho07")
                .unwrap()
                .covariance_matrix()
                .unwrap(),
            1000,
            0.04,
            SIGMA_ORIG_SQ,
            8,
        ),
    ] {
        let explicit = case.block(kernel::backend());
        let mut raw = case.raw.clone();
        let mut latched = vec![Complex64::ZERO; case.n * case.m];
        let (mut w, mut planes) = (Vec::new(), Vec::new());
        color_idft_block(
            case.n,
            case.m,
            &case.a,
            case.scale,
            &mut raw,
            &mut latched,
            &mut w,
            &mut planes,
        );
        for (i, (l, e)) in latched.iter().zip(&explicit).enumerate() {
            assert_eq!(
                (l.re.to_bits(), l.im.to_bits()),
                (e.re.to_bits(), e.im.to_bits()),
                "{:?}, M = {}, element {i}",
                kernel::backend(),
                case.m
            );
        }
    }
}
