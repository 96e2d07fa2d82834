//! A covariance matrix with a NaN or infinite entry is rejected with a
//! typed error by every entry point that takes one: the eigensolver, both
//! proposed generators and every conventional baseline.
//!
//! Without the check such a matrix slipped through: `max_abs` skips NaN,
//! and against a NaN or infinite magnitude every Jacobi pivot and
//! convergence test is false, so the eigensolver returned the input as its
//! own decomposition and the generators streamed uncorrelated envelopes.

use corrfade::{
    CorrelatedRayleighGenerator, CorrfadeError, Precision, RealtimeConfig, RealtimeGenerator,
};
use corrfade_baselines::{BaselineError, BaselineMethod};
use corrfade_linalg::{c64, hermitian_eigen, CMatrix, LinalgError};
use corrfade_models::paper_covariance_matrix_23;

/// Copies of `k` with one non-finite value placed on the diagonal, in the
/// real part of an off-diagonal pair and in the imaginary part of one:
/// `(label, matrix)`.
fn poisoned(k: &CMatrix) -> Vec<(String, CMatrix)> {
    let mut out = Vec::new();
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut diag = k.clone();
        diag[(0, 0)] = c64(v, 0.0);
        out.push((format!("K[0,0] = {v}"), diag));

        let mut re = k.clone();
        re[(0, 1)] = c64(v, 0.0);
        re[(1, 0)] = c64(v, 0.0);
        out.push((format!("Re K[0,1] = Re K[1,0] = {v}"), re));

        let mut im = k.clone();
        im[(0, 1)] = c64(k[(0, 1)].re, v);
        im[(1, 0)] = c64(k[(0, 1)].re, -v);
        out.push((format!("Im K[0,1] = -Im K[1,0] = {v}"), im));
    }
    out
}

#[test]
fn hermitian_eigen_rejects_non_finite_entries() {
    for (label, k) in poisoned(&paper_covariance_matrix_23()) {
        assert!(
            matches!(
                hermitian_eigen(&k),
                Err(LinalgError::NonFinite { row: 0, col: 0 | 1 })
            ),
            "{label}"
        );
    }
}

#[test]
fn proposed_generators_reject_non_finite_covariances() {
    // A NaN or −∞ power is already a negative-power error; everything else
    // reaches the eigensolver's check.
    let typed = |e: &CorrfadeError| {
        matches!(
            e,
            CorrfadeError::Linalg(LinalgError::NonFinite { .. })
                | CorrfadeError::NegativePower { index: 0, .. }
        )
    };
    for (label, k) in poisoned(&paper_covariance_matrix_23()) {
        let e = CorrelatedRayleighGenerator::new(k.clone(), 1).unwrap_err();
        assert!(typed(&e), "{label}: single-instant gave {e:?}");
        let e = RealtimeGenerator::new(RealtimeConfig {
            covariance: k,
            idft_size: 256,
            normalized_doppler: 0.05,
            sigma_orig_sq: 0.5,
            seed: 1,
            precision: Precision::F64,
        })
        .unwrap_err();
        assert!(typed(&e), "{label}: realtime gave {e:?}");
    }
}

#[test]
fn every_baseline_rejects_non_finite_covariances() {
    // Each method gets a matrix it accepts before poisoning, so the
    // rejection is the non-finite entry's.
    let k3 = paper_covariance_matrix_23();
    let k2 = CMatrix::from_real_slice(2, 2, &[1.0, 0.5, 0.5, 1.0]);
    for method in BaselineMethod::ALL {
        let two_envelope = matches!(method, BaselineMethod::ErtelReed | BaselineMethod::Beaulieu);
        let k = if two_envelope { &k2 } else { &k3 };
        assert!(method.try_stream(k, 1).is_ok(), "{}", method.name());
        for (label, bad) in poisoned(k) {
            let Err(e) = method.try_stream(&bad, 1) else {
                panic!("{}: {label} was accepted", method.name());
            };
            assert_eq!(
                e,
                BaselineError::Invalid {
                    reason: "covariance matrix entries must be finite"
                },
                "{}: {label}",
                method.name()
            );
        }
    }
}
