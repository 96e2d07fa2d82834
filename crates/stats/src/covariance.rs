//! Sample covariance estimation for complex Gaussian processes.
//!
//! The headline claim of the paper is `E(Z·Zᴴ) = K̄` (Sec. 4.5): the sample
//! covariance of the generated vectors must converge to the (PSD-forced)
//! desired covariance matrix. This module estimates that matrix from the
//! generated sample paths.

use corrfade_linalg::{CMatrix, Complex64, SampleBlock};

/// Sample covariance `K̂ = (1/S)·Σ_s z_s·z_sᴴ` of `N` zero-mean complex
/// processes from their sample paths: `paths[j]` is the whole time series
/// of process `j` (all paths must have equal length `S`), convenient when
/// the generator returns one long sequence per envelope.
///
/// # Panics
/// Panics if the paths are ragged or empty.
pub fn sample_covariance_from_paths(paths: &[Vec<Complex64>]) -> CMatrix {
    assert!(!paths.is_empty(), "sample_covariance_from_paths: no paths");
    let len = paths[0].len();
    assert!(len > 0, "sample_covariance_from_paths: empty paths");
    let n = paths.len();
    let mut k = CMatrix::zeros(n, n);
    for i in 0..n {
        assert_eq!(
            paths[i].len(),
            len,
            "sample_covariance_from_paths: path {i} has ragged length"
        );
        for j in 0..n {
            let mut acc = Complex64::ZERO;
            for (zi, zj) in paths[i].iter().zip(paths[j].iter()) {
                acc += *zi * zj.conj();
            }
            k[(i, j)] = acc.unscale(len as f64);
        }
    }
    k
}

/// Sample covariance straight from a planar [`SampleBlock`] — no snapshot
/// or path vectors are materialized. Every sample of the block counts as one
/// snapshot: on the scalar kernel backend the result matches folding the
/// block's `M` length-`N` snapshots `z_l·z_lᴴ` in sample order and scaling
/// by `1/M`, bit for bit.
///
/// # Panics
/// Panics if the block is empty.
pub fn sample_covariance_from_block(block: &SampleBlock) -> CMatrix {
    assert!(
        block.samples() > 0 && block.envelopes() > 0,
        "sample_covariance_from_block: empty block"
    );
    let n = block.envelopes();
    let mut k = CMatrix::zeros(n, n);
    block.accumulate_covariance(&mut k);
    k.scale_real(1.0 / block.samples() as f64)
}

/// Correlation-coefficient matrix obtained by normalizing a covariance
/// matrix: `ρ_{k,j} = K_{k,j} / √(K_{k,k}·K_{j,j})`.
///
/// # Panics
/// Panics if the matrix is not square or has a non-positive diagonal entry.
pub fn correlation_from_covariance(k: &CMatrix) -> CMatrix {
    assert!(
        k.is_square(),
        "correlation_from_covariance: matrix must be square"
    );
    let n = k.rows();
    let mut diag = Vec::with_capacity(n);
    for i in 0..n {
        let d = k[(i, i)].re;
        assert!(
            d > 0.0,
            "correlation_from_covariance: non-positive variance at index {i}"
        );
        diag.push(d);
    }
    CMatrix::from_fn(n, n, |i, j| k[(i, j)].unscale((diag[i] * diag[j]).sqrt()))
}

/// Relative Frobenius error `‖K̂ − K‖_F / ‖K‖_F` — the figure of merit used
/// throughout the experiments to quantify how well the generated samples
/// achieve the desired covariance.
pub fn relative_frobenius_error(achieved: &CMatrix, desired: &CMatrix) -> f64 {
    let denom = desired.frobenius_norm().max(f64::MIN_POSITIVE);
    achieved.frobenius_distance(desired) / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfade_linalg::c64;

    /// `(1/S)·Σ_s z_s·z_sᴴ` folded snapshot by snapshot — the sample-major
    /// order the block estimate follows on the scalar backend.
    fn snapshot_covariance(snapshots: &[Vec<Complex64>]) -> CMatrix {
        let n = snapshots[0].len();
        let mut k = CMatrix::zeros(n, n);
        for snap in snapshots {
            for i in 0..n {
                for j in 0..n {
                    k[(i, j)] += snap[i] * snap[j].conj();
                }
            }
        }
        k.scale_real(1.0 / snapshots.len() as f64)
    }

    #[test]
    fn covariance_of_deterministic_snapshots() {
        // Two snapshots s1 = (1, i), s2 = (2i, 2) of a 2-vector with known
        // outer products, as the paths of its two processes.
        let paths = [
            vec![c64(1.0, 0.0), c64(0.0, 2.0)],
            vec![c64(0.0, 1.0), c64(2.0, 0.0)],
        ];
        let k = sample_covariance_from_paths(&paths);
        // K[0][0] = (|1|^2 + |2i|^2)/2 = 2.5
        assert!((k[(0, 0)].re - 2.5).abs() < 1e-12);
        // K[0][1] = (1*conj(i) + 2i*conj(2))/2 = (-i + 4i)/2 = 1.5i
        assert!(k[(0, 1)].approx_eq(c64(0.0, 1.5), 1e-12));
        // Hermitian.
        assert!(k[(1, 0)].approx_eq(k[(0, 1)].conj(), 1e-12));
    }

    #[test]
    fn block_and_snapshot_estimates_are_bit_identical() {
        let snapshots = [
            vec![c64(1.0, 1.0), c64(2.0, -1.0)],
            vec![c64(-1.0, 0.5), c64(0.0, 1.0)],
            vec![c64(0.25, -2.0), c64(1.0, 1.0)],
        ];
        let mut block = SampleBlock::new(2, 3);
        for (l, snap) in snapshots.iter().enumerate() {
            for (j, &z) in snap.iter().enumerate() {
                block.path_mut(j)[l] = z;
            }
        }
        let from_snaps = snapshot_covariance(&snapshots);
        let from_block = sample_covariance_from_block(&block);
        assert!(from_block.approx_eq(&from_snaps, 0.0));
    }

    #[test]
    fn paths_and_snapshots_agree() {
        let snapshots = vec![
            vec![c64(1.0, 1.0), c64(2.0, -1.0)],
            vec![c64(-1.0, 0.5), c64(0.0, 1.0)],
            vec![c64(0.25, -2.0), c64(1.0, 1.0)],
        ];
        let paths: Vec<Vec<Complex64>> = (0..2)
            .map(|j| snapshots.iter().map(|s| s[j]).collect())
            .collect();
        let k1 = snapshot_covariance(&snapshots);
        let k2 = sample_covariance_from_paths(&paths);
        assert!(k1.approx_eq(&k2, 1e-12));
    }

    #[test]
    fn correlation_matrix_has_unit_diagonal() {
        let k = CMatrix::from_rows(&[
            vec![c64(4.0, 0.0), c64(1.0, 1.0)],
            vec![c64(1.0, -1.0), c64(9.0, 0.0)],
        ]);
        let rho = correlation_from_covariance(&k);
        assert!(rho[(0, 0)].approx_eq(Complex64::ONE, 1e-12));
        assert!(rho[(1, 1)].approx_eq(Complex64::ONE, 1e-12));
        assert!(rho[(0, 1)].approx_eq(c64(1.0 / 6.0, 1.0 / 6.0), 1e-12));
    }

    #[test]
    fn relative_error_metric() {
        let a = CMatrix::identity(3);
        let b = CMatrix::identity(3).scale_real(1.1);
        let e = relative_frobenius_error(&b, &a);
        assert!((e - 0.1).abs() < 1e-12);
        assert_eq!(relative_frobenius_error(&a, &a), 0.0);
    }
}
