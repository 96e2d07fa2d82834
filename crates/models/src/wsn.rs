//! Spatial-field helpers for network-scale (WSN) link simulation.
//!
//! The paper's algorithm takes an arbitrary covariance matrix; a wireless
//! *network* derives that matrix from geometry. This module provides the
//! geometry → covariance building blocks shared by the `corrfade-network`
//! crate and the generated `network/*` scenario family:
//!
//! * [`grid_positions`] / [`links_within_radius`] — node layouts and
//!   deterministic link extraction via a connectivity radius,
//! * [`LinkCorrelationModel`] — shadowing-style correlation between two
//!   links, exponentially decaying in the physical separation of their
//!   midpoints and in their angular separation (Gudmundson-style, the
//!   standard WSN spatial-correlation shape),
//! * [`LogDistancePathLoss`] — log-distance path loss mapping link length
//!   to a per-link mean SNR (the per-envelope Gaussian power),
//! * [`link_field_covariance`] — the assembled Hermitian covariance **K**
//!   over a set of links, built through the crate's covariance builder
//!   (paper Eq. 12–13) with the path-loss powers on the diagonal.
//!
//! All functions are pure and iterate in a fixed order, so the produced
//! matrices are **bitwise deterministic** in their inputs — the foundation
//! of the network layer's partition-invariance guarantee.

use corrfade_linalg::{c64, CMatrix};

use crate::covariance::{CovarianceBuildError, CovarianceBuilder};

/// Euclidean distance between two points.
#[must_use]
pub fn distance(a: [f64; 2], b: [f64; 2]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    (dx * dx + dy * dy).sqrt()
}

/// Midpoint of the segment `a`–`b` — the reference point of a link when
/// evaluating spatial correlation between links.
#[must_use]
pub fn midpoint(a: [f64; 2], b: [f64; 2]) -> [f64; 2] {
    [0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])]
}

/// Orientation of the undirected segment `a`–`b` in radians, folded into
/// `[0, π)` (a link and its reverse have the same orientation).
#[must_use]
pub fn link_orientation(a: [f64; 2], b: [f64; 2]) -> f64 {
    let theta = (b[1] - a[1]).atan2(b[0] - a[0]);
    let theta = if theta < 0.0 {
        theta + core::f64::consts::PI
    } else {
        theta
    };
    // atan2 can return exactly π for direction (-1, -0.0); fold it to 0.
    if theta >= core::f64::consts::PI {
        theta - core::f64::consts::PI
    } else {
        theta
    }
}

/// Acute angle between two undirected orientations in `[0, π)`, returned in
/// `[0, π/2]`.
#[must_use]
pub fn angular_separation(theta_a: f64, theta_b: f64) -> f64 {
    let diff = (theta_a - theta_b).abs() % core::f64::consts::PI;
    diff.min(core::f64::consts::PI - diff)
}

/// Node positions of an `nx × ny` rectangular grid with the given spacing,
/// row-major: node `iy·nx + ix` sits at `(ix·spacing, iy·spacing)`.
#[must_use]
pub fn grid_positions(nx: usize, ny: usize, spacing: f64) -> Vec<[f64; 2]> {
    let mut positions = Vec::with_capacity(nx * ny);
    for iy in 0..ny {
        for ix in 0..nx {
            positions.push([ix as f64 * spacing, iy as f64 * spacing]);
        }
    }
    positions
}

/// Every node pair within `radius` of each other, as `(k, j)` with `k < j`,
/// in lexicographic order — the **deterministic link ordering** every layer
/// above (group partitioning, seeding, sharding) relies on.
#[must_use]
pub fn links_within_radius(positions: &[[f64; 2]], radius: f64) -> Vec<(usize, usize)> {
    let mut links = Vec::new();
    for k in 0..positions.len() {
        for j in (k + 1)..positions.len() {
            if distance(positions[k], positions[j]) <= radius {
                links.push((k, j));
            }
        }
    }
    links
}

/// Exponential-decay spatial correlation between two links, evaluated on
/// the physical separation of their midpoints and their angular
/// separation:
///
/// ```text
/// ρ = min(exp(−d/D_c) · exp(−Δθ/θ_c), ρ_max)
/// ```
///
/// The distance factor is the classic Gudmundson shadowing-correlation
/// model; the angular factor captures that links observing the scatter
/// field from similar directions fade together. Both kernels are of
/// Laplacian type (positive semidefinite on their metric), so the
/// assembled matrices are PSD up to round-off — and the generator's
/// Sec. 4.2 eigenvalue clipping absorbs any residual negative tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCorrelationModel {
    /// Decorrelation distance `D_c` (same unit as the node positions);
    /// must be positive and finite.
    pub decorrelation_distance: f64,
    /// Angular decorrelation scale `θ_c` in radians; `f64::INFINITY`
    /// disables the angular factor.
    pub angular_scale_rad: f64,
    /// Upper clamp applied to every off-diagonal correlation, keeping
    /// distinct links strictly less than fully correlated so the matrix
    /// stays decomposable (default `0.99`).
    pub max_correlation: f64,
}

impl LinkCorrelationModel {
    /// Distance-only decay (angular factor disabled), clamped at `0.99`.
    #[must_use]
    pub fn distance_only(decorrelation_distance: f64) -> Self {
        Self {
            decorrelation_distance,
            angular_scale_rad: f64::INFINITY,
            max_correlation: 0.99,
        }
    }

    /// Distance and angular decay, clamped at `0.99`.
    #[must_use]
    pub fn new(decorrelation_distance: f64, angular_scale_rad: f64) -> Self {
        Self {
            decorrelation_distance,
            angular_scale_rad,
            max_correlation: 0.99,
        }
    }

    /// The correlation coefficient for a link pair separated by
    /// `midpoint_distance` with angular separation `angular_sep` —
    /// always in `[0, max_correlation]`.
    ///
    /// # Panics
    /// See [`Self::assert_valid`].
    #[must_use]
    pub fn correlation(&self, midpoint_distance: f64, angular_sep: f64) -> f64 {
        self.assert_valid();
        self.correlation_unchecked(midpoint_distance, angular_sep)
    }

    /// Checks the parameters [`Self::correlation`] checks on every call.
    ///
    /// # Panics
    /// Panics unless the decorrelation distance is positive, a finite
    /// angular scale is positive and the clamp is non-negative.
    pub fn assert_valid(&self) {
        assert!(
            self.decorrelation_distance > 0.0,
            "decorrelation distance must be positive"
        );
        if self.angular_scale_rad.is_finite() {
            assert!(
                self.angular_scale_rad > 0.0,
                "angular scale must be positive"
            );
        }
        assert!(
            self.max_correlation >= 0.0,
            "max correlation must be non-negative"
        );
    }

    /// [`Self::correlation`] without its parameter checks, bit for bit:
    /// for loops over many pairs that call [`Self::assert_valid`] once.
    #[must_use]
    pub fn correlation_unchecked(&self, midpoint_distance: f64, angular_sep: f64) -> f64 {
        let mut rho = (-midpoint_distance / self.decorrelation_distance).exp();
        if self.angular_scale_rad.is_finite() {
            rho *= (-angular_sep / self.angular_scale_rad).exp();
        }
        rho.clamp(0.0, self.max_correlation)
    }
}

/// Log-distance path loss mapping a link's length to its mean SNR — the
/// standard `PL(d) = PL(d₀) + 10·n·log₁₀(d/d₀)` model expressed directly
/// in SNR terms:
///
/// ```text
/// γ̄(d) = γ̄(d₀) − 10·n·log₁₀(d/d₀)       [dB],  d clamped to ≥ d₀
/// ```
///
/// The linear mean SNR doubles as the link's complex-Gaussian power
/// `σ_g²` (unit noise power), so the instantaneous SNR of the generated
/// envelope `r` is simply `r²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDistancePathLoss {
    /// Mean SNR in dB at the reference distance.
    pub reference_snr_db: f64,
    /// Reference distance `d₀` (same unit as node positions); positive.
    pub reference_distance: f64,
    /// Path-loss exponent `n` (≈ 2 free space, 2.7–4 urban/indoor).
    pub exponent: f64,
}

impl LogDistancePathLoss {
    /// Mean SNR in dB of a link of the given length (lengths below the
    /// reference distance saturate at the reference SNR).
    #[must_use]
    pub fn mean_snr_db(&self, link_length: f64) -> f64 {
        assert!(
            self.reference_distance > 0.0,
            "reference distance must be positive"
        );
        let d = link_length.max(self.reference_distance);
        self.reference_snr_db - 10.0 * self.exponent * (d / self.reference_distance).log10()
    }

    /// Linear mean SNR of a link of the given length — the link's Gaussian
    /// power `σ_g²`.
    #[must_use]
    pub fn mean_snr_linear(&self, link_length: f64) -> f64 {
        10f64.powf(self.mean_snr_db(link_length) / 10.0)
    }
}

/// Assembles the Hermitian covariance matrix **K** of a set of links:
/// diagonal = per-link Gaussian power from the path-loss model, off-diagonal
/// `µ_{k,j} = ρ_{k,j}·√(p_k·p_j)` from the spatial correlation model
/// evaluated on the links' midpoint separation and angular separation.
///
/// `links` holds `(a, b)` node-index pairs into `positions`; entries are
/// produced in the order given, so the matrix is bitwise deterministic in
/// `(positions, links, models)`.
///
/// # Errors
/// [`CovarianceBuildError`] when a computed power is invalid (only possible
/// for non-finite geometry).
///
/// # Panics
/// Panics if a link references a node index out of range.
pub fn link_field_covariance(
    positions: &[[f64; 2]],
    links: &[(usize, usize)],
    correlation: &LinkCorrelationModel,
    path_loss: &LogDistancePathLoss,
) -> Result<CMatrix, CovarianceBuildError> {
    let n = links.len();
    let mut powers = Vec::with_capacity(n);
    let mut midpoints = Vec::with_capacity(n);
    let mut orientations = Vec::with_capacity(n);
    for &(a, b) in links {
        let (pa, pb) = (positions[a], positions[b]);
        powers.push(path_loss.mean_snr_linear(distance(pa, pb)));
        midpoints.push(midpoint(pa, pb));
        orientations.push(link_orientation(pa, pb));
    }
    let mut builder = CovarianceBuilder::new(&powers)?;
    for k in 0..n {
        for j in (k + 1)..n {
            let rho = correlation.correlation(
                distance(midpoints[k], midpoints[j]),
                angular_separation(orientations[k], orientations[j]),
            );
            builder.set_complex_pair(k, j, c64(rho * (powers[k] * powers[j]).sqrt(), 0.0));
        }
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_positions_are_row_major() {
        let p = grid_positions(3, 2, 2.0);
        assert_eq!(p.len(), 6);
        assert_eq!(p[0], [0.0, 0.0]);
        assert_eq!(p[2], [4.0, 0.0]);
        assert_eq!(p[3], [0.0, 2.0]);
        assert_eq!(p[5], [4.0, 2.0]);
    }

    #[test]
    fn links_within_radius_is_sorted_and_complete() {
        // Unit 2x2 grid: 4 orthogonal links at distance 1, 2 diagonals at √2.
        let p = grid_positions(2, 2, 1.0);
        let links = links_within_radius(&p, 1.25);
        assert_eq!(links, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let all = links_within_radius(&p, 1.5);
        assert_eq!(all.len(), 6, "diagonals included at radius 1.5");
        assert!(all.windows(2).all(|w| w[0] < w[1]), "lexicographic order");
    }

    #[test]
    fn orientation_is_direction_invariant() {
        let a = [0.0, 0.0];
        let b = [1.0, 1.0];
        assert!((link_orientation(a, b) - link_orientation(b, a)).abs() < 1e-15);
        // Horizontal link measured in either direction folds to 0.
        assert!(link_orientation([1.0, 0.0], [0.0, 0.0]).abs() < 1e-15);
        assert!(link_orientation([0.0, 0.0], [1.0, 0.0]).abs() < 1e-15);
    }

    #[test]
    fn angular_separation_is_acute() {
        let quarter = core::f64::consts::FRAC_PI_2;
        assert!((angular_separation(0.0, quarter) - quarter).abs() < 1e-15);
        // 170° vs 10° of undirected lines are only 20° apart.
        let a = 170f64.to_radians();
        let b = 10f64.to_radians();
        assert!((angular_separation(a, b) - 20f64.to_radians()).abs() < 1e-12);
        assert_eq!(angular_separation(0.3, 0.3), 0.0);
    }

    #[test]
    fn correlation_decays_and_clamps() {
        let m = LinkCorrelationModel::distance_only(2.0);
        assert!((m.correlation(0.0, 0.0) - 0.99).abs() < 1e-15, "clamped");
        let near = m.correlation(1.0, 0.0);
        let far = m.correlation(4.0, 0.0);
        assert!(near > far && far > 0.0);
        assert!((near - (-0.5f64).exp()).abs() < 1e-15);

        // The angular factor only engages when finite.
        let ang = LinkCorrelationModel::new(2.0, 0.5);
        assert!(ang.correlation(1.0, 0.4) < m.correlation(1.0, 0.4));
    }

    #[test]
    fn path_loss_saturates_below_reference() {
        let pl = LogDistancePathLoss {
            reference_snr_db: 20.0,
            reference_distance: 1.0,
            exponent: 3.0,
        };
        assert!((pl.mean_snr_db(0.5) - 20.0).abs() < 1e-15);
        assert!((pl.mean_snr_db(10.0) - (20.0 - 30.0)).abs() < 1e-12);
        assert!((pl.mean_snr_linear(1.0) - 100.0).abs() < 1e-10);
    }

    #[test]
    fn link_field_covariance_is_hermitian_psd_with_powers_on_diagonal() {
        let p = grid_positions(3, 3, 1.0);
        let links = links_within_radius(&p, 1.25);
        let correlation = LinkCorrelationModel::new(1.0, 1.0);
        let path_loss = LogDistancePathLoss {
            reference_snr_db: 15.0,
            reference_distance: 1.0,
            exponent: 2.7,
        };
        let k = link_field_covariance(&p, &links, &correlation, &path_loss).unwrap();
        assert_eq!(k.rows(), links.len());
        assert!(k.is_hermitian(1e-14));
        for i in 0..links.len() {
            // Unit-length links all sit at the reference SNR.
            assert!((k[(i, i)].re - path_loss.mean_snr_linear(1.0)).abs() < 1e-12);
        }
        // Off-diagonals are bounded by the clamp times the power geometry.
        for i in 0..links.len() {
            for j in 0..links.len() {
                if i != j {
                    let bound = 0.99 * (k[(i, i)].re * k[(j, j)].re).sqrt();
                    assert!(k[(i, j)].abs() <= bound + 1e-12);
                }
            }
        }
        let eig = corrfade_linalg::hermitian_eigen(&k).unwrap();
        assert!(
            eig.is_positive_semidefinite(1e-8),
            "spatial covariance must be PSD up to round-off"
        );
    }
}
