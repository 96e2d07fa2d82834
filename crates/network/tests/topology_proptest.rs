//! Property coverage of the topology → covariance path: any random layout
//! must yield a link-field covariance the generator stack accepts.
//!
//! * pairwise correlations are finite and clamped to `[0, max_correlation]`,
//! * the covariance is Hermitian with positive diagonal,
//! * it is positive semidefinite within the eigensolver tolerance,
//! * [`link_field_covariance`] (the `CovarianceBuilder` path) and
//!   [`cached_eigen_coloring`] both succeed, i.e. the matrix is decomposable
//!   and a generator could be opened on it,
//! * [`partition_links`], which buckets link midpoints into cells of the
//!   model's cutoff distance and visits only neighbouring cells, groups the
//!   links exactly as evaluating every pair does — on these layouts, on
//!   wide, clustered and degenerate ones (non-finite coordinates, zero,
//!   subnormal, negative, NaN and above-one thresholds) and on the
//!   `wsn-epoch` grid.

use corrfade::cached_eigen_coloring;
use corrfade_linalg::hermitian_eigen;
use corrfade_models::wsn::{
    angular_separation, link_field_covariance, LinkCorrelationModel, LogDistancePathLoss,
};
use corrfade_network::{partition_links, Topology};
use proptest::prelude::*;

// Only the `wsn-epoch` network is used here, not its covariances.
#[allow(dead_code)]
#[path = "support/wsn_epoch.rs"]
mod wsn_epoch;

/// The partition as computed before the distance cutoff: the model is
/// evaluated for every pair of links, then components are split and
/// ordered by leader.
fn all_pairs_partition(
    topology: &Topology,
    correlation: &LinkCorrelationModel,
    threshold: f64,
    max_group_size: usize,
) -> Vec<Vec<usize>> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let n = topology.link_count();
    let mut parent: Vec<usize> = (0..n).collect();
    for k in 0..n {
        for j in (k + 1)..n {
            let d = corrfade_models::wsn::distance(
                topology.link_midpoint(k),
                topology.link_midpoint(j),
            );
            let sep =
                angular_separation(topology.link_orientation(k), topology.link_orientation(j));
            if correlation.correlation(d, sep) >= threshold {
                let (rk, rj) = (find(&mut parent, k), find(&mut parent, j));
                if rk != rj {
                    parent[rk.max(rj)] = rk.min(rj);
                }
            }
        }
    }
    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut component_of_root: Vec<Option<usize>> = vec![None; n];
    for link in 0..n {
        let root = find(&mut parent, link);
        match component_of_root[root] {
            Some(c) => components[c].push(link),
            None => {
                component_of_root[root] = Some(components.len());
                components.push(vec![link]);
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = components
        .iter()
        .flat_map(|component| {
            component
                .chunks(max_group_size.max(1))
                .map(<[usize]>::to_vec)
        })
        .collect();
    groups.sort_unstable_by_key(|g| g[0]);
    groups
}

#[test]
fn wsn_epoch_partition_matches_the_all_pairs_loop() {
    let (topology, config) = wsn_epoch::network();
    let groups = config.link_groups(&topology);
    assert_eq!(groups.len(), 16);
    assert_eq!(
        groups.groups(),
        all_pairs_partition(
            &topology,
            &config.correlation,
            config.correlation_threshold,
            config.max_group_size,
        )
    );
}

/// Random node layout in a 10×10 field plus model parameters. Node counts up
/// to 16 with a generous radius keep the link count at or below the
/// `16·15/2 = 120` complete-graph bound while regularly exercising dense
/// fields beyond the issue's N = 64 target.
fn layout() -> impl Strategy<Value = (Vec<[f64; 2]>, f64, f64, f64)> {
    (
        proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 2..=16),
        1.0f64..6.0, // connectivity radius
        0.2f64..3.0, // decorrelation distance
        0.2f64..2.0, // angular scale (radians)
    )
        .prop_map(|(points, radius, dc, theta)| {
            let positions: Vec<[f64; 2]> = points.into_iter().map(|(x, y)| [x, y]).collect();
            (positions, radius, dc, theta)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_layouts_always_yield_a_decomposable_covariance(
        input in layout(),
    ) {
        let (positions, radius, dc, theta) = input;
        let topology = Topology::connectivity(positions.clone(), radius).unwrap();
        if topology.link_count() == 0 {
            return; // a layout with no links has nothing to decompose
        }
        let correlation = LinkCorrelationModel::new(dc, theta);
        let path_loss = LogDistancePathLoss {
            reference_snr_db: 15.0,
            reference_distance: 1.0,
            exponent: 3.0,
        };

        // Pairwise correlations are finite and clamped.
        let n = topology.link_count();
        for k in 0..n {
            for j in 0..n {
                let d = corrfade_models::wsn::distance(
                    topology.link_midpoint(k),
                    topology.link_midpoint(j),
                );
                let sep = angular_separation(
                    topology.link_orientation(k),
                    topology.link_orientation(j),
                );
                let rho = correlation.correlation(d, sep);
                prop_assert!(rho.is_finite());
                prop_assert!((-1.0..=1.0).contains(&rho), "rho out of range: {rho}");
                prop_assert!(rho >= 0.0, "exponential-decay model must be non-negative");
            }
        }

        // The builder path accepts the field...
        let k = link_field_covariance(
            &positions,
            &topology.link_pairs(),
            &correlation,
            &path_loss,
        )
        .expect("link_field_covariance must succeed on a valid layout");

        // ...the matrix is Hermitian with positive diagonal...
        prop_assert_eq!(k.rows(), n);
        for i in 0..n {
            prop_assert!(k[(i, i)].re > 0.0);
            prop_assert!(k[(i, i)].im.abs() < 1e-15);
            for j in 0..n {
                let kij = k[(i, j)];
                let kji = k[(j, i)];
                prop_assert!((kij.re - kji.re).abs() < 1e-12);
                prop_assert!((kij.im + kji.im).abs() < 1e-12);
            }
        }

        // ...positive semidefinite within tolerance...
        let eig = hermitian_eigen(&k).expect("eigendecomposition must converge");
        prop_assert!(
            eig.is_positive_semidefinite(1e-8),
            "link-field covariance lost PSD-ness"
        );

        // ...and the cached coloring (what NetworkSim opens generators from)
        // succeeds as well.
        let coloring = cached_eigen_coloring(&k).expect("coloring must succeed");
        prop_assert_eq!(coloring.dimension(), n);
    }

    #[test]
    fn partition_matches_the_all_pairs_loop(
        input in layout(),
        raw_threshold in 0.001f64..1.0,
        pick in 0usize..4,
        max_group_size in 1usize..24,
    ) {
        // A threshold of 1 sits above the 0.99 clamp; 0.99 sits on it.
        let threshold = [raw_threshold, raw_threshold, 0.99, 1.0][pick];
        let (positions, radius, dc, theta) = input;
        let topology = Topology::connectivity(positions, radius).unwrap();
        for correlation in [
            LinkCorrelationModel::new(dc, theta),
            LinkCorrelationModel::distance_only(dc),
        ] {
            prop_assert_eq!(
                partition_links(&topology, &correlation, threshold, max_group_size).groups(),
                all_pairs_partition(&topology, &correlation, threshold, max_group_size)
            );
        }
    }

    #[test]
    fn grid_partition_matches_the_all_pairs_loop_on_wide_and_degenerate_layouts(
        input in wide_layout(),
        raw_threshold in 0.0005f64..1.0,
        pick in 0usize..9,
        dc in 0.01f64..50.0,
        max_group_size in 1usize..40,
    ) {
        let threshold =
            [raw_threshold, raw_threshold, raw_threshold, 1e-300, 5e-324, 0.0, -0.5, 1.5, f64::NAN]
                [pick];
        let (positions, edges) = input;
        let topology = Topology::from_edges(positions, &edges).unwrap();
        for correlation in [
            LinkCorrelationModel::new(dc, 0.7),
            LinkCorrelationModel::distance_only(dc),
        ] {
            prop_assert_eq!(
                partition_links(&topology, &correlation, threshold, max_group_size).groups(),
                all_pairs_partition(&topology, &correlation, threshold, max_group_size)
            );
        }
    }
}

/// Up to 48 nodes in clusters of random spread (1e-3 to 1e3) around an
/// offset of up to ±1e6, joined by up to 160 random edges; one node in
/// eight may sit at a non-finite coordinate.
fn wide_layout() -> impl Strategy<Value = (Vec<[f64; 2]>, Vec<(usize, usize)>)> {
    (
        proptest::collection::vec((0usize..4, -1.0f64..1.0, -1.0f64..1.0, 0usize..24), 2..=48),
        proptest::collection::vec((-3.0f64..3.0, -1e6f64..1e6, -1e6f64..1e6), 4),
        proptest::collection::vec((0usize..48, 0usize..48), 1..=160),
    )
        .prop_map(|(points, clusters, edges)| {
            let positions: Vec<[f64; 2]> = points
                .into_iter()
                .map(|(c, u, v, odd)| {
                    let (log_spread, ox, oy) = clusters[c];
                    let spread = 10f64.powf(log_spread);
                    match odd {
                        0 => [f64::NAN, v],
                        1 => [f64::INFINITY, v],
                        2 => [u, f64::NEG_INFINITY],
                        _ => [ox + spread * u, oy + spread * v],
                    }
                })
                .collect();
            let nodes = positions.len();
            let edges = edges
                .into_iter()
                .map(|(a, b)| (a % nodes, b % nodes))
                .filter(|(a, b)| a != b)
                .collect();
            (positions, edges)
        })
}
