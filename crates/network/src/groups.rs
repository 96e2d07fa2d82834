//! Partitioning a link field into independently generated correlation groups.
//!
//! The full link-field covariance of a large deployment is sparse in
//! practice: spatial correlation decays exponentially with midpoint
//! separation, so most off-diagonal entries are negligible. Rather than
//! eigendecompose one giant matrix, the simulator drops correlations below a
//! threshold, takes connected components of the remaining "significant
//! correlation" graph, and generates each component with its own correlated
//! generator. Components larger than `max_group_size` are split into
//! consecutive chunks in link order — a documented approximation that caps
//! the cost of any single eigendecomposition while keeping the partition a
//! pure function of the topology (never of thread or shard count).
//!
//! Each group is identified by its **leader** — the smallest global link
//! index it contains. The leader keys the group's RNG seed (see
//! [`crate::shard_seed`]), which is what makes a sharded run bit-identical
//! to a monolithic one: a group's seed depends only on which links correlate,
//! not on which process simulates them.

use std::collections::HashMap;

use corrfade_models::wsn::LinkCorrelationModel;

use crate::topology::Topology;

/// The correlated groups of a link field, each a sorted list of global link
/// indices. Groups are ordered by their leader (first element), so the
/// partition itself is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelationGroups {
    groups: Vec<Vec<usize>>,
}

impl CorrelationGroups {
    /// The groups, each sorted ascending, ordered by leader link index.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the partition is empty (a topology with no links).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The leader (smallest global link index) of group `g` — the seed key
    /// of that group's generator.
    ///
    /// # Panics
    /// Panics if `g` is out of range.
    pub fn leader(&self, g: usize) -> usize {
        self.groups[g][0]
    }
}

/// Partitions the links of `topology` into correlated groups: links whose
/// pairwise spatial correlation under `correlation` is at least `threshold`
/// end up in the same group (transitively), groups larger than
/// `max_group_size` are split into consecutive chunks in ascending link
/// order.
///
/// The result depends only on the topology and the model — not on shard or
/// thread counts — which is the invariant the sharding layer builds on.
pub fn partition_links(
    topology: &Topology,
    correlation: &LinkCorrelationModel,
    threshold: f64,
    max_group_size: usize,
) -> CorrelationGroups {
    let n = topology.link_count();
    let max_group_size = max_group_size.max(1);
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    let geometry: Vec<([f64; 2], f64)> = (0..n)
        .map(|i| (topology.link_midpoint(i), topology.link_orientation(i)))
        .collect();
    if n >= 2 {
        correlation.assert_valid();
    }
    // Past this midpoint distance `exp(−d/D_c)` alone is below `threshold`
    // by a relative margin of ~1e-9, far wider than the rounding of `ln`,
    // `exp` and the divisions; the angular factor (≤ 1) and the clamp only
    // lower ρ, so such a pair cannot merge and skips the evaluation. Pairs
    // at the boundary and NaN distances take the exact test; so does every
    // pair under a subnormal threshold, where `exp` rounds too coarsely.
    let cutoff = if threshold.is_normal() {
        correlation.decorrelation_distance * (1e-9 - threshold.ln())
    } else {
        f64::INFINITY
    };
    let mut merge_if_correlated = |k: usize, j: usize| {
        let d = corrfade_models::wsn::distance(geometry[k].0, geometry[j].0);
        if d > cutoff {
            return;
        }
        let sep = corrfade_models::wsn::angular_separation(geometry[k].1, geometry[j].1);
        if correlation.correlation_unchecked(d, sep) >= threshold {
            let (rk, rj) = (find(&mut parent, k), find(&mut parent, j));
            if rk != rj {
                // Always hang the larger root index under the smaller so
                // roots coincide with future leaders, whatever order the
                // pairs are visited in.
                let (lo, hi) = (rk.min(rj), rk.max(rj));
                parent[hi] = lo;
            }
        }
    };
    if cutoff.is_finite() && cutoff > 0.0 {
        // Bucket the midpoints into square cells a little wider than the
        // cutoff: a pair within it lies in the same or a neighbouring cell,
        // so only those are visited. The cells are at least 1e-8 of the
        // field's extent wide, so the rounding of a cell coordinate stays
        // far below the 1e-6 widening. A non-finite midpoint is at distance
        // ∞ or NaN from every link and merges with none.
        let finite: Vec<usize> = (0..n)
            .filter(|&i| geometry[i].0.iter().all(|c| c.is_finite()))
            .collect();
        let (mut lo, mut hi) = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
        for &i in &finite {
            for a in 0..2 {
                lo[a] = lo[a].min(geometry[i].0[a]);
                hi[a] = hi[a].max(geometry[i].0[a]);
            }
        }
        let side = (cutoff * (1.0 + 1e-6)).max((hi[0] - lo[0]).max(hi[1] - lo[1]) * 1e-8);
        let cell_of = |i: usize| -> [i64; 2] {
            let p = geometry[i].0;
            [
                ((p[0] - lo[0]) / side).floor() as i64,
                ((p[1] - lo[1]) / side).floor() as i64,
            ]
        };
        let mut cells: HashMap<[i64; 2], Vec<usize>> = HashMap::new();
        for &i in &finite {
            cells.entry(cell_of(i)).or_default().push(i);
        }
        for &k in &finite {
            let [cx, cy] = cell_of(k);
            for dx in -1..=1 {
                for dy in -1..=1 {
                    let Some(members) = cells.get(&[cx.saturating_add(dx), cy.saturating_add(dy)])
                    else {
                        continue;
                    };
                    for &j in members.iter().filter(|&&j| j > k) {
                        merge_if_correlated(k, j);
                    }
                }
            }
        }
    } else {
        for k in 0..n {
            for j in (k + 1)..n {
                merge_if_correlated(k, j);
            }
        }
    }

    // Collect components keyed by root; roots are the minimum member, so
    // iterating links in ascending order yields groups sorted by leader.
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

    // Split oversized components into consecutive chunks (ascending order),
    // then restore the global leader ordering across all resulting groups.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for component in components {
        for chunk in component.chunks(max_group_size) {
            groups.push(chunk.to_vec());
        }
    }
    groups.sort_unstable_by_key(|g| g[0]);
    CorrelationGroups { groups }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn far_apart_pair() -> Topology {
        // Two links 100 units apart: uncorrelated under any short-range model.
        Topology::from_edges(
            vec![[0.0, 0.0], [1.0, 0.0], [100.0, 0.0], [101.0, 0.0]],
            &[(0, 1), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn distant_links_land_in_separate_groups() {
        let topo = far_apart_pair();
        let model = LinkCorrelationModel::distance_only(1.0);
        let parts = partition_links(&topo, &model, 0.05, 64);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts.groups(), &[vec![0], vec![1]]);
        assert_eq!(parts.leader(0), 0);
        assert_eq!(parts.leader(1), 1);
    }

    #[test]
    fn nearby_links_merge_transitively() {
        // Chain of three parallel links, each close to the next; the ends are
        // farther apart but must still merge through the middle.
        let topo = Topology::from_edges(
            vec![
                [0.0, 0.0],
                [1.0, 0.0],
                [0.0, 0.6],
                [1.0, 0.6],
                [0.0, 1.2],
                [1.0, 1.2],
            ],
            &[(0, 1), (2, 3), (4, 5)],
        )
        .unwrap();
        let model = LinkCorrelationModel::distance_only(0.5);
        // exp(-0.6/0.5) ≈ 0.30 between neighbours, exp(-1.2/0.5) ≈ 0.09 for
        // the ends — a threshold between the two still yields one component.
        let parts = partition_links(&topo, &model, 0.2, 64);
        assert_eq!(parts.groups(), &[vec![0, 1, 2]]);
    }

    #[test]
    fn oversized_components_split_into_ordered_chunks() {
        let topo = Topology::grid(2, 22, 1.0).unwrap();
        let model = LinkCorrelationModel::distance_only(0.8);
        let parts = partition_links(&topo, &model, 0.2, 16);
        assert_eq!(parts.len(), 4);
        for (g, group) in parts.groups().iter().enumerate() {
            assert_eq!(group.len(), 16);
            assert!(group.windows(2).all(|w| w[0] < w[1]), "group {g} unsorted");
        }
        // Every link appears exactly once across the partition.
        let mut all: Vec<usize> = parts.groups().iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn partition_is_independent_of_max_group_size_when_small() {
        let topo = far_apart_pair();
        let model = LinkCorrelationModel::distance_only(1.0);
        let a = partition_links(&topo, &model, 0.05, 1);
        let b = partition_links(&topo, &model, 0.05, 1024);
        assert_eq!(a, b);
    }

    #[test]
    fn a_pair_exactly_at_the_threshold_still_merges() {
        // Threshold = the pair's correlation, bit for bit: the distance
        // cutoff must leave this pair to the exact `>=` test. At this
        // separation `D_c·(−ln ρ)` rounds below `d`, so a cutoff without
        // its margin would skip the pair.
        let d = 0.598_423_484_389_417_3;
        let topo = Topology::from_edges(
            vec![[0.0, 0.0], [1.0, 0.0], [0.0, d], [1.0, d]],
            &[(0, 1), (2, 3)],
        )
        .unwrap();
        let model = LinkCorrelationModel::distance_only(1.0);
        assert_eq!(
            corrfade_models::wsn::distance(topo.link_midpoint(0), topo.link_midpoint(1)),
            d
        );
        let rho = model.correlation(d, 0.0);
        assert_eq!(partition_links(&topo, &model, rho, 64).len(), 1);
        assert_eq!(partition_links(&topo, &model, rho.next_up(), 64).len(), 2);
    }

    #[test]
    fn model_parameters_are_checked_once_there_is_a_pair() {
        let bad = LinkCorrelationModel::distance_only(-1.0);
        let one_link = Topology::from_edges(vec![[0.0, 0.0], [1.0, 0.0]], &[(0, 1)]).unwrap();
        assert_eq!(partition_links(&one_link, &bad, 0.05, 64).len(), 1);
        let panicked =
            std::panic::catch_unwind(|| partition_links(&far_apart_pair(), &bad, 0.05, 64));
        assert!(panicked.is_err(), "an invalid model must still panic");
    }
}
