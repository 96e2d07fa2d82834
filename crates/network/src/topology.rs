//! Node layouts and the deterministic link set extracted from them.
//!
//! A [`Topology`] is a set of 2-D node positions plus a canonically ordered
//! list of undirected links. Every downstream artefact — covariance rows,
//! correlation groups, stream seeds, shard assignment — is keyed by a link's
//! index in this list, so the ordering contract matters: links are stored as
//! `(a, b)` with `a < b` and sorted lexicographically. The same node layout
//! therefore always produces the same link indexing, on any machine and for
//! any shard of a distributed run.

use corrfade_models::wsn::{self, links_within_radius};

use crate::error::NetworkError;

/// An undirected radio link between two nodes, stored with `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Lower node index.
    pub a: usize,
    /// Higher node index.
    pub b: usize,
}

/// A WSN deployment: node positions and the canonical link list.
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<[f64; 2]>,
    links: Vec<Link>,
}

impl Topology {
    /// Builds a topology from explicit edges. Edges are normalized to
    /// `a < b`, deduplicated and sorted into the canonical order.
    ///
    /// # Errors
    /// [`NetworkError::InvalidEdge`] for self-loops or node indices out of
    /// range.
    pub fn from_edges(
        positions: Vec<[f64; 2]>,
        edges: &[(usize, usize)],
    ) -> Result<Self, NetworkError> {
        let nodes = positions.len();
        let mut links = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            if a == b || a >= nodes || b >= nodes {
                return Err(NetworkError::InvalidEdge {
                    edge: (a, b),
                    nodes,
                });
            }
            links.push(Link {
                a: a.min(b),
                b: a.max(b),
            });
        }
        links.sort_unstable_by_key(|l| (l.a, l.b));
        links.dedup();
        Ok(Self { positions, links })
    }

    /// Builds a topology by connecting every node pair within
    /// `radius` (unit-disk connectivity). Link order is the canonical
    /// lexicographic order of [`links_within_radius`].
    ///
    /// # Errors
    /// [`NetworkError::InvalidParameter`] when `radius` is not a positive
    /// finite number.
    pub fn connectivity(positions: Vec<[f64; 2]>, radius: f64) -> Result<Self, NetworkError> {
        if !radius.is_finite() || radius <= 0.0 {
            return Err(NetworkError::InvalidParameter {
                name: "radius",
                value: radius,
            });
        }
        let links = links_within_radius(&positions, radius)
            .into_iter()
            .map(|(a, b)| Link { a, b })
            .collect();
        Ok(Self { positions, links })
    }

    /// A regular `nx × ny` grid with the given node spacing, connected at
    /// radius `1.25 × spacing` — nearest orthogonal neighbours only (the
    /// `√2 × spacing` diagonals stay disconnected).
    ///
    /// # Errors
    /// [`NetworkError::InvalidParameter`] for an empty grid or a non-positive
    /// spacing.
    pub fn grid(nx: usize, ny: usize, spacing: f64) -> Result<Self, NetworkError> {
        if nx == 0 || ny == 0 {
            return Err(NetworkError::InvalidParameter {
                name: "grid dimensions",
                value: (nx * ny) as f64,
            });
        }
        if !spacing.is_finite() || spacing <= 0.0 {
            return Err(NetworkError::InvalidParameter {
                name: "spacing",
                value: spacing,
            });
        }
        Self::connectivity(wsn::grid_positions(nx, ny, spacing), 1.25 * spacing)
    }

    /// Node positions, in the order links refer to them.
    pub fn positions(&self) -> &[[f64; 2]] {
        &self.positions
    }

    /// The canonical link list: `a < b`, lexicographically sorted.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Euclidean length of link `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn link_length(&self, index: usize) -> f64 {
        let l = self.links[index];
        wsn::distance(self.positions[l.a], self.positions[l.b])
    }

    /// Midpoint of link `index` — the location the spatial correlation model
    /// treats as the link's position.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn link_midpoint(&self, index: usize) -> [f64; 2] {
        let l = self.links[index];
        wsn::midpoint(self.positions[l.a], self.positions[l.b])
    }

    /// Orientation of link `index`, folded to `[0, π)`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn link_orientation(&self, index: usize) -> f64 {
        let l = self.links[index];
        wsn::link_orientation(self.positions[l.a], self.positions[l.b])
    }

    /// The canonical links as `(a, b)` pairs, the form
    /// [`corrfade_models::wsn::link_field_covariance`] consumes.
    pub fn link_pairs(&self) -> Vec<(usize, usize)> {
        self.links.iter().map(|l| (l.a, l.b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_normalizes_sorts_and_dedups() {
        let positions = vec![[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]];
        let topo = Topology::from_edges(positions, &[(2, 0), (1, 0), (0, 1), (1, 2)]).unwrap();
        let pairs: Vec<(usize, usize)> = topo.links().iter().map(|l| (l.a, l.b)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn from_edges_rejects_loops_and_out_of_range_nodes() {
        let positions = vec![[0.0, 0.0], [1.0, 0.0]];
        assert!(matches!(
            Topology::from_edges(positions.clone(), &[(0, 0)]),
            Err(NetworkError::InvalidEdge { edge: (0, 0), .. })
        ));
        assert!(matches!(
            Topology::from_edges(positions, &[(0, 5)]),
            Err(NetworkError::InvalidEdge { edge: (0, 5), .. })
        ));
    }

    #[test]
    fn grid_connects_orthogonal_neighbours_only() {
        // 4×4 grid: 12 horizontal + 12 vertical links, no diagonals.
        let topo = Topology::grid(4, 4, 1.0).unwrap();
        assert_eq!(topo.positions().len(), 16);
        assert_eq!(topo.link_count(), 24);
        for i in 0..topo.link_count() {
            assert!((topo.link_length(i) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn grid_2_by_22_has_exactly_64_links() {
        // The sharding-determinism suite relies on this layout: two columns
        // of 22 nodes → 2·21 = 42 vertical links plus 22 horizontal rungs =
        // 64 links total.
        let topo = Topology::grid(2, 22, 1.0).unwrap();
        assert_eq!(topo.link_count(), 64);
    }

    #[test]
    fn connectivity_rejects_bad_radius() {
        let positions = vec![[0.0, 0.0]];
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Topology::connectivity(positions.clone(), bad),
                Err(NetworkError::InvalidParameter { name: "radius", .. })
            ));
        }
    }

    #[test]
    fn geometry_accessors_agree_with_the_wsn_primitives() {
        let topo = Topology::from_edges(vec![[0.0, 0.0], [2.0, 2.0]], &[(0, 1)]).unwrap();
        assert!((topo.link_length(0) - 8.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(topo.link_midpoint(0), [1.0, 1.0]);
        assert!((topo.link_orientation(0) - core::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }
}
