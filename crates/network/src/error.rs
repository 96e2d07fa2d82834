//! Typed errors of the network layer.

use corrfade::CorrfadeError;
use corrfade_models::CovarianceBuildError;
use corrfade_parallel::ParallelError;

/// Errors produced while building or driving a network simulation.
#[derive(Debug)]
pub enum NetworkError {
    /// An explicit edge references a node that does not exist or loops on
    /// itself.
    InvalidEdge {
        /// The offending `(a, b)` pair as supplied.
        edge: (usize, usize),
        /// Number of nodes in the topology.
        nodes: usize,
    },
    /// A scalar configuration parameter is out of its valid range.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// The supplied value.
        value: f64,
    },
    /// A link index is out of range for the topology.
    UnknownLink {
        /// The requested link index.
        index: usize,
        /// Number of links in the topology.
        links: usize,
    },
    /// A link exists in the topology but is not simulated by this shard.
    LinkNotOnShard {
        /// The requested link index.
        index: usize,
        /// This shard's id.
        shard_id: u64,
    },
    /// A shard id at or beyond the shard count was requested.
    ShardOutOfRange {
        /// The requested shard id.
        shard_id: u64,
        /// The total shard count.
        shard_count: u64,
    },
    /// Per-link traces were requested before the first
    /// [`crate::NetworkSim::advance`].
    NotAdvanced,
    /// Covariance assembly rejected the link field (non-finite geometry).
    Covariance(CovarianceBuildError),
    /// The generator stack rejected a group covariance.
    Core(CorrfadeError),
    /// The fleet engine failed (a job panicked on a pool executor).
    Parallel(ParallelError),
}

impl core::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetworkError::InvalidEdge { edge, nodes } => write!(
                f,
                "edge ({}, {}) is invalid for a topology of {nodes} node(s)",
                edge.0, edge.1
            ),
            NetworkError::InvalidParameter { name, value } => {
                write!(f, "parameter `{name}` is out of range: {value}")
            }
            NetworkError::UnknownLink { index, links } => {
                write!(f, "link {index} is out of range ({links} link(s))")
            }
            NetworkError::LinkNotOnShard { index, shard_id } => {
                write!(f, "link {index} is not simulated by shard {shard_id}")
            }
            NetworkError::ShardOutOfRange {
                shard_id,
                shard_count,
            } => write!(
                f,
                "shard id {shard_id} is out of range for {shard_count} shard(s)"
            ),
            NetworkError::NotAdvanced => {
                write!(f, "no blocks generated yet: call advance() first")
            }
            NetworkError::Covariance(e) => write!(f, "link-field covariance: {e}"),
            NetworkError::Core(e) => write!(f, "generator: {e}"),
            NetworkError::Parallel(e) => write!(f, "fleet engine: {e}"),
        }
    }
}

impl std::error::Error for NetworkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetworkError::Covariance(e) => Some(e),
            NetworkError::Core(e) => Some(e),
            NetworkError::Parallel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CovarianceBuildError> for NetworkError {
    fn from(e: CovarianceBuildError) -> Self {
        NetworkError::Covariance(e)
    }
}

impl From<CorrfadeError> for NetworkError {
    fn from(e: CorrfadeError) -> Self {
        NetworkError::Core(e)
    }
}

impl From<ParallelError> for NetworkError {
    /// A group the fleet could not build is the generator stack's error
    /// ([`NetworkError::Core`]); everything else is the fleet's.
    fn from(e: ParallelError) -> Self {
        match e {
            ParallelError::Core(e) => NetworkError::Core(e),
            e => NetworkError::Parallel(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = NetworkError::InvalidEdge {
            edge: (3, 3),
            nodes: 4,
        };
        assert!(e.to_string().contains("(3, 3)"));
        let e = NetworkError::ShardOutOfRange {
            shard_id: 5,
            shard_count: 4,
        };
        assert!(e.to_string().contains("shard id 5"));
        assert!(NetworkError::NotAdvanced.to_string().contains("advance"));
    }
}
