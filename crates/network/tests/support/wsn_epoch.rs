//! The `wsn-epoch` network, shared by the test files that check its cold
//! start: a 23×23 unit grid (1012 links), distance-only correlation 0.4,
//! threshold 0.1, groups of at most 64 links, 256-sample blocks.

use corrfade_linalg::CMatrix;
use corrfade_models::wsn::LinkCorrelationModel;
use corrfade_network::{NetworkSimConfig, Topology};
use corrfade_scenarios::DopplerSettings;

/// The topology and config of the `wsn-epoch` network.
pub(crate) fn network() -> (Topology, NetworkSimConfig) {
    let config = NetworkSimConfig {
        correlation: LinkCorrelationModel::distance_only(0.4),
        correlation_threshold: 0.1,
        max_group_size: 64,
        doppler: DopplerSettings {
            idft_size: 256,
            normalized_doppler: 0.05,
            sigma_orig_sq: 0.5,
        },
        ..NetworkSimConfig::default()
    };
    (Topology::grid(23, 23, 1.0).unwrap(), config)
}

/// Its group covariances in group order: the matrices `NetworkSim::open`
/// decomposes.
pub(crate) fn group_covariances() -> Vec<CMatrix> {
    let (topology, config) = network();
    config
        .link_groups(&topology)
        .groups()
        .iter()
        .map(|links| config.group_covariance(&topology, links).unwrap())
        .collect()
}
