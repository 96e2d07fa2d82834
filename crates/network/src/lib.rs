//! # corrfade-network
//!
//! WSN-scale correlated-link simulation on top of the `corrfade` fleet
//! engine. The paper generates one correlated Rayleigh vector process from an
//! arbitrary covariance matrix; this crate scales that primitive to a whole
//! wireless sensor network:
//!
//! 1. [`Topology`] — node positions plus a canonically ordered link list
//!    (explicit edges, unit-disk connectivity, or a regular grid),
//! 2. the spatial correlation and path-loss models of
//!    [`corrfade_models::wsn`] map link geometry to a link-field covariance,
//! 3. [`partition_links`] decomposes the field into correlated groups
//!    (dropping sub-threshold correlations, splitting oversized components),
//! 4. [`NetworkSim`] opens one correlated generator per group on a
//!    [`corrfade_parallel::StreamFleet`] and advances all links in lockstep,
//!    serving zero-copy per-link envelope traces and outage/LCR/AFD metrics.
//!
//! Determinism is the headline property: group seeds derive from
//! [`shard_seed`]`(master_seed, leader_link_index)`, so results are
//! bit-identical across pool sizes, kernel backends, and shard layouts — a
//! run split over `n` processes reproduces the monolithic run exactly.
//!
//! ```
//! use corrfade_network::{NetworkSim, NetworkSimConfig, Topology};
//!
//! let topology = Topology::grid(4, 4, 1.0).unwrap();
//! let mut sim = NetworkSim::open(topology, &NetworkSimConfig::default(), 42).unwrap();
//! sim.advance().unwrap();
//! let metrics = sim.link_metrics(0).unwrap();
//! assert!((0.0..=1.0).contains(&metrics.outage_probability));
//! ```

#![warn(missing_docs)]

mod error;
mod groups;
mod sim;
mod topology;

pub use error::NetworkError;
pub use groups::{partition_links, CorrelationGroups};
pub use sim::{shard_seed, LinkMetrics, NetworkSim, NetworkSimConfig};
pub use topology::{Link, Topology};
