//! The network simulator: correlated groups opened on the fleet engine,
//! advanced in lockstep, with per-link SNR/outage traces.
//!
//! # Determinism contract
//!
//! Every correlated group draws its samples from a generator seeded by
//! [`shard_seed`]`(master_seed, leader)`, where the leader is the smallest
//! global link index in the group. The partition into groups is a pure
//! function of the topology and the correlation model (see
//! [`crate::partition_links`]), so:
//!
//! * the same `(topology, config, master_seed)` triple produces bit-identical
//!   per-link envelopes on any pool size, any kernel backend, and whether the
//!   fleet is advanced sequentially or on a pool;
//! * a run split across shards (`shard_id`/`shard_count`) produces, for the
//!   links it owns, exactly the bits the monolithic run produces for those
//!   links — shard assignment moves whole groups between processes but never
//!   changes their seeds.
//!
//! That second property is what makes one-fleet-per-process scale-out
//! (MPI-style, one [`NetworkSim`] per rank) a pure partitioning exercise.

use corrfade::{Precision, RealtimeConfig};
use corrfade_linalg::CMatrix;
use corrfade_models::wsn::{link_field_covariance, LinkCorrelationModel, LogDistancePathLoss};
use corrfade_parallel::{Runtime, StreamFleet};
use corrfade_scenarios::DopplerSettings;
use corrfade_stats::fade_counts;

use crate::error::NetworkError;
use crate::groups::{partition_links, CorrelationGroups};
use crate::topology::Topology;

/// Derives the RNG seed of one shard-able unit (a correlated group, keyed by
/// its leader link index) from the master seed.
///
/// Uses a SplitMix64-style finalizer like
/// [`corrfade_parallel::chunk_seed`] but with a different odd multiplier, so
/// the network layer's seed domain never collides with the chunk/stream seed
/// domains even for equal master seeds and indices.
#[must_use]
pub fn shard_seed(master_seed: u64, shard_id: u64) -> u64 {
    let mut z = master_seed.wrapping_add(0xA076_1D64_78BD_642Fu64.wrapping_mul(shard_id + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration of a [`NetworkSim`]: the physical models plus the numeric
/// knobs of the group decomposition and the outage criterion.
#[derive(Debug, Clone)]
pub struct NetworkSimConfig {
    /// Spatial correlation model mapping link geometry to correlation.
    pub correlation: LinkCorrelationModel,
    /// Log-distance path loss mapping link length to mean SNR.
    pub path_loss: LogDistancePathLoss,
    /// Correlations below this value are treated as zero when partitioning
    /// links into groups. Must lie in `(0, 1]`.
    pub correlation_threshold: f64,
    /// Upper bound on the size of one correlated group (one
    /// eigendecomposition / one generator). Larger connected components are
    /// split deterministically; correlations across the split are dropped.
    pub max_group_size: usize,
    /// Doppler/IDFT settings shared by every link generator.
    pub doppler: DopplerSettings,
    /// Outage threshold: a link is in outage while its instantaneous SNR
    /// `r²` is below `10^(outage_snr_db/10)`.
    pub outage_snr_db: f64,
}

impl Default for NetworkSimConfig {
    fn default() -> Self {
        Self {
            correlation: LinkCorrelationModel::distance_only(1.0),
            path_loss: LogDistancePathLoss {
                reference_snr_db: 20.0,
                reference_distance: 1.0,
                exponent: 3.0,
            },
            correlation_threshold: 0.05,
            max_group_size: 64,
            doppler: DopplerSettings::PAPER,
            outage_snr_db: 5.0,
        }
    }
}

impl NetworkSimConfig {
    /// The correlation groups of `topology`'s links under this config: one
    /// generator per group in [`NetworkSim::open_shard`].
    #[must_use]
    pub fn link_groups(&self, topology: &Topology) -> CorrelationGroups {
        partition_links(
            topology,
            &self.correlation,
            self.correlation_threshold,
            self.max_group_size,
        )
    }

    /// The link-field covariance of one group of `topology`'s links (global
    /// link indices, as in [`CorrelationGroups::groups`]): the matrix whose
    /// decomposition colors the group's generator in
    /// [`NetworkSim::open_shard`].
    ///
    /// # Errors
    /// [`NetworkError::Covariance`] when the matrix cannot be assembled.
    pub fn group_covariance(
        &self,
        topology: &Topology,
        links: &[usize],
    ) -> Result<CMatrix, NetworkError> {
        let pairs: Vec<(usize, usize)> = links
            .iter()
            .map(|&l| {
                let link = topology.links()[l];
                (link.a, link.b)
            })
            .collect();
        Ok(link_field_covariance(
            topology.positions(),
            &pairs,
            &self.correlation,
            &self.path_loss,
        )?)
    }
}

/// Second-order per-link statistics of the most recent epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkMetrics {
    /// Global link index.
    pub link: usize,
    /// Mean SNR of the link from the path-loss model, in dB.
    pub mean_snr_db: f64,
    /// Fraction of the epoch's samples spent below the outage threshold.
    pub outage_probability: f64,
    /// Empirical level-crossing rate at the outage threshold, per sample.
    pub lcr: f64,
    /// Empirical average fade duration at the outage threshold, in samples.
    pub afd: f64,
}

/// A (possibly sharded) WSN-scale simulation of correlated fading links.
pub struct NetworkSim {
    topology: Topology,
    groups: CorrelationGroups,
    /// For each global link: `(fleet stream index, offset in group)` when the
    /// link is simulated by this shard, `None` otherwise.
    placement: Vec<Option<(usize, usize)>>,
    /// Global link indices owned by this shard, ascending.
    local_links: Vec<usize>,
    fleet: StreamFleet,
    outage_threshold: f64,
    mean_snr_db: Vec<f64>,
    shard_id: u64,
    shard_count: u64,
    epoch: u64,
}

impl NetworkSim {
    /// Opens a monolithic simulation of every link in `topology` —
    /// equivalent to [`NetworkSim::open_shard`] with one shard.
    ///
    /// # Errors
    /// See [`NetworkSim::open_shard`].
    pub fn open(
        topology: Topology,
        config: &NetworkSimConfig,
        master_seed: u64,
    ) -> Result<Self, NetworkError> {
        Self::open_shard(topology, config, master_seed, 0, 1)
    }

    /// Opens shard `shard_id` of `shard_count`: correlated group `g` (in
    /// leader order) is simulated here iff `g % shard_count == shard_id`.
    /// Group seeds never depend on the shard layout, so the union of all
    /// shards reproduces the monolithic run bit for bit.
    ///
    /// The groups' generators are built by [`StreamFleet::open_configs`] on
    /// [`Runtime::global`], so this must not be called from inside a job on
    /// that pool.
    ///
    /// # Errors
    /// [`NetworkError::ShardOutOfRange`] / [`NetworkError::InvalidParameter`]
    /// for inconsistent shard or config values,
    /// [`NetworkError::Covariance`] / [`NetworkError::Core`] when a group
    /// covariance cannot be assembled or colored (the first failing group's
    /// error, in group order), [`NetworkError::Parallel`] when a pool job
    /// panicked.
    pub fn open_shard(
        topology: Topology,
        config: &NetworkSimConfig,
        master_seed: u64,
        shard_id: u64,
        shard_count: u64,
    ) -> Result<Self, NetworkError> {
        if shard_count == 0 {
            return Err(NetworkError::InvalidParameter {
                name: "shard_count",
                value: 0.0,
            });
        }
        if shard_id >= shard_count {
            return Err(NetworkError::ShardOutOfRange {
                shard_id,
                shard_count,
            });
        }
        if !(config.correlation_threshold > 0.0 && config.correlation_threshold <= 1.0) {
            return Err(NetworkError::InvalidParameter {
                name: "correlation_threshold",
                value: config.correlation_threshold,
            });
        }
        if config.max_group_size == 0 {
            return Err(NetworkError::InvalidParameter {
                name: "max_group_size",
                value: 0.0,
            });
        }
        if !config.outage_snr_db.is_finite() {
            return Err(NetworkError::InvalidParameter {
                name: "outage_snr_db",
                value: config.outage_snr_db,
            });
        }

        let groups = config.link_groups(&topology);

        // This shard's groups and their generator configurations, in group
        // order, up to the first covariance that cannot be assembled.
        let mut covariance_error = None;
        let (local, configs): (Vec<usize>, Vec<RealtimeConfig>) = (0..groups.len())
            .filter(|&g| (g as u64) % shard_count == shard_id)
            .map_while(
                |g| match config.group_covariance(&topology, &groups.groups()[g]) {
                    Ok(covariance) => Some((
                        g,
                        RealtimeConfig {
                            covariance,
                            idft_size: config.doppler.idft_size,
                            normalized_doppler: config.doppler.normalized_doppler,
                            sigma_orig_sq: config.doppler.sigma_orig_sq,
                            seed: shard_seed(master_seed, groups.leader(g) as u64),
                            precision: Precision::F64,
                        },
                    )),
                    Err(error) => {
                        covariance_error = Some(error);
                        None
                    }
                },
            )
            .unzip();
        // A group that cannot be colored before the first bad covariance is
        // the first failing group.
        let fleet = StreamFleet::open_configs(configs, master_seed)?;
        if let Some(error) = covariance_error {
            return Err(error);
        }

        let mut placement: Vec<Option<(usize, usize)>> = vec![None; topology.link_count()];
        let mut local_links = Vec::new();
        for (stream_index, g) in local.into_iter().enumerate() {
            for (offset, &link) in groups.groups()[g].iter().enumerate() {
                placement[link] = Some((stream_index, offset));
                local_links.push(link);
            }
        }
        local_links.sort_unstable();

        let mean_snr_db = (0..topology.link_count())
            .map(|l| config.path_loss.mean_snr_db(topology.link_length(l)))
            .collect();
        Ok(Self {
            topology,
            groups,
            placement,
            local_links,
            fleet,
            outage_threshold: 10f64.powf(config.outage_snr_db / 20.0),
            mean_snr_db,
            shard_id,
            shard_count,
            epoch: 0,
        })
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The correlated-group partition (identical on every shard).
    pub fn groups(&self) -> &CorrelationGroups {
        &self.groups
    }

    /// This shard's id.
    pub fn shard_id(&self) -> u64 {
        self.shard_id
    }

    /// Total number of shards in the run.
    pub fn shard_count(&self) -> u64 {
        self.shard_count
    }

    /// Number of links in the whole topology (across all shards).
    pub fn link_count(&self) -> usize {
        self.topology.link_count()
    }

    /// Global indices of the links simulated by this shard, ascending.
    pub fn local_links(&self) -> &[usize] {
        &self.local_links
    }

    /// Number of epochs generated so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Complex samples produced per [`NetworkSim::advance`] on this shard.
    pub fn samples_per_advance(&self) -> usize {
        self.fleet.samples_per_advance()
    }

    /// Advances every local group by one block on the global runtime.
    ///
    /// # Errors
    /// [`NetworkError::Parallel`] when a pool job panicked.
    pub fn advance(&mut self) -> Result<(), NetworkError> {
        self.advance_on(Runtime::global())
    }

    /// Advances every local group by one block on `runtime`. Bit-identical
    /// to [`NetworkSim::advance_sequential`] for any pool size.
    ///
    /// # Errors
    /// [`NetworkError::Parallel`] when a pool job panicked.
    pub fn advance_on(&mut self, runtime: &Runtime) -> Result<(), NetworkError> {
        self.fleet.advance_on(runtime)?;
        self.epoch += 1;
        Ok(())
    }

    /// Advances every local group by one block on the calling thread only.
    ///
    /// # Errors
    /// [`NetworkError::Parallel`] is structurally possible but not produced
    /// by the sequential path.
    pub fn advance_sequential(&mut self) -> Result<(), NetworkError> {
        self.fleet.advance_sequential()?;
        self.epoch += 1;
        Ok(())
    }

    fn slot(&self, index: usize) -> Result<(usize, usize), NetworkError> {
        match self.placement.get(index) {
            None => Err(NetworkError::UnknownLink {
                index,
                links: self.topology.link_count(),
            }),
            Some(None) => Err(NetworkError::LinkNotOnShard {
                index,
                shard_id: self.shard_id,
            }),
            Some(&Some(slot)) => {
                if self.epoch == 0 {
                    Err(NetworkError::NotAdvanced)
                } else {
                    Ok(slot)
                }
            }
        }
    }

    /// The envelope trace of global link `index` for the current epoch
    /// (zero-copy view into the fleet's block buffers).
    ///
    /// # Errors
    /// [`NetworkError::UnknownLink`] / [`NetworkError::LinkNotOnShard`] /
    /// [`NetworkError::NotAdvanced`].
    pub fn link_envelope(&mut self, index: usize) -> Result<&[f64], NetworkError> {
        let (stream, offset) = self.slot(index)?;
        Ok(self.fleet.block_mut(stream).envelope_path(offset))
    }

    /// Outage/LCR/AFD statistics of global link `index` over the current
    /// epoch, at unit transmit power.
    ///
    /// # Errors
    /// [`NetworkError::UnknownLink`] / [`NetworkError::LinkNotOnShard`] /
    /// [`NetworkError::NotAdvanced`].
    pub fn link_metrics(&mut self, index: usize) -> Result<LinkMetrics, NetworkError> {
        self.link_metrics_with_power(index, 1.0)
    }

    /// Like [`NetworkSim::link_metrics`] but with a transmit power gain
    /// applied to the link: scaling power by `power_gain` scales the
    /// envelope by `√power_gain`, which is evaluated (allocation-free) by
    /// dividing the outage threshold instead.
    ///
    /// # Errors
    /// [`NetworkError::InvalidParameter`] for a non-positive or non-finite
    /// `power_gain`, otherwise as [`NetworkSim::link_metrics`].
    pub fn link_metrics_with_power(
        &mut self,
        index: usize,
        power_gain: f64,
    ) -> Result<LinkMetrics, NetworkError> {
        if !power_gain.is_finite() || power_gain <= 0.0 {
            return Err(NetworkError::InvalidParameter {
                name: "power_gain",
                value: power_gain,
            });
        }
        let (stream, offset) = self.slot(index)?;
        let threshold = self.outage_threshold / power_gain.sqrt();
        let envelope = self.fleet.block_mut(stream).envelope_path(offset);
        let samples = envelope.len() as f64;
        let counts = fade_counts(envelope, threshold);
        Ok(LinkMetrics {
            link: index,
            mean_snr_db: self.mean_snr_db[index] + 10.0 * power_gain.log10(),
            outage_probability: counts.below as f64 / samples,
            lcr: counts.up_crossings as f64 / samples,
            afd: counts.mean_fade_len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> NetworkSimConfig {
        NetworkSimConfig {
            doppler: DopplerSettings {
                idft_size: 128,
                normalized_doppler: 0.05,
                sigma_orig_sq: 0.5,
            },
            ..NetworkSimConfig::default()
        }
    }

    #[test]
    fn shard_seed_differs_from_the_chunk_seed_domain() {
        for master in [0u64, 1, 0xDEAD_BEEF] {
            for id in 0..8u64 {
                assert_ne!(
                    shard_seed(master, id),
                    corrfade_parallel::chunk_seed(master, id as usize),
                    "domain collision at master={master}, id={id}"
                );
            }
        }
        // And it separates ids for a fixed master.
        let seeds: std::collections::BTreeSet<u64> = (0..64).map(|i| shard_seed(42, i)).collect();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn open_rejects_inconsistent_shard_and_config_values() {
        let topo = Topology::grid(2, 2, 1.0).unwrap();
        let cfg = small_config();
        assert!(matches!(
            NetworkSim::open_shard(topo.clone(), &cfg, 1, 0, 0),
            Err(NetworkError::InvalidParameter {
                name: "shard_count",
                ..
            })
        ));
        assert!(matches!(
            NetworkSim::open_shard(topo.clone(), &cfg, 1, 3, 2),
            Err(NetworkError::ShardOutOfRange {
                shard_id: 3,
                shard_count: 2
            })
        ));
        let bad = NetworkSimConfig {
            correlation_threshold: 0.0,
            ..small_config()
        };
        assert!(matches!(
            NetworkSim::open(topo, &bad, 1),
            Err(NetworkError::InvalidParameter {
                name: "correlation_threshold",
                ..
            })
        ));
    }

    #[test]
    fn open_returns_group_failures_typed() {
        let topo = Topology::grid(3, 3, 1.0).unwrap();
        let mut non_finite = small_config();
        non_finite.path_loss.reference_snr_db = f64::NAN;
        assert!(matches!(
            NetworkSim::open(topo.clone(), &non_finite, 1),
            Err(NetworkError::Covariance(_))
        ));
        let mut bad_doppler = small_config();
        bad_doppler.doppler.normalized_doppler = 2.0;
        assert!(matches!(
            NetworkSim::open(topo, &bad_doppler, 1),
            Err(NetworkError::Core(_))
        ));
    }

    #[test]
    fn traces_require_an_advance_and_a_local_link() {
        let topo = Topology::grid(2, 2, 1.0).unwrap();
        let mut sim = NetworkSim::open(topo, &small_config(), 7).unwrap();
        assert!(matches!(
            sim.link_envelope(0),
            Err(NetworkError::NotAdvanced)
        ));
        assert!(matches!(
            sim.link_envelope(99),
            Err(NetworkError::UnknownLink { index: 99, .. })
        ));
        sim.advance_sequential().unwrap();
        assert_eq!(sim.epoch(), 1);
        let trace = sim.link_envelope(0).unwrap();
        assert_eq!(trace.len(), 128);
        assert!(trace.iter().all(|r| r.is_finite() && *r >= 0.0));
    }

    #[test]
    fn metrics_report_the_documented_quantities() {
        let topo = Topology::grid(3, 3, 1.0).unwrap();
        let mut sim = NetworkSim::open(topo, &small_config(), 11).unwrap();
        sim.advance_sequential().unwrap();
        let m = sim.link_metrics(2).unwrap();
        assert_eq!(m.link, 2);
        assert!((0.0..=1.0).contains(&m.outage_probability));
        assert!(m.lcr >= 0.0 && m.afd >= 0.0);
        // Unit-length links at reference distance sit at the reference SNR.
        assert!((m.mean_snr_db - 20.0).abs() < 1e-12);
        // More transmit power cannot increase outage, and raises mean SNR by
        // the power gain in dB.
        let boosted = sim.link_metrics_with_power(2, 10.0).unwrap();
        assert!(boosted.outage_probability <= m.outage_probability);
        assert!((boosted.mean_snr_db - (m.mean_snr_db + 10.0)).abs() < 1e-12);
        assert!(matches!(
            sim.link_metrics_with_power(2, 0.0),
            Err(NetworkError::InvalidParameter {
                name: "power_gain",
                ..
            })
        ));
    }

    #[test]
    fn shards_partition_the_link_set_without_overlap() {
        let topo = Topology::grid(2, 22, 1.0).unwrap();
        let cfg = NetworkSimConfig {
            correlation: LinkCorrelationModel::distance_only(0.8),
            correlation_threshold: 0.2,
            max_group_size: 16,
            ..small_config()
        };
        let shard_count = 4u64;
        let mut owned = vec![0usize; 64];
        for shard_id in 0..shard_count {
            let sim = NetworkSim::open_shard(topo.clone(), &cfg, 5, shard_id, shard_count).unwrap();
            assert_eq!(sim.shard_id(), shard_id);
            for &l in sim.local_links() {
                assert!(sim.placement[l].is_some());
                owned[l] += 1;
            }
        }
        assert!(
            owned.iter().all(|&c| c == 1),
            "links not partitioned: {owned:?}"
        );
    }
}
