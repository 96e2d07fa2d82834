//! Lockstep-equivalence contract of [`NetworkSim`]: the simulator is a pure
//! orchestrator. Every correlated group must produce exactly the bits a
//! standalone [`RealtimeGenerator`] seeded with `shard_seed(master, leader)`
//! produces, and the result must not depend on pool size or on whether the
//! fleet is advanced sequentially or on a pool.

use corrfade::{
    cached_eigen_coloring, ChannelStream, Coloring, Precision, RealtimeConfig, RealtimeGenerator,
    SampleBlock,
};
use corrfade_models::wsn::{link_field_covariance, LinkCorrelationModel};
use corrfade_network::{shard_seed, NetworkSim, NetworkSimConfig, Topology};
use corrfade_parallel::Runtime;
use corrfade_scenarios::DopplerSettings;

const MASTER_SEED: u64 = 0x5EED_0001;
const EPOCHS: usize = 3;

fn config() -> NetworkSimConfig {
    NetworkSimConfig {
        correlation: LinkCorrelationModel::distance_only(0.8),
        correlation_threshold: 0.1,
        max_group_size: 8,
        doppler: DopplerSettings {
            idft_size: 128,
            normalized_doppler: 0.05,
            sigma_orig_sq: 0.5,
        },
        ..NetworkSimConfig::default()
    }
}

fn envelope_bits(sim: &mut NetworkSim, epochs: usize, runtime: Option<&Runtime>) -> Vec<Vec<u64>> {
    let mut per_epoch = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        match runtime {
            Some(rt) => sim.advance_on(rt).unwrap(),
            None => sim.advance_sequential().unwrap(),
        }
        let mut bits = Vec::with_capacity(sim.link_count() * 128);
        for link in 0..sim.link_count() {
            bits.extend(sim.link_envelope(link).unwrap().iter().map(|r| r.to_bits()));
        }
        per_epoch.push(bits);
    }
    per_epoch
}

#[test]
fn every_group_matches_a_standalone_generator_bit_for_bit() {
    let topology = Topology::grid(3, 3, 1.0).unwrap();
    let cfg = config();
    let probe = NetworkSim::open(topology.clone(), &cfg, MASTER_SEED).unwrap();
    assert!(probe.groups().len() > 1, "want a multi-group decomposition");

    // Reference: one standalone generator per group, seeded by the group
    // leader, driven by hand.
    let pairs = topology.link_pairs();
    for g in 0..probe.groups().len() {
        let group = probe.groups().groups()[g].clone();
        let group_pairs: Vec<(usize, usize)> = group.iter().map(|&l| pairs[l]).collect();
        let covariance = link_field_covariance(
            topology.positions(),
            &group_pairs,
            &cfg.correlation,
            &cfg.path_loss,
        )
        .unwrap();
        let coloring = cached_eigen_coloring(&covariance).unwrap();
        let mut reference = RealtimeGenerator::from_coloring(
            Coloring::clone(&coloring),
            RealtimeConfig {
                covariance,
                idft_size: cfg.doppler.idft_size,
                normalized_doppler: cfg.doppler.normalized_doppler,
                sigma_orig_sq: cfg.doppler.sigma_orig_sq,
                seed: shard_seed(MASTER_SEED, group[0] as u64),
                precision: Precision::F64,
            },
        )
        .unwrap();
        let mut expected = SampleBlock::new(group.len(), cfg.doppler.idft_size);

        let mut sim = NetworkSim::open(topology.clone(), &cfg, MASTER_SEED).unwrap();
        for _ in 0..EPOCHS {
            sim.advance().unwrap();
            reference.next_block_into(&mut expected).unwrap();
            for (offset, &link) in group.iter().enumerate() {
                let got: Vec<u64> = sim
                    .link_envelope(link)
                    .unwrap()
                    .iter()
                    .map(|r| r.to_bits())
                    .collect();
                let want: Vec<u64> = expected
                    .envelope_path(offset)
                    .iter()
                    .map(|r| r.to_bits())
                    .collect();
                assert_eq!(got, want, "group {g}, link {link} diverged");
            }
        }
    }
}

#[test]
fn pool_size_and_scheduling_mode_are_invisible() {
    let topology = Topology::grid(3, 3, 1.0).unwrap();
    let cfg = config();

    let mut sequential = NetworkSim::open(topology.clone(), &cfg, MASTER_SEED).unwrap();
    let expected = envelope_bits(&mut sequential, EPOCHS, None);

    for threads in [1usize, 2, 3] {
        let runtime = Runtime::new(threads);
        let mut sim = NetworkSim::open(topology.clone(), &cfg, MASTER_SEED).unwrap();
        let got = envelope_bits(&mut sim, EPOCHS, Some(&runtime));
        assert_eq!(
            got, expected,
            "pool of {threads} diverged from sequential execution"
        );
    }
}

#[test]
fn master_seed_changes_the_bits() {
    let topology = Topology::grid(3, 3, 1.0).unwrap();
    let cfg = config();
    let mut a = NetworkSim::open(topology.clone(), &cfg, MASTER_SEED).unwrap();
    let mut b = NetworkSim::open(topology, &cfg, MASTER_SEED + 1).unwrap();
    assert_ne!(
        envelope_bits(&mut a, 1, None),
        envelope_bits(&mut b, 1, None)
    );
}
