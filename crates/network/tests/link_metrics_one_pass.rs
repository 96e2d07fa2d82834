//! The one-pass epoch of the `wsn-epoch` network keeps every bit:
//!
//! * each link's [`LinkMetrics`] equal, by `to_bits`, the three separate
//!   outage / LCR / AFD loops over [`NetworkSim::link_envelope`];
//! * the envelope view each fleet advance computes on its executors equals
//!   `kernel::envelope_into` of the block's samples, on the global pool, an
//!   explicit 2-worker pool and the sequential path.

#[path = "support/wsn_epoch.rs"]
mod wsn_epoch;

use corrfade::{Precision, RealtimeConfig};
use corrfade_linalg::kernel;
use corrfade_network::{shard_seed, LinkMetrics, NetworkSim};
use corrfade_parallel::{Runtime, StreamFleet};

const MASTER_SEED: u64 = 0x0E9_0C45;

/// `(outage probability, LCR, AFD)` of one envelope, each from its own loop.
fn three_pass_reference(envelope: &[f64], threshold: f64) -> (f64, f64, f64) {
    let samples = envelope.len() as f64;
    let below = envelope.iter().filter(|&&r| r < threshold).count();
    let crossings = envelope
        .windows(2)
        .filter(|w| w[0] < threshold && w[1] >= threshold)
        .count();
    let mut fades = 0usize;
    let mut in_fade = false;
    for &r in envelope {
        if r < threshold {
            if !in_fade {
                fades += 1;
                in_fade = true;
            }
        } else {
            in_fade = false;
        }
    }
    let afd = if fades == 0 {
        0.0
    } else {
        below as f64 / fades as f64
    };
    (below as f64 / samples, crossings as f64 / samples, afd)
}

fn metric_bits(m: &LinkMetrics) -> [u64; 4] {
    [
        m.mean_snr_db.to_bits(),
        m.outage_probability.to_bits(),
        m.lcr.to_bits(),
        m.afd.to_bits(),
    ]
}

#[test]
fn link_metrics_match_three_separate_loops_bit_for_bit() {
    let (topology, config) = wsn_epoch::network();
    let mean_snr_db: Vec<f64> = (0..topology.link_count())
        .map(|l| config.path_loss.mean_snr_db(topology.link_length(l)))
        .collect();
    let outage_threshold = 10f64.powf(config.outage_snr_db / 20.0);
    let mut sim = NetworkSim::open(topology, &config, MASTER_SEED).unwrap();
    for epoch in 0..2 {
        sim.advance().unwrap();
        for (link, &link_snr_db) in mean_snr_db.iter().enumerate() {
            for power in [1.0f64, 0.5] {
                let got = if power == 1.0 {
                    sim.link_metrics(link).unwrap()
                } else {
                    sim.link_metrics_with_power(link, power).unwrap()
                };
                let threshold = outage_threshold / power.sqrt();
                let envelope = sim.link_envelope(link).unwrap();
                let (outage_probability, lcr, afd) = three_pass_reference(envelope, threshold);
                let want = LinkMetrics {
                    link,
                    mean_snr_db: link_snr_db + 10.0 * power.log10(),
                    outage_probability,
                    lcr,
                    afd,
                };
                assert_eq!(got.link, link);
                assert_eq!(
                    metric_bits(&got),
                    metric_bits(&want),
                    "epoch {epoch}, link {link}, power {power}: {got:?} vs {want:?}"
                );
            }
        }
    }
}

#[test]
fn every_advance_leaves_each_block_with_its_own_envelopes() {
    let (topology, config) = wsn_epoch::network();
    let groups = config.link_groups(&topology);
    let configs = wsn_epoch::group_covariances()
        .into_iter()
        .enumerate()
        .map(|(g, covariance)| RealtimeConfig {
            covariance,
            idft_size: config.doppler.idft_size,
            normalized_doppler: config.doppler.normalized_doppler,
            sigma_orig_sq: config.doppler.sigma_orig_sq,
            seed: shard_seed(MASTER_SEED, groups.leader(g) as u64),
            precision: Precision::F64,
        })
        .collect();
    let mut fleet = StreamFleet::open_configs(configs, MASTER_SEED).unwrap();
    let two_workers = Runtime::new(2);
    let mut expected = Vec::new();
    for mode in ["global pool", "2-worker pool", "sequential"] {
        match mode {
            "global pool" => fleet.advance().unwrap(),
            "2-worker pool" => fleet.advance_on(&two_workers).unwrap(),
            _ => fleet.advance_sequential().unwrap(),
        }
        for i in 0..fleet.len() {
            let block = fleet.block_mut(i);
            expected.clear();
            expected.resize(block.len(), 0.0);
            kernel::envelope_into(block.as_slice(), &mut expected);
            let got = block.envelope_slice();
            assert_eq!(got.len(), expected.len(), "{mode}, stream {i}");
            assert!(
                got.iter()
                    .zip(&expected)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{mode}, stream {i}: envelope view differs from its samples"
            );
        }
    }
}
