//! Generated scenario families: names resolved on demand instead of being
//! hand-written into [`crate::registry::REGISTRY`].
//!
//! The `network/` namespace exposes the WSN link fields of the
//! `corrfade-network` layer to every consumer that selects scenarios by name
//! (the `corrfade-serve` wire protocol, load generators, benches):
//!
//! * `network/grid16` — all 24 links of a 4×4 unit grid as one correlated
//!   scenario (the covariance is the spatial link-field covariance of
//!   [`corrfade_models::wsn`]),
//! * `network/grid16/link<K>` — the single link `K` (0 ≤ K < 24) as a
//!   one-envelope scenario with that link's mean-SNR power.
//!
//! The grammar is deliberately bounded: 25 resolvable names in total. Each
//! resolves at most once per process — the built [`Scenario`] (and the
//! strings/entry tables it borrows) is leaked into `'static` storage and
//! cached, which is what lets generated scenarios flow through the same
//! `&'static Scenario` plumbing as the hand-written catalog.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use corrfade_models::wsn::{
    grid_positions, link_field_covariance, links_within_radius, LinkCorrelationModel,
    LogDistancePathLoss,
};

use crate::registry::PAPER_CHANNEL;
use crate::scenario::{CovarianceSpec, DopplerSettings, PowerProfile, Provenance, Scenario};

/// Grid side of the `network/grid16` family (16 nodes, 24 links).
const GRID_SIDE: usize = 4;
/// Link count of the 4×4 unit grid at connectivity radius 1.25.
const GRID16_LINKS: usize = 24;

/// Doppler settings of the generated network scenarios: a shorter block than
/// the paper's 4096 keeps per-link streaming cheap at network scale.
const NETWORK_DOPPLER: DopplerSettings = DopplerSettings {
    idft_size: 1024,
    normalized_doppler: 0.05,
    sigma_orig_sq: 0.5,
};

/// The spatial models pinned by the family definition. Kept in one place so
/// `network/grid16` and its per-link scenarios stay mutually consistent.
fn grid16_models() -> (LinkCorrelationModel, LogDistancePathLoss) {
    (
        LinkCorrelationModel::distance_only(1.0),
        LogDistancePathLoss {
            reference_snr_db: 15.0,
            reference_distance: 1.0,
            exponent: 3.0,
        },
    )
}

/// Row-major `(re, im)` entries of the full 24-link field covariance.
fn grid16_entries() -> Vec<(f64, f64)> {
    let positions = grid_positions(GRID_SIDE, GRID_SIDE, 1.0);
    let links = links_within_radius(&positions, 1.25);
    assert_eq!(links.len(), GRID16_LINKS, "grid16 link count drifted");
    let (correlation, path_loss) = grid16_models();
    let k = link_field_covariance(&positions, &links, &correlation, &path_loss)
        .expect("grid16 covariance must build");
    let n = k.rows();
    let mut entries = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let z = k[(i, j)];
            entries.push((z.re, z.im));
        }
    }
    entries
}

fn build_grid16(name: &'static str) -> Scenario {
    let entries: &'static [(f64, f64)] = Box::leak(grid16_entries().into_boxed_slice());
    Scenario {
        name,
        title: "WSN link field: all 24 links of a 4x4 unit grid",
        provenance: Provenance::Extended("corrfade-network generated family"),
        description: "Spatially correlated link field of a 4x4 sensor grid with unit spacing: \
                      exponential midpoint-distance correlation (Dc = 1) and log-distance path \
                      loss (15 dB at 1 m, exponent 3). Generated, not hand-registered — the \
                      covariance is the corrfade_models::wsn link-field matrix.",
        channel: PAPER_CHANNEL,
        envelopes: GRID16_LINKS,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::Explicit { entries },
        doppler: NETWORK_DOPPLER,
    }
}

fn build_grid16_link(name: &'static str, link: usize) -> Scenario {
    let entries = grid16_entries();
    let diag = entries[link * GRID16_LINKS + link];
    let single: &'static [(f64, f64)] = Box::leak(vec![diag].into_boxed_slice());
    Scenario {
        name,
        title: "WSN link field: one link of the 4x4 unit grid",
        provenance: Provenance::Extended("corrfade-network generated family"),
        description: "A single link of the network/grid16 field as a one-envelope scenario: \
                      its Gaussian power is the link's path-loss mean SNR, so streaming it \
                      reproduces that link's marginal fading statistics.",
        channel: PAPER_CHANNEL,
        envelopes: 1,
        powers: PowerProfile::Intrinsic,
        covariance: CovarianceSpec::Explicit { entries: single },
        doppler: NETWORK_DOPPLER,
    }
}

/// Resolves a generated scenario name, leaking and caching it on first use.
/// Returns `None` for names outside the bounded `network/` grammar.
/// [`crate::lookup`] falls back to this automatically; it is public so
/// tooling can distinguish "generated" from "catalogued" names.
pub fn resolve(name: &str) -> Option<&'static Scenario> {
    if !name.starts_with("network/") {
        return None;
    }
    // Validate against the bounded grammar (rejecting empty, non-numeric,
    // zero-padded and out-of-range link indices) before touching the cache,
    // so invalid names never leak memory.
    let link_index = match name {
        "network/grid16" => None,
        _ => {
            let index = name.strip_prefix("network/grid16/link")?;
            if index.is_empty() || index.len() > 2 || !index.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            if index.len() == 2 && index.starts_with('0') {
                return None;
            }
            let link: usize = index.parse().ok()?;
            if link >= GRID16_LINKS {
                return None;
            }
            Some(link)
        }
    };

    static CACHE: OnceLock<Mutex<BTreeMap<String, &'static Scenario>>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .expect("generated-scenario cache poisoned");
    if let Some(&scenario) = cache.get(name) {
        return Some(scenario);
    }
    let leaked_name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let scenario: &'static Scenario = Box::leak(Box::new(match link_index {
        None => build_grid16(leaked_name),
        Some(link) => build_grid16_link(leaked_name, link),
    }));
    cache.insert(name.to_string(), scenario);
    Some(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid16_resolves_to_a_24_link_scenario() {
        let s = resolve("network/grid16").unwrap();
        assert_eq!(s.envelopes, 24);
        assert_eq!(s.name, "network/grid16");
        assert_eq!(s.doppler.idft_size, 1024);
        // Resolution is cached: same 'static pointer both times.
        let again = resolve("network/grid16").unwrap();
        assert!(core::ptr::eq(s, again));
    }

    #[test]
    fn per_link_scenarios_carry_the_field_diagonal() {
        let field = grid16_entries();
        for link in [0usize, 7, 23] {
            let s = resolve(&format!("network/grid16/link{link}")).unwrap();
            assert_eq!(s.envelopes, 1);
            let CovarianceSpec::Explicit { entries } = s.covariance else {
                panic!("expected explicit covariance");
            };
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0], field[link * GRID16_LINKS + link]);
        }
    }

    #[test]
    fn invalid_network_names_do_not_resolve() {
        for bad in [
            "network/",
            "network/grid16/",
            "network/grid16/link",
            "network/grid16/link24",
            "network/grid16/link007",
            "network/grid16/link03",
            "network/grid16/linkxy",
            "network/grid99",
            "network/grid16extra",
        ] {
            assert!(resolve(bad).is_none(), "`{bad}` should not resolve");
        }
        assert!(resolve("fig4a-spectral").is_none());
    }
}
