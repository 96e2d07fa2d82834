//! Fleet-equivalence regression tests: every stream of a [`StreamFleet`]
//! must be **bit-identical** to running that scenario alone with the same
//! per-stream seed — regardless of how many streams share the fleet, which
//! pool executes it (global, explicit, or none at all), how many workers
//! that pool has, and which kernel backend is active (the CI thread-matrix
//! leg runs this file under `CORRFADE_KERNEL=scalar|vector` ×
//! `CORRFADE_POOL_THREADS=2|max`).
//!
//! Also pins the decomposition-cache sharing the fleet is built on: streams
//! over the same covariance matrix must hit the cache, and the cached path
//! must not change any generated value.

use corrfade::{ChannelStream, SampleBlock};
use corrfade_parallel::{stream_seed, Runtime, StreamFleet};
use corrfade_scenarios::lookup;

/// Concatenates `advances` blocks of fleet stream `i` generated standalone:
/// the reference every fleet result is compared against.
fn standalone_blocks(name: &str, master_seed: u64, index: usize, advances: usize) -> Vec<Vec<u8>> {
    let mut gen = lookup(name)
        .unwrap()
        .build_realtime(stream_seed(master_seed, index))
        .unwrap();
    let mut block = SampleBlock::empty();
    (0..advances)
        .map(|_| {
            gen.next_block_into(&mut block).unwrap();
            block
                .as_slice()
                .iter()
                .flat_map(|z| {
                    z.re.to_bits()
                        .to_le_bytes()
                        .into_iter()
                        .chain(z.im.to_bits().to_le_bytes())
                })
                .collect()
        })
        .collect()
}

fn fleet_blocks(fleet: &mut StreamFleet, i: usize) -> Vec<u8> {
    fleet
        .block(i)
        .as_slice()
        .iter()
        .flat_map(|z| {
            z.re.to_bits()
                .to_le_bytes()
                .into_iter()
                .chain(z.im.to_bits().to_le_bytes())
        })
        .collect()
}

#[test]
// `round` is not a mere slice index: each iteration advances the fleet once
// before comparing against that round's reference blocks.
#[allow(clippy::needless_range_loop)]
fn all_sixteen_registered_scenarios_run_concurrently_and_bit_identically() {
    // The acceptance-criterion configuration: every registered scenario as
    // one fleet, generated concurrently on the pool, each stream compared
    // bit for bit against running it alone.
    const MASTER_SEED: u64 = 0xF1EE7;
    const ADVANCES: usize = 2;
    let names = corrfade_scenarios::names();
    assert_eq!(names.len(), 16, "the registry holds 16 named scenarios");

    let references: Vec<Vec<Vec<u8>>> = names
        .iter()
        .enumerate()
        .map(|(i, name)| standalone_blocks(name, MASTER_SEED, i, ADVANCES))
        .collect();

    let mut fleet = StreamFleet::open(&names, MASTER_SEED).unwrap();
    assert_eq!(fleet.len(), 16);
    for round in 0..ADVANCES {
        fleet.advance().unwrap();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                fleet_blocks(&mut fleet, i),
                references[i][round],
                "stream {i} (`{name}`) diverged from standalone generation \
                 in advance {round}"
            );
        }
    }
}

#[test]
fn pool_choice_cannot_influence_the_blocks() {
    // Global pool, explicit pools of several sizes, and the sequential
    // fallback must produce byte-identical blocks for every stream.
    const MASTER_SEED: u64 = 42;
    let names = ["fig4a-spectral", "fig4b-spatial", "scaling-exp-rho07"];

    let mut on_global = StreamFleet::open(&names, MASTER_SEED).unwrap();
    on_global.advance().unwrap();

    let mut sequential = StreamFleet::open(&names, MASTER_SEED).unwrap();
    sequential.advance_sequential().unwrap();

    for workers in [1usize, 2, 5] {
        let rt = Runtime::new(workers);
        let mut on_pool = StreamFleet::open(&names, MASTER_SEED).unwrap();
        on_pool.advance_on(&rt).unwrap();
        for i in 0..names.len() {
            assert_eq!(
                fleet_blocks(&mut on_pool, i),
                fleet_blocks(&mut on_global, i),
                "stream {i}: {workers}-worker pool diverged from the global pool"
            );
            assert_eq!(
                fleet_blocks(&mut on_pool, i),
                fleet_blocks(&mut sequential, i),
                "stream {i}: pooled generation diverged from sequential"
            );
        }
    }
}

#[test]
fn open_scenarios_matches_standalone_streams() {
    // The registry-free entry point: a fleet over caller-resolved scenario
    // references must stay bit-identical to standalone streams of the same
    // scenarios and per-stream seeds.
    const MASTER_SEED: u64 = 0x9A7E;
    let names = ["fig4a-spectral", "two-envelope-complex"];
    let scenarios: Vec<&'static corrfade_scenarios::Scenario> =
        names.iter().map(|name| lookup(name).unwrap()).collect();

    let mut fleet = StreamFleet::open_scenarios(&scenarios, MASTER_SEED).unwrap();
    let mut block = SampleBlock::empty();
    for round in 0..2 {
        fleet.advance().unwrap();
        for (i, scenario) in scenarios.iter().enumerate() {
            let mut standalone = scenario
                .build_realtime(stream_seed(MASTER_SEED, i))
                .unwrap();
            for _ in 0..=round {
                standalone.next_block_into(&mut block).unwrap();
            }
            assert_eq!(
                fleet.block(i).as_slice(),
                block.as_slice(),
                "stream {i} diverged from standalone generation in advance {round}"
            );
        }
    }
}

#[test]
fn shared_covariance_specs_hit_the_decomposition_cache() {
    // Two streams of the same scenario share one decomposition: opening the
    // duplicate must be answered from the cache. The counters are
    // process-wide and monotone, so only lower bounds on deltas are
    // asserted (other tests in this binary may add their own hits).
    let before = corrfade::coloring_cache_stats();
    let mut fleet = StreamFleet::open(&["mimo-ula-halfwave", "mimo-ula-halfwave"], 5).unwrap();
    let after = corrfade::coloring_cache_stats();
    assert!(
        after.hits > before.hits,
        "the duplicate scenario must share the cached decomposition \
         (hits {} -> {})",
        before.hits,
        after.hits
    );

    // And the shared decomposition still yields independent, correct
    // streams.
    fleet.advance().unwrap();
    let a = fleet_blocks(&mut fleet, 0);
    let b = fleet_blocks(&mut fleet, 1);
    assert_ne!(a, b, "cache sharing must not alias the RNG streams");
    assert_eq!(
        a,
        standalone_blocks("mimo-ula-halfwave", 5, 0, 1).remove(0),
        "cached decomposition changed the generated values"
    );
}
