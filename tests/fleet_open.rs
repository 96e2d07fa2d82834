//! Opening a [`StreamFleet`] on the pool: the streams' colorings resolve
//! concurrently, yet the process-wide coloring memo must see exactly the
//! lookups of opening the streams one after another — one miss per
//! distinct covariance, a hit for every repeat — and a failing open must
//! report the error of the first failing stream, in stream order.
//!
//! The memo's counters are process-wide, so the tests of this file hold one
//! lock while they run.

use std::sync::Mutex;

use corrfade::{clear_coloring_caches, coloring_cache_stats};
use corrfade_parallel::{stream_seed, ParallelError, StreamFleet};
use corrfade_scenarios::{lookup, DopplerSettings, Scenario, ScenarioError};

static MEMO: Mutex<()> = Mutex::new(());

const MASTER_SEED: u64 = 0x0BE7;

/// `(misses, hits)` counted while `f` runs on a cleared memo.
fn traffic(f: impl FnOnce()) -> (u64, u64) {
    clear_coloring_caches();
    let before = coloring_cache_stats();
    f();
    let after = coloring_cache_stats();
    (after.misses - before.misses, after.hits - before.hits)
}

/// Builds the streams of a fleet over `scenarios` one after another,
/// stopping at the first error: the sequential open the pooled one must
/// match.
fn open_alone(scenarios: &[&'static Scenario]) -> Result<(), ScenarioError> {
    for (i, scenario) in scenarios.iter().enumerate() {
        scenario.build_realtime_cached(stream_seed(MASTER_SEED, i))?;
    }
    Ok(())
}

#[test]
fn pooled_open_counts_the_sequential_opens_misses_and_hits() {
    let _memo = MEMO
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut names = corrfade_scenarios::names();
    names.extend(["mimo-ula-halfwave", "fig4a-spectral", "mimo-ula-halfwave"]);
    let scenarios: Vec<&'static Scenario> = names.iter().map(|n| lookup(n).unwrap()).collect();

    let sequential = traffic(|| open_alone(&scenarios).unwrap());
    let pooled = traffic(|| {
        StreamFleet::open(&names, MASTER_SEED).unwrap();
    });

    assert_eq!(sequential.0 + sequential.1, names.len() as u64);
    assert!(
        sequential.1 >= 3,
        "the repeated names must hit: {sequential:?}"
    );
    assert_eq!(pooled, sequential, "(misses, hits) of the pooled open");
}

#[test]
fn a_failing_open_reports_the_first_failing_stream() {
    let _memo = MEMO
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let good = lookup("fig4b-spatial").unwrap();
    // Its generator cannot be built: the Doppler frequency is out of range.
    let bad_doppler: &'static Scenario = Box::leak(Box::new(Scenario {
        doppler: DopplerSettings {
            normalized_doppler: 2.0,
            ..good.doppler
        },
        ..*good
    }));
    // Its configuration cannot be built: a fixed-size family resized.
    let bad_size: &'static Scenario = Box::leak(Box::new(
        lookup("fig4a-spectral").unwrap().with_envelopes(5),
    ));

    for scenarios in [
        vec![good, bad_doppler, good, bad_size],
        vec![good, bad_size, bad_doppler],
        vec![bad_doppler, bad_doppler, good],
    ] {
        let expected = open_alone(&scenarios).unwrap_err();
        assert_eq!(
            StreamFleet::open_scenarios(&scenarios, MASTER_SEED).unwrap_err(),
            ParallelError::Scenario(expected)
        );
    }
}
