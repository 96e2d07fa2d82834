//! Integration tests of the declarative scenario registry: every registered
//! scenario must bridge into working generators in both operating modes,
//! names must be unique and stable, and unknown names must surface as typed
//! errors — the contract the experiment binaries, benches and examples rely
//! on when they resolve configuration with `corrfade_scenarios::lookup`.

use corrfade::ChannelStream;
use corrfade_scenarios::{iter, lookup, names, PowerProfile, ScenarioError, REGISTRY};
use corrfade_stats::{relative_frobenius_error, sample_covariance_from_block};

#[test]
fn every_scenario_builds_in_single_instant_mode() {
    for scenario in iter() {
        let gen = scenario.to_builder().seed(1).build();
        assert!(
            gen.is_ok(),
            "scenario `{}` failed to build: {gen:?}",
            scenario.name
        );
        assert_eq!(gen.unwrap().dimension(), scenario.envelopes);
    }
}

#[test]
fn every_scenario_builds_in_realtime_mode_and_produces_blocks() {
    for scenario in iter() {
        let mut gen = scenario
            .build_realtime(2)
            .unwrap_or_else(|e| panic!("scenario `{}` real-time build failed: {e}", scenario.name));
        let block = gen.next_block().unwrap();
        assert_eq!(block.envelopes(), scenario.envelopes);
        assert_eq!(block.samples(), scenario.doppler.idft_size);
    }
}

#[test]
fn scenario_names_are_unique() {
    let names = names();
    let mut deduped = names.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(deduped.len(), names.len(), "duplicate names in {names:?}");
    assert_eq!(names.len(), REGISTRY.len());
}

#[test]
fn unknown_name_is_a_typed_error() {
    let err = lookup("not-a-scenario").unwrap_err();
    assert!(matches!(err, ScenarioError::UnknownScenario { .. }));
    // The error is a std::error::Error with a useful message.
    let msg = err.to_string();
    assert!(msg.contains("not-a-scenario"), "message: {msg}");
}

#[test]
fn power_profiles_have_matching_dimensions() {
    for scenario in iter() {
        match scenario.powers {
            PowerProfile::Intrinsic => {}
            PowerProfile::Gaussian(p) | PowerProfile::Envelope(p) => assert_eq!(
                p.len(),
                scenario.envelopes,
                "scenario `{}` power profile length mismatch",
                scenario.name
            ),
        }
    }
}

#[test]
fn network_family_resolves_builds_and_streams_by_name() {
    use corrfade::SampleBlock;

    // The generated WSN family is addressable exactly like a catalogued
    // scenario: the full 24-link grid field...
    let field = lookup("network/grid16").unwrap();
    assert_eq!(field.envelopes, 24);
    let gen = field.build_realtime(3).unwrap();
    assert_eq!(gen.dimension(), 24);
    assert_eq!(gen.block_len(), field.doppler.idft_size);

    // ...and any single link of it, streamable through the zero-allocation
    // block API (what corrfade-serve subscriptions use).
    let mut block = SampleBlock::empty();
    let mut stream = lookup("network/grid16/link5").unwrap().stream(3).unwrap();
    stream.next_block_into(&mut block).unwrap();
    assert_eq!(block.envelopes(), 1);
    assert_eq!(block.samples(), 1024);

    // Repeated lookups hit the cache: same 'static scenario.
    assert!(std::ptr::eq(
        lookup("network/grid16").unwrap(),
        lookup("network/grid16").unwrap()
    ));
}

#[test]
fn unknown_network_names_are_typed_errors() {
    for bad in ["network/grid16/link24", "network/grid32", "network/"] {
        let err = lookup(bad).unwrap_err();
        assert!(
            matches!(err, ScenarioError::UnknownScenario { .. }),
            "`{bad}` should be UnknownScenario, got {err:?}"
        );
    }
}

#[test]
fn generated_snapshots_realize_each_psd_scenario_covariance() {
    // For every scenario whose target is realizable (no eigenvalue
    // clipping), the sample covariance must converge to the desired one.
    for scenario in iter() {
        let gen = scenario.build(0x5EED).unwrap();
        if gen.coloring().psd.clipped_count > 0 {
            continue; // infeasible targets realize the *forced* matrix instead
        }
        let k = scenario.covariance_matrix().unwrap();
        let block = gen.with_stream_block_len(20_000).next_block().unwrap();
        let khat = sample_covariance_from_block(&block);
        let err = relative_frobenius_error(&khat, &k);
        assert!(
            err < 0.1,
            "scenario `{}`: sample covariance off by {err:.3}",
            scenario.name
        );
    }
}
