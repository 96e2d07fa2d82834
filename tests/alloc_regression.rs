//! Allocation-regression test: once a `ChannelStream` and its destination
//! [`SampleBlock`] are warm, `next_block_into` must perform **zero heap
//! allocation** — the core guarantee of the streaming redesign.
//!
//! A counting global allocator records every allocation of the test binary;
//! the test measures the delta across a window of streamed blocks after a
//! warm-up phase. The guarantee is also enforced end to end through the
//! multi-stream batch engine: a warm [`corrfade_parallel::StreamFleet`]
//! advance — every stream's block generated concurrently on the persistent
//! worker pool — must not allocate either, which pins the whole pipeline
//! (pool dispatch, per-stream locks, pinned blocks, generator scratch).
//! The whole file holds exactly one `#[test]` so no concurrently running
//! test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use corrfade::{
    ChannelStream, CorrelatedRayleighGenerator, Precision, RealtimeConfig, RealtimeGenerator,
    SampleBlock,
};
use corrfade_models::{paper_covariance_matrix_22, paper_covariance_matrix_23};

/// A [`System`]-backed allocator that counts allocation calls.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every operation to `System`; only adds a counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Streams `warmup + measured` blocks and returns the allocation count
/// observed over the measured window.
fn measure<S: ChannelStream>(stream: &mut S, block: &mut SampleBlock) -> usize {
    for _ in 0..2 {
        stream.next_block_into(block).unwrap();
    }
    let before = allocations();
    for _ in 0..8 {
        stream.next_block_into(block).unwrap();
    }
    allocations() - before
}

#[test]
fn next_block_into_is_allocation_free_after_warmup() {
    // Power-of-two M: the in-place IDFT path, as in every paper experiment.
    let mut block = SampleBlock::empty();

    for k in [paper_covariance_matrix_22(), paper_covariance_matrix_23()] {
        let cfg = RealtimeConfig {
            covariance: k.clone(),
            idft_size: 1024,
            normalized_doppler: 0.05,
            sigma_orig_sq: 0.5,
            seed: 1,
            precision: Precision::F64,
        };
        let mut realtime = RealtimeGenerator::new(cfg).unwrap();
        let delta = measure(&mut realtime, &mut block);
        assert_eq!(
            delta, 0,
            "RealtimeGenerator::next_block_into allocated {delta} time(s) after warm-up"
        );

        let mut single = CorrelatedRayleighGenerator::new(k, 1)
            .unwrap()
            .with_stream_block_len(512);
        let delta = measure(&mut single, &mut block);
        assert_eq!(
            delta, 0,
            "CorrelatedRayleighGenerator::next_block_into allocated {delta} time(s) after warm-up"
        );
    }

    // A non-power-of-two M exercises the Bluestein IDFT fallback: with the
    // process-wide plan cache and the thread-local convolution scratch warm,
    // odd lengths must stream allocation-free too.
    {
        let cfg = RealtimeConfig {
            covariance: paper_covariance_matrix_22(),
            idft_size: 1000,
            normalized_doppler: 0.04,
            sigma_orig_sq: 0.5,
            seed: 2,
            precision: Precision::F64,
        };
        let mut bluestein = RealtimeGenerator::new(cfg).unwrap();
        let delta = measure(&mut bluestein, &mut block);
        assert_eq!(
            delta, 0,
            "a warm non-power-of-two (Bluestein) stream allocated {delta} time(s)"
        );
    }

    // The baseline streams honour the same contract: the flawed realtime
    // combination, the real-embedding generator (its own scratch path), and
    // one user of the shared snapshot-batching helper (which also covers
    // BeaulieuMerani and Natarajan).
    let k = paper_covariance_matrix_23();
    let mut baseline =
        corrfade_baselines::SorooshyariDautRealtimeGenerator::new(&k, 1024, 0.05, 0.5, 1).unwrap();
    let delta = measure(&mut baseline, &mut block);
    assert_eq!(
        delta, 0,
        "SorooshyariDautRealtimeGenerator::next_block_into allocated {delta} time(s) after warm-up"
    );

    let mut salz = corrfade_baselines::SalzWintersGenerator::new(&k, 1).unwrap();
    let delta = measure(&mut salz, &mut block);
    assert_eq!(
        delta, 0,
        "SalzWintersGenerator::next_block_into allocated {delta} time(s) after warm-up"
    );

    let mut sd = corrfade_baselines::SorooshyariDautGenerator::new(&k, 1).unwrap();
    let delta = measure(&mut sd, &mut block);
    assert_eq!(
        delta, 0,
        "SorooshyariDautGenerator::next_block_into allocated {delta} time(s) after warm-up"
    );

    // The multi-stream fleet: K named scenarios generated concurrently on
    // the persistent worker pool. Warm-up spawns the global pool, sizes the
    // per-stream blocks and the workers' pinned scratch; after that, a full
    // fleet advance must be allocation-free end to end (pool handshake,
    // stream locks, Doppler generation, coloring).
    let mut fleet = corrfade_parallel::StreamFleet::open(
        &["fig4a-spectral", "fig4b-spatial", "two-envelope-complex"],
        1,
    )
    .unwrap();
    for _ in 0..2 {
        fleet.advance().unwrap();
    }
    let before = allocations();
    for _ in 0..8 {
        fleet.advance().unwrap();
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "StreamFleet::advance allocated {delta} time(s) after warm-up"
    );

    // The network layer on top of the fleet: a warm epoch — lockstep advance
    // of every correlated group plus a full per-link trace-extraction pass
    // (envelope view, outage/LCR/AFD metrics through the `_block`
    // estimators) — must be allocation-free end to end. The warm-up pays for
    // the envelope caches of each group block; after that the metrics read
    // straight out of the fleet's buffers.
    {
        use corrfade_network::{NetworkSim, NetworkSimConfig, Topology};
        use corrfade_scenarios::DopplerSettings;

        let cfg = NetworkSimConfig {
            doppler: DopplerSettings {
                idft_size: 512,
                normalized_doppler: 0.05,
                sigma_orig_sq: 0.5,
            },
            ..NetworkSimConfig::default()
        };
        let mut sim = NetworkSim::open(Topology::grid(3, 3, 1.0).unwrap(), &cfg, 1).unwrap();
        let epoch = |sim: &mut NetworkSim| {
            sim.advance().unwrap();
            for link in 0..sim.link_count() {
                let m = sim.link_metrics(link).unwrap();
                assert!(m.outage_probability.is_finite());
            }
        };
        for _ in 0..2 {
            epoch(&mut sim);
        }
        let before = allocations();
        for _ in 0..8 {
            epoch(&mut sim);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "a warm NetworkSim epoch (advance + per-link metrics) allocated {delta} time(s)"
        );
    }

    // The serving layer, end to end through a real Unix-domain socket: a
    // warm server connection's steady state — `next_block_into` on its own
    // generator, block-frame encode into the pooled wire buffer,
    // `write_all`, plus the client's frame read and planar decode into its
    // pooled block — must not allocate either. The warm-up covers the
    // handshake, the capacity growth of both pooled buffers, and the
    // generator scratch; the measured window then spans whole
    // produce-transmit-consume round trips. (The server's accept thread is
    // parked in `accept()` and the connection thread only runs the code
    // under test, so no other thread can pollute the counter.)
    #[cfg(unix)]
    {
        let path = std::env::temp_dir().join(format!(
            "corrfade-alloc-regression-{}.sock",
            std::process::id()
        ));
        let server = corrfade_serve::Server::bind(
            corrfade_serve::ServeAddr::Unix(path),
            corrfade_serve::ServerConfig::default(),
        )
        .unwrap();
        let mut client = corrfade_serve::Client::connect(server.local_addr()).unwrap();
        client.subscribe("two-envelope-complex", 1, 32).unwrap();
        for _ in 0..4 {
            client.next_block_into(&mut block).unwrap().unwrap();
        }
        let before = allocations();
        for _ in 0..8 {
            client.next_block_into(&mut block).unwrap().unwrap();
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "a warm serve connection allocated {delta} time(s) in steady state"
        );
        server.shutdown().unwrap();
    }
}
