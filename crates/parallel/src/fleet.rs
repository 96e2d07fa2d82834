//! The multi-stream batch engine; its design notes are on [`StreamFleet`].

use std::sync::{Mutex, OnceLock, PoisonError};

use corrfade::{
    cached_eigen_coloring, ChannelStream, Coloring, CorrfadeError, RealtimeConfig,
    RealtimeGenerator, SampleBlock,
};
use corrfade_scenarios::{lookup, Scenario, ScenarioError};

use crate::error::ParallelError;
use crate::partition::chunk_seed;
use crate::runtime::Runtime;

/// Derives the RNG seed of fleet stream `index` from the fleet's master
/// seed (the same SplitMix64 derivation as [`chunk_seed`]). Running
/// `scenario.build_realtime(stream_seed(master_seed, index))` standalone
/// reproduces fleet stream `index` bit for bit.
#[must_use]
pub fn stream_seed(master_seed: u64, index: usize) -> u64 {
    chunk_seed(master_seed, index)
}

/// One fleet member: its generator and the pooled block the engine writes
/// into. Behind a `Mutex` so pool workers can fill disjoint streams
/// concurrently; the locks are uncontended by construction (each index is
/// claimed by exactly one worker per advance).
struct FleetSlot {
    stream: RealtimeGenerator,
    block: SampleBlock,
}

/// Exclusive access to a stream slot, recovered from poisoning: a panic
/// inside one stream's generation has already surfaced as
/// [`ParallelError::JobPanicked`] from that advance, and the next advance
/// rewrites the slot's block whole, so the fleet carries on instead of
/// cascading the panic.
fn slot_mut(slot: &mut Mutex<FleetSlot>) -> &mut FleetSlot {
    slot.get_mut().unwrap_or_else(PoisonError::into_inner)
}

impl FleetSlot {
    /// One stream's share of an advance: its next block, then that block's
    /// envelope view, computed while the fresh samples are still in the
    /// executor's cache.
    fn step(&mut self) {
        self.stream
            .next_block_into(&mut self.block)
            .expect("realtime generation is infallible after construction");
        let _ = self.block.envelope_slice();
    }
}

/// A batch of named real-time channel streams generated together on the
/// persistent worker pool.
///
/// A network simulator or a channel emulator advances many correlated
/// channels in lockstep: K streams, each over a named scenario from
/// `corrfade-scenarios` (or a generator configuration), each producing its
/// next block of Doppler-shaped samples at every epoch. [`StreamFleet`] is
/// that lockstep engine:
///
/// * **Open on the pool** — [`StreamFleet::open`] resolves each name
///   through the scenario registry, and [`StreamFleet::open_configs`],
///   which every open goes through, builds the real-time generators as the
///   items of one [`Runtime::try_for_each`] through the process-wide
///   decomposition cache ([`corrfade::cached_eigen_coloring`]): K streams
///   over the same covariance matrix pay for one eigendecomposition, and
///   distinct matrices decompose concurrently. Per-stream setup is paid
///   once, at open.
/// * **Generate in batch** — [`StreamFleet::advance`] produces the next
///   block for *every* stream concurrently on the persistent
///   [`Runtime`] pool, one item per stream, and each stream's block lands
///   in that stream's own pooled
///   [`SampleBlock`], together with that block's envelope view `|z|`
///   ([`SampleBlock::envelope_slice`]): the executor that generated a block
///   computes its envelopes while the samples are still in cache, so
///   consumers of the envelopes (the network layer's per-link metrics)
///   read them without a serial pass after the advance. After warm-up an
///   advance performs **zero heap allocation** (the workspace's
///   allocation-regression test measures this end to end through the
///   pool).
/// * **Isolation by construction** — stream `i` owns an independent RNG
///   stream seeded with [`stream_seed`]`(master_seed, i)`. Which worker
///   generates which block, and how many workers exist, cannot influence
///   the output: every stream's blocks are **bit-identical** to running
///   that scenario alone with the same per-stream seed
///   ([`Scenario::build_realtime`] + repeated `next_block_into`), on any
///   thread count and both kernel backends.
///
/// # Examples
///
/// ```
/// use corrfade_parallel::StreamFleet;
///
/// let mut fleet = StreamFleet::open(&["fig4a-spectral", "fig4b-spatial"], 7).unwrap();
/// fleet.advance().unwrap(); // next block for every stream, in parallel
/// assert_eq!(fleet.block(0).envelopes(), 3);
/// assert_eq!(fleet.block(1).samples(), 4096);
/// ```
pub struct StreamFleet {
    /// The registry scenarios backing the streams; empty for fleets opened
    /// from generator configurations ([`StreamFleet::open_configs`]).
    scenarios: Vec<&'static Scenario>,
    slots: Vec<Mutex<FleetSlot>>,
    /// Total samples per lockstep advance, Σ dimension·block_len — computed
    /// once at open so it stays readable through `&self`.
    samples_per_advance: usize,
    master_seed: u64,
}

impl std::fmt::Debug for StreamFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamFleet")
            .field("streams", &self.scenarios.len())
            .field("master_seed", &self.master_seed)
            .finish_non_exhaustive()
    }
}

impl StreamFleet {
    /// Opens one real-time stream per registry name (duplicates allowed —
    /// they become independent streams of the same scenario). Stream `i`
    /// is seeded with [`stream_seed`]`(master_seed, i)`; decompositions are
    /// shared through the process-wide cache.
    ///
    /// # Errors
    /// [`ParallelError::Scenario`] when a name is unknown or a scenario
    /// fails to build.
    pub fn open(names: &[&str], master_seed: u64) -> Result<Self, ParallelError> {
        let scenarios = names
            .iter()
            .map(|name| lookup(name))
            .collect::<Result<Vec<_>, _>>()?;
        Self::open_scenarios(&scenarios, master_seed)
    }

    /// Opens one real-time stream per scenario reference (the registry-free
    /// variant of [`StreamFleet::open`], for callers that already resolved
    /// or filtered their scenarios).
    ///
    /// # Errors
    /// [`ParallelError::Scenario`] for the first stream, in stream order,
    /// that fails to build; [`ParallelError::JobPanicked`] when building a
    /// stream panicked.
    pub fn open_scenarios(
        scenarios: &[&'static Scenario],
        master_seed: u64,
    ) -> Result<Self, ParallelError> {
        let mut config_error = None;
        let configs = scenarios
            .iter()
            .enumerate()
            .map_while(|(i, scenario)| {
                scenario
                    .realtime_config(stream_seed(master_seed, i))
                    .map_err(|error| config_error = Some(error))
                    .ok()
            })
            .collect();
        let mut fleet = Self::open_configs(configs, master_seed).map_err(|error| match error {
            ParallelError::Core(error) => ScenarioError::from(error).into(),
            error => error,
        })?;
        if let Some(error) = config_error {
            return Err(error.into());
        }
        fleet.scenarios = scenarios.to_vec();
        Ok(fleet)
    }

    /// Opens one real-time stream per generator configuration — the entry
    /// point every other open goes through, and the one for layers that
    /// derive their streams from something other than named scenarios (the
    /// `corrfade-network` crate opens one multi-envelope stream per
    /// correlated link group this way, each seeded by its own
    /// partition-invariant derivation).
    ///
    /// Each stream's coloring is resolved through the process-wide
    /// decomposition cache ([`corrfade::cached_eigen_coloring`]) and its
    /// generator built on [`Runtime::global`], one item per stream, so
    /// opening many large covariances runs their decompositions
    /// concurrently; streams over the same matrix still share one
    /// decomposition, and the cache counts the same misses and hits as
    /// opening the streams one after another. This must not be called from
    /// inside a job on the global pool.
    ///
    /// The configurations' seeds are used verbatim: **no** [`stream_seed`]
    /// derivation is applied, and `master_seed` is recorded for
    /// observability only. [`StreamFleet::scenario`] has no entries to
    /// return for such a fleet and panics for every index.
    ///
    /// # Errors
    /// [`ParallelError::Core`] for the first stream, in stream order, whose
    /// covariance cannot be colored or whose generator cannot be built;
    /// [`ParallelError::JobPanicked`] when building a stream panicked.
    pub fn open_configs(
        configs: Vec<RealtimeConfig>,
        master_seed: u64,
    ) -> Result<Self, ParallelError> {
        let built: Vec<OnceLock<Result<RealtimeGenerator, CorrfadeError>>> =
            configs.iter().map(|_| OnceLock::new()).collect();
        Runtime::global().try_for_each(configs.len(), &|i| {
            let config = &configs[i];
            let _ = built[i].set(
                cached_eigen_coloring(&config.covariance).and_then(|coloring| {
                    RealtimeGenerator::from_coloring(Coloring::clone(&coloring), config.clone())
                }),
            );
        })?;
        let streams = built
            .into_iter()
            .map(|stream| stream.into_inner().expect("every stream was built"))
            .collect::<Result<Vec<_>, _>>()?;
        let samples_per_advance = streams.iter().map(|s| s.dimension() * s.block_len()).sum();
        let slots = streams
            .into_iter()
            .map(|stream| {
                Mutex::new(FleetSlot {
                    stream,
                    block: SampleBlock::empty(),
                })
            })
            .collect();
        Ok(Self {
            scenarios: Vec::new(),
            slots,
            samples_per_advance,
            master_seed,
        })
    }

    /// Number of streams in the fleet.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the fleet holds no streams.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The master seed the per-stream seeds derive from.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The scenario backing stream `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn scenario(&self, i: usize) -> &'static Scenario {
        self.scenarios[i]
    }

    /// Total samples (envelopes × block length, summed over all streams)
    /// produced by one advance — the throughput denominator of the
    /// `fleet_throughput` bench.
    #[must_use]
    pub fn samples_per_advance(&self) -> usize {
        self.samples_per_advance
    }

    /// Generates the next block for every stream concurrently on the
    /// global [`Runtime`] pool.
    ///
    /// Each stream is one item of [`Runtime::try_for_each`], so a skewed
    /// fleet (streams with very different `N` and `M`) keeps every core
    /// busy until the whole advance is done, and the submitting thread
    /// generates streams too.
    ///
    /// # Errors
    /// [`ParallelError::JobPanicked`] when a stream's generation panicked
    /// on a pool executor (the pool itself survives).
    pub fn advance(&mut self) -> Result<(), ParallelError> {
        self.advance_on(Runtime::global())
    }

    /// [`StreamFleet::advance`] on an explicit pool. The pool size affects
    /// wall-clock only, never the produced blocks.
    ///
    /// # Errors
    /// See [`StreamFleet::advance`].
    pub fn advance_on(&mut self, runtime: &Runtime) -> Result<(), ParallelError> {
        let slots = &self.slots;
        runtime.try_for_each(slots.len(), &|i| {
            slots[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .step();
        })
    }

    /// Generates the next block for every stream on the calling thread, in
    /// stream order — bit-identical to [`StreamFleet::advance`]; the
    /// single-threaded reference the equivalence tests and the
    /// `fleet_throughput` bench compare the pool against.
    ///
    /// # Errors
    /// See [`StreamFleet::advance`].
    pub fn advance_sequential(&mut self) -> Result<(), ParallelError> {
        for slot in &mut self.slots {
            slot_mut(slot).step();
        }
        Ok(())
    }

    /// The most recently generated block of stream `i` (empty before the
    /// first advance). Reading requires `&mut self` because the blocks sit
    /// behind the per-stream locks the pool writes through.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn block(&mut self, i: usize) -> &SampleBlock {
        &slot_mut(&mut self.slots[i]).block
    }

    /// Mutable access to the most recently generated block of stream `i` —
    /// the receiver [`SampleBlock::envelope_path`] needs, e.g. for per-link
    /// fading-metric extraction in the network layer. Every advance
    /// computes each block's envelope view on the executor that generated
    /// the block, so reading it here is a slice borrow; mutating the
    /// complex data through this handle invalidates the view, and the next
    /// read recomputes it.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn block_mut(&mut self, i: usize) -> &mut SampleBlock {
        &mut slot_mut(&mut self.slots[i]).block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_resolves_names_and_reports_unknown_ones() {
        let fleet = StreamFleet::open(&["fig4a-spectral", "fig4b-spatial"], 1).unwrap();
        assert_eq!(fleet.len(), 2);
        assert!(!fleet.is_empty());
        assert_eq!(fleet.scenario(0).name, "fig4a-spectral");
        assert_eq!(fleet.master_seed(), 1);
        assert_eq!(fleet.samples_per_advance(), 2 * 3 * 4096);

        assert!(matches!(
            StreamFleet::open(&["no-such-scenario"], 1),
            Err(ParallelError::Scenario(_))
        ));
    }

    #[test]
    fn advance_fills_every_stream() {
        let mut fleet = StreamFleet::open(&["fig4a-spectral", "two-envelope-complex"], 3).unwrap();
        assert!(
            fleet.block(0).is_empty(),
            "no block before the first advance"
        );
        fleet.advance().unwrap();
        for i in 0..fleet.len() {
            let scenario = fleet.scenario(i);
            let (envelopes, samples) = (scenario.envelopes, scenario.doppler.idft_size);
            let block = fleet.block(i);
            assert_eq!(block.envelopes(), envelopes, "stream {i}");
            assert_eq!(block.samples(), samples, "stream {i}");
        }
    }

    #[test]
    fn fleet_advances_after_a_slot_mutex_is_poisoned() {
        let names = ["fig4a-spectral", "two-envelope-complex"];
        let mut fleet = StreamFleet::open(&names, 5).unwrap();
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _guard = fleet.slots[0].lock().unwrap();
                panic!("poison fleet slot 0");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(fleet.slots[0].is_poisoned());

        let mut standalone: Vec<_> = (0..names.len())
            .map(|i| {
                lookup(names[i])
                    .unwrap()
                    .build_realtime(stream_seed(5, i))
                    .unwrap()
            })
            .collect();
        let mut expected = SampleBlock::empty();
        for round in 0..2 {
            if round == 0 {
                fleet.advance().unwrap();
            } else {
                fleet.advance_sequential().unwrap();
            }
            for (i, stream) in standalone.iter_mut().enumerate() {
                stream.next_block_into(&mut expected).unwrap();
                assert_eq!(fleet.block(i).as_slice(), expected.as_slice(), "stream {i}");
                let envelopes = fleet.scenario(i).envelopes;
                assert_eq!(fleet.block_mut(i).envelopes(), envelopes);
            }
        }
    }

    #[test]
    fn empty_fleet_advances_trivially() {
        let mut fleet = StreamFleet::open(&[], 1).unwrap();
        assert!(fleet.is_empty());
        fleet.advance().unwrap();
        fleet.advance_sequential().unwrap();
    }

    #[test]
    fn open_configs_uses_the_callers_seeds_verbatim() {
        // A fleet opened from configurations applies no seed derivation:
        // stream i must equal the standalone generator of its configuration,
        // bit for bit.
        let scenario = lookup("two-envelope-complex").unwrap();
        let configs = vec![
            scenario.realtime_config(100).unwrap(),
            scenario.realtime_config(200).unwrap(),
        ];
        let mut fleet = StreamFleet::open_configs(configs, 0).unwrap();
        assert_eq!(fleet.len(), 2);
        assert_eq!(
            fleet.samples_per_advance(),
            2 * scenario.envelopes * scenario.doppler.idft_size
        );

        let mut reference = scenario.build_realtime(200).unwrap();
        let mut expected = SampleBlock::empty();
        for _ in 0..2 {
            fleet.advance().unwrap();
            reference.next_block_into(&mut expected).unwrap();
            assert_eq!(
                fleet.block(1),
                &expected,
                "exact caller seed, no derivation"
            );
        }
        // The mutable block accessor exposes the same data.
        assert_eq!(fleet.block_mut(1).envelopes(), scenario.envelopes);
    }

    #[test]
    fn duplicate_names_are_independent_streams() {
        let mut fleet = StreamFleet::open(&["fig4b-spatial", "fig4b-spatial"], 9).unwrap();
        fleet.advance().unwrap();
        let a = fleet.block(0).as_slice().to_vec();
        let b = fleet.block(1).as_slice().to_vec();
        assert_ne!(a, b, "same scenario, different per-stream seeds");
    }
}
