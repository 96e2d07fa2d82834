//! The multi-stream batch engine: many named scenarios, one worker pool.
//!
//! A network simulator or a channel emulator advances many correlated
//! channels in lockstep: K streams, each over a named scenario from
//! `corrfade-scenarios` (or a pre-built generator), each producing its
//! next block of Doppler-shaped samples at every epoch. [`StreamFleet`] is
//! that lockstep engine:
//!
//! * **Open by name** — [`StreamFleet::open`] resolves each name through
//!   the scenario registry and builds its real-time generator through the
//!   process-wide decomposition cache
//!   ([`corrfade::cached_eigen_coloring`]), so K streams over the same
//!   covariance matrix pay for one eigendecomposition; the FFT plan caches
//!   in `corrfade-dsp` are memos of the same type. The decomposition
//!   lookups run one stream after another on the opening thread, never
//!   inside the pool, and per-stream setup is paid once, at open.
//! * **Generate in batch** — [`StreamFleet::advance`] produces the next
//!   block for *every* stream concurrently on the persistent
//!   [`Runtime`] pool: executors claim stream indices from one shared
//!   atomic cursor, the submitting thread participates as executor 0, and
//!   each stream's block lands in that stream's own pooled
//!   [`SampleBlock`]. After warm-up an advance performs **zero heap
//!   allocation** (the workspace's allocation-regression test measures
//!   this end to end through the pool).
//! * **Isolation by construction** — stream `i` owns an independent RNG
//!   stream seeded with [`stream_seed`]`(master_seed, i)`. Which worker
//!   generates which block, and how many workers exist, cannot influence
//!   the output: every stream's blocks are **bit-identical** to running
//!   that scenario alone with the same per-stream seed
//!   ([`Scenario::build_realtime`] + repeated `next_block_into`), on any
//!   thread count and both kernel backends.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use corrfade::{ChannelStream, RealtimeGenerator, SampleBlock};
use corrfade_scenarios::{lookup, Scenario};

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

/// A batch of named real-time channel streams generated together on the
/// persistent worker pool. See the [module docs](self).
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
    /// The registry scenarios backing the fixed streams; empty for fleets
    /// assembled from pre-built generators ([`StreamFleet::open_streams`]).
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
    /// [`ParallelError::Scenario`] when a scenario fails to build.
    pub fn open_scenarios(
        scenarios: &[&'static Scenario],
        master_seed: u64,
    ) -> Result<Self, ParallelError> {
        let streams = scenarios
            .iter()
            .enumerate()
            .map(|(i, scenario)| Ok(scenario.build_realtime_cached(stream_seed(master_seed, i))?))
            .collect::<Result<Vec<_>, ParallelError>>()?;
        Ok(Self::from_parts(scenarios.to_vec(), streams, master_seed))
    }

    /// Assembles a fleet from **pre-built** real-time generators — the
    /// registry-free entry point for layers that derive their streams from
    /// something other than named scenarios (the `corrfade-network` crate
    /// opens one multi-envelope stream per correlated link group this way,
    /// each seeded by its own partition-invariant derivation).
    ///
    /// The caller owns the seeding policy entirely: unlike
    /// [`StreamFleet::open`], **no** [`stream_seed`] derivation is applied,
    /// and `master_seed` is recorded for observability only. Everything
    /// else — lockstep [`StreamFleet::advance`] on the pool, per-stream
    /// pooled blocks, zero steady-state allocation,
    /// bit-identical results on any pool size — behaves exactly as for
    /// name-opened fleets. [`StreamFleet::scenario`] has no entries to
    /// return for such a fleet and panics for every index.
    #[must_use]
    pub fn open_streams(streams: Vec<RealtimeGenerator>, master_seed: u64) -> Self {
        Self::from_parts(Vec::new(), streams, master_seed)
    }

    fn from_parts(
        scenarios: Vec<&'static Scenario>,
        streams: Vec<RealtimeGenerator>,
        master_seed: u64,
    ) -> Self {
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
        Self {
            scenarios,
            slots,
            samples_per_advance,
            master_seed,
        }
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
    /// Executors claim stream indices from one shared atomic cursor until
    /// every stream has been claimed, so a skewed fleet (streams with very
    /// different `N` and `M`) keeps every core busy until the whole advance
    /// is done. The submitting thread itself is executor 0, so no core
    /// idles behind the barrier.
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
        // Relaxed: the cursor only hands out indices; the slot mutexes and
        // the pool's completion handshake order the data.
        let next = AtomicUsize::new(0);
        runtime.try_run(&|_id, _scratch| {
            while let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) {
                let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
                let FleetSlot { stream, block } = &mut *slot;
                stream
                    .next_block_into(block)
                    .expect("realtime generation is infallible after construction");
            }
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
            let FleetSlot { stream, block } = slot_mut(slot);
            stream
                .next_block_into(block)
                .expect("realtime generation is infallible after construction");
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
    /// needed by consumers of the **lazy envelope view**
    /// ([`SampleBlock::envelope_path`] caches `|z|` inside the block), e.g.
    /// per-link fading-metric extraction in the network layer. The next
    /// advance overwrites the complex data and invalidates that cache.
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
    fn open_streams_uses_the_callers_generators_verbatim() {
        use corrfade::ChannelStream;

        // A prebuilt fleet applies no seed derivation: stream i must equal
        // the standalone generator it was built from, bit for bit.
        let scenario = lookup("two-envelope-complex").unwrap();
        let streams = vec![
            scenario.build_realtime_cached(100).unwrap(),
            scenario.build_realtime_cached(200).unwrap(),
        ];
        let mut fleet = StreamFleet::open_streams(streams, 0);
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
