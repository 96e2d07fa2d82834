//! The multi-stream batch engine: many named scenarios, one worker pool.
//!
//! A production channel emulator does not serve one stream — it serves
//! *fleets* of them: K clients, each subscribed to a named scenario from
//! `corrfade-scenarios`, each expecting its next block of correlated
//! Doppler-shaped samples. [`StreamFleet`] is that serving surface:
//!
//! * **Open by name** — [`StreamFleet::open`] resolves each name through
//!   the scenario registry and builds its real-time generator through the
//!   process-wide decomposition cache
//!   ([`corrfade::cached_eigen_coloring`]), so K streams over the same
//!   covariance matrix pay for one eigendecomposition; the FFT plan cache
//!   in `corrfade-dsp` is shared the same way. Per-stream setup is paid
//!   once, at open.
//! * **Generate in batch** — [`StreamFleet::advance`] produces the next
//!   block for *every* stream concurrently on the persistent
//!   [`Runtime`] pool: streams are dealt into per-executor work-stealing
//!   lanes (stable affinity, stealing for skew — see
//!   [`crate::stealing`]), the submitting thread participates as executor
//!   0, and each stream's block lands in that stream's own pooled
//!   [`SampleBlock`]. After warm-up an advance performs **zero heap
//!   allocation** (the workspace's allocation-regression test measures
//!   this end to end through the pool, including the re-dealt lanes).
//! * **Isolation by construction** — stream `i` owns an independent RNG
//!   stream seeded with [`stream_seed`]`(master_seed, i)`. Which worker
//!   generates which block, and how many workers exist, cannot influence
//!   the output: every stream's blocks are **bit-identical** to running
//!   that scenario alone with the same per-stream seed
//!   ([`Scenario::build_realtime`] + repeated `next_block_into`), on any
//!   thread count and both kernel backends.

use std::sync::{Mutex, PoisonError};

use corrfade::{ChannelStream, RealtimeGenerator, SampleBlock};
use corrfade_scenarios::{lookup, Scenario};

use crate::error::ParallelError;
use crate::partition::chunk_seed;
use crate::runtime::Runtime;
use crate::stealing::StealQueues;

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

/// Handle to a dynamically subscribed fleet stream, returned by
/// [`StreamFleet::subscribe`] and consumed by
/// [`StreamFleet::advance_subscriber_with`] /
/// [`StreamFleet::unsubscribe`].
///
/// Keys are generation-stamped: after `unsubscribe`, any retained copy of
/// the key goes stale and is reported as
/// [`ParallelError::UnknownStream`] instead of silently reading whichever
/// newer subscriber happens to reuse the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamKey {
    index: usize,
    generation: u64,
}

/// One dynamic-subscriber slot: the generation stamp outlives the
/// subscription so stale keys are detectable, and the pooled [`FleetSlot`]
/// is dropped on unsubscribe (a later subscriber re-sizes a fresh block —
/// steady-state zero allocation is a per-connection property, not a
/// cross-connection one).
struct SubscriberSlot {
    generation: u64,
    live: Option<FleetSlot>,
}

/// Exclusive access to a fixed-stream slot, recovered from poisoning like
/// every slot lock of the fleet: a panic inside one stream's generation has
/// already surfaced as [`ParallelError::JobPanicked`] from that advance,
/// and the next advance rewrites the slot's block whole, so the fleet
/// carries on instead of cascading the panic.
fn slot_mut(slot: &mut Mutex<FleetSlot>) -> &mut FleetSlot {
    slot.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Recovers a subscriber-slot guard from poisoning: a panic inside one
/// connection's generation only concerns that connection, and the slot is
/// either unsubscribed (cleanup path) or re-initialized (slot reuse) before
/// any other stream touches it.
fn lock_subscriber(slot: &Mutex<SubscriberSlot>) -> std::sync::MutexGuard<'_, SubscriberSlot> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
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
    /// Reusable work-stealing lanes of the pooled advance: re-dealt per
    /// advance (no allocation once warm), popped by executors with
    /// stealing for skew tolerance.
    stealing: StealQueues,
    /// Dynamically subscribed streams (see [`StreamFleet::subscribe`]):
    /// slot-mutexed so connection threads advance disjoint subscribers
    /// concurrently through a shared `&StreamFleet`.
    subscribers: Vec<Mutex<SubscriberSlot>>,
    /// Indices of `subscribers` slots freed by unsubscribe, reused before
    /// the vector grows again (bounds memory at the concurrency high-water
    /// mark instead of the total connection count).
    free_subscriber_slots: Vec<usize>,
    /// Number of currently live subscribers.
    active_subscribers: usize,
}

impl std::fmt::Debug for StreamFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamFleet")
            .field("streams", &self.scenarios.len())
            .field("master_seed", &self.master_seed)
            .field("subscribers", &self.active_subscribers)
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
    /// else — lockstep [`StreamFleet::advance`] on the pool, work-stealing
    /// lanes, per-stream pooled blocks, zero steady-state allocation,
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
            stealing: StealQueues::default(),
            subscribers: Vec::new(),
            free_subscriber_slots: Vec::new(),
            active_subscribers: 0,
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
    /// Streams are dealt round-robin into per-executor work-stealing
    /// lanes ([`crate::stealing::StealQueues`]): executor `w` prefers
    /// streams `w, w + lanes, …` every advance (stable affinity for the
    /// per-stream locks and buffers it warmed last time), and executors
    /// whose lane drains early steal the stragglers' backlog — a skewed
    /// fleet (streams with very different `N` and `M`) keeps every core
    /// busy until the whole advance is done. The submitting thread itself
    /// is executor 0, so no core idles behind the barrier.
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
        let lanes = runtime.workers().min(self.slots.len()).max(1);
        self.stealing.reset(self.slots.len(), lanes);
        let slots = &self.slots;
        let stealing = &self.stealing;
        runtime.try_run(&|id, _scratch| {
            if id >= lanes {
                return;
            }
            stealing.for_each_claimed(id, |i| {
                let mut slot = slots[i].lock().unwrap_or_else(PoisonError::into_inner);
                let FleetSlot { stream, block } = &mut *slot;
                stream
                    .next_block_into(block)
                    .expect("realtime generation is infallible after construction");
            });
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

    /// Attaches a *dynamic* stream to the fleet — the serving-side
    /// counterpart of the fixed streams passed to [`StreamFleet::open`].
    ///
    /// Unlike the fixed streams (whose seeds derive from the fleet master
    /// seed via [`stream_seed`]), a subscriber uses the **exact** `seed` it
    /// asked for: a network client that requests `(scenario, seed)` must
    /// receive blocks bit-identical to running
    /// [`Scenario::build_realtime`]`(seed)` standalone, so no derivation may
    /// sit in between. The generator is built through the process-wide
    /// decomposition cache ([`Scenario::build_realtime_cached`]) and owns a
    /// pooled [`SampleBlock`] — one block per subscriber for its whole
    /// lifetime, so per-connection steady state allocates nothing.
    ///
    /// Subscribers are **not** touched by the lockstep
    /// [`StreamFleet::advance`] family; each one advances independently (at
    /// its consumer's pace) via [`StreamFleet::advance_subscriber_with`],
    /// which takes `&self` so disjoint subscribers proceed concurrently.
    /// Unsubscribed slots are reused by later subscriptions.
    ///
    /// # Errors
    /// [`ParallelError::Scenario`] when the scenario fails to build.
    pub fn subscribe(
        &mut self,
        scenario: &'static Scenario,
        seed: u64,
    ) -> Result<StreamKey, ParallelError> {
        let stream = scenario.build_realtime_cached(seed)?;
        let live = Some(FleetSlot {
            stream,
            block: SampleBlock::empty(),
        });
        let key = if let Some(index) = self.free_subscriber_slots.pop() {
            let generation = match self.subscribers[index].get_mut() {
                Ok(slot) => slot.generation,
                Err(poisoned) => poisoned.into_inner().generation,
            } + 1;
            // Replacing the mutex wholesale also clears any poisoning left
            // by a previous owner's panic.
            self.subscribers[index] = Mutex::new(SubscriberSlot { generation, live });
            StreamKey { index, generation }
        } else {
            let index = self.subscribers.len();
            self.subscribers.push(Mutex::new(SubscriberSlot {
                generation: 1,
                live,
            }));
            StreamKey {
                index,
                generation: 1,
            }
        };
        self.active_subscribers += 1;
        Ok(key)
    }

    /// Detaches a subscribed stream, freeing its slot for reuse. Returns
    /// `false` when the key is stale (already unsubscribed, or superseded by
    /// a newer subscriber in the same slot) — idempotent by design, since
    /// connection teardown paths can race their own error handling.
    pub fn unsubscribe(&mut self, key: StreamKey) -> bool {
        let Some(slot) = self.subscribers.get_mut(key.index) else {
            return false;
        };
        let slot = match slot.get_mut() {
            Ok(slot) => slot,
            Err(poisoned) => poisoned.into_inner(),
        };
        if slot.generation != key.generation || slot.live.is_none() {
            return false;
        }
        slot.live = None;
        self.free_subscriber_slots.push(key.index);
        self.active_subscribers -= 1;
        true
    }

    /// Number of currently subscribed dynamic streams.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.active_subscribers
    }

    /// Fast-forwards subscriber `key` past `blocks` blocks without
    /// generating them — the serving layer's **resume** path. Only the RNG
    /// draws of the skipped blocks are replayed
    /// ([`RealtimeGenerator::skip_blocks`]); the IDFT/coloring kernels and
    /// all output writes are skipped, so catching a reconnected client up
    /// to its block cursor costs a fraction of regeneration. Afterwards
    /// [`StreamFleet::advance_subscriber_with`] produces the
    /// `blocks + 1`-th block of the uninterrupted stream, bit for bit.
    ///
    /// Takes `&self` like the advance path: the slot mutex serializes the
    /// skip against concurrent advances of the same subscriber.
    ///
    /// # Errors
    /// [`ParallelError::UnknownStream`] when the key is stale.
    pub fn skip_subscriber_blocks(&self, key: StreamKey, blocks: u64) -> Result<(), ParallelError> {
        let Some(slot) = self.subscribers.get(key.index) else {
            return Err(ParallelError::UnknownStream { index: key.index });
        };
        let mut slot = lock_subscriber(slot);
        if slot.generation != key.generation {
            return Err(ParallelError::UnknownStream { index: key.index });
        }
        let Some(FleetSlot { stream, .. }) = slot.live.as_mut() else {
            return Err(ParallelError::UnknownStream { index: key.index });
        };
        stream.skip_blocks(blocks);
        Ok(())
    }

    /// Generates subscriber `key`'s next block into its pooled block and
    /// hands the freshly written block to `f` (typically a wire encoder)
    /// while the slot lock is held — the zero-copy read path.
    ///
    /// Takes `&self`: every subscriber sits behind its own slot mutex, so
    /// any number of connection threads advance *different* subscribers
    /// concurrently (a serving front-end holds the fleet behind an
    /// `RwLock`, taking read guards here and write guards only for
    /// subscribe/unsubscribe). The produced blocks are bit-identical to a
    /// standalone [`Scenario::build_realtime`] stream with the same seed,
    /// whatever the interleaving.
    ///
    /// # Errors
    /// [`ParallelError::UnknownStream`] when the key is stale.
    pub fn advance_subscriber_with<R>(
        &self,
        key: StreamKey,
        f: impl FnOnce(&SampleBlock) -> R,
    ) -> Result<R, ParallelError> {
        let Some(slot) = self.subscribers.get(key.index) else {
            return Err(ParallelError::UnknownStream { index: key.index });
        };
        let mut slot = lock_subscriber(slot);
        if slot.generation != key.generation {
            return Err(ParallelError::UnknownStream { index: key.index });
        }
        let Some(FleetSlot { stream, block }) = slot.live.as_mut() else {
            return Err(ParallelError::UnknownStream { index: key.index });
        };
        stream
            .next_block_into(block)
            .expect("realtime generation is infallible after construction");
        Ok(f(block))
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
    fn subscribers_match_standalone_streams_and_slots_are_reused() {
        use corrfade::ChannelStream;

        let mut fleet = StreamFleet::open(&[], 0).unwrap();
        let scenario = lookup("two-envelope-complex").unwrap();
        let a = fleet.subscribe(scenario, 41).unwrap();
        let b = fleet.subscribe(scenario, 42).unwrap();
        assert_eq!(fleet.subscriber_count(), 2);

        // The subscriber uses the exact requested seed: bit-identical to a
        // standalone realtime stream, block after block.
        let mut reference = scenario.build_realtime(42).unwrap();
        let mut expected = SampleBlock::empty();
        for _ in 0..3 {
            reference.next_block_into(&mut expected).unwrap();
            let matches = fleet
                .advance_subscriber_with(b, |block| block == &expected)
                .unwrap();
            assert!(matches, "subscriber block diverged from standalone stream");
        }

        // Unsubscribe frees the slot; stale keys are typed errors and
        // re-unsubscribing is an idempotent no-op.
        assert!(fleet.unsubscribe(b));
        assert!(!fleet.unsubscribe(b));
        assert_eq!(fleet.subscriber_count(), 1);
        assert!(matches!(
            fleet.advance_subscriber_with(b, |_| ()),
            Err(ParallelError::UnknownStream { index: 1 })
        ));

        // The freed slot is reused with a bumped generation, so the old key
        // stays dead even though the indices collide.
        let c = fleet.subscribe(scenario, 43).unwrap();
        assert!(matches!(
            fleet.advance_subscriber_with(b, |_| ()),
            Err(ParallelError::UnknownStream { .. })
        ));
        fleet.advance_subscriber_with(c, |_| ()).unwrap();
        fleet.advance_subscriber_with(a, |_| ()).unwrap();
        assert_eq!(fleet.subscriber_count(), 2);
    }

    #[test]
    fn skipped_subscribers_resume_bit_identically() {
        use corrfade::ChannelStream;

        // The resume contract end to end through the fleet: skip k blocks,
        // then advance — the produced block is the standalone stream's
        // (k+1)-th block, bit for bit.
        let mut fleet = StreamFleet::open(&[], 0).unwrap();
        let scenario = lookup("two-envelope-complex").unwrap();
        let key = fleet.subscribe(scenario, 77).unwrap();
        fleet.skip_subscriber_blocks(key, 3).unwrap();

        let mut reference = scenario.build_realtime(77).unwrap();
        let mut expected = SampleBlock::empty();
        for _ in 0..4 {
            reference.next_block_into(&mut expected).unwrap();
        }
        let matches = fleet
            .advance_subscriber_with(key, |block| block == &expected)
            .unwrap();
        assert!(matches, "resumed subscriber diverged from block 4");

        // Stale keys are typed errors on the skip path too.
        fleet.unsubscribe(key);
        assert!(matches!(
            fleet.skip_subscriber_blocks(key, 1),
            Err(ParallelError::UnknownStream { .. })
        ));
    }

    #[test]
    fn subscribers_are_independent_of_lockstep_advances() {
        use corrfade::ChannelStream;

        // A lockstep advance of the fixed streams must not move subscriber
        // streams, and vice versa.
        let mut fleet = StreamFleet::open(&["fig4a-spectral"], 5).unwrap();
        let scenario = lookup("two-envelope-complex").unwrap();
        let key = fleet.subscribe(scenario, 9).unwrap();
        fleet.advance().unwrap();
        fleet.advance().unwrap();

        let mut reference = scenario.build_realtime(9).unwrap();
        let mut expected = SampleBlock::empty();
        reference.next_block_into(&mut expected).unwrap();
        let first_matches = fleet
            .advance_subscriber_with(key, |block| block == &expected)
            .unwrap();
        assert!(
            first_matches,
            "lockstep advances must not consume subscriber RNG state"
        );
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
