//! Fault-tolerant client machinery: retrying connects and self-resuming
//! streams.
//!
//! [`RetryPolicy`] is the one retry/backoff knob set of the crate —
//! exponential backoff with jitter (deterministic when seeded, so tests
//! can pin schedules) and an attempt budget that turns into a typed
//! [`ServeError::RetriesExhausted`] give-up. One retry loop runs under it:
//! [`Client::connect_with_retry`] retries every failed connect, and
//! [`ResumingStream`] survives mid-stream faults with it: on a read
//! timeout, EOF, reset, or a transient server refusal (`BUSY`,
//! `SERVER_SHUTDOWN`) — the faults [`is_resumable`] accepts — it reconnects
//! and sends a **v2 resume request** at its current block cursor, so the
//! delivered sample sequence is bit-identical to an uninterrupted stream —
//! no block replayed, none skipped. The chaos test suite drives both
//! through deterministic fault injection to pin that guarantee.

use std::time::Duration;

use corrfade::SampleBlock;

use crate::client::{Client, StreamHeader};
use crate::error::ServeError;
use crate::net::{is_timeout, ServeAddr};
use crate::protocol::code;

/// Exponential backoff with jitter plus an attempt budget.
///
/// Attempt `k` (zero-based) sleeps a uniformly jittered duration in
/// `[base/2, base]` where `base = min(initial_backoff · 2^k, max_backoff)`
/// — jitter decorrelates clients that all lost the same server, so the
/// reconnect stampede spreads out instead of arriving in lockstep.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts before giving up with [`ServeError::RetriesExhausted`].
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub initial_backoff: Duration,
    /// Backoff growth cap.
    pub max_backoff: Duration,
    /// Connect/read/write timeout applied to every attempt's socket.
    pub io_timeout: Duration,
    /// Seed of the jitter PRNG. `None` (the default) seeds from process
    /// entropy; tests pin a seed for reproducible schedules.
    pub jitter_seed: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            io_timeout: Duration::from_secs(30),
            jitter_seed: None,
        }
    }
}

impl RetryPolicy {
    /// A policy sized for a wall-clock budget: retries with the default
    /// backoff shape for roughly `budget` before giving up (what loadgen
    /// uses to translate its `--timeout-secs` into an attempt count).
    #[must_use]
    pub fn within(budget: Duration) -> Self {
        let policy = Self {
            io_timeout: budget,
            ..Self::default()
        };
        // Steady-state sleep is ~3/4 of max_backoff per attempt.
        let steady = policy.max_backoff.as_millis().max(1) * 3 / 4;
        Self {
            max_attempts: u32::try_from((budget.as_millis() / steady).max(10)).unwrap_or(u32::MAX),
            ..policy
        }
    }
}

/// SplitMix64 step — the crate-local PRNG behind backoff jitter and the
/// chaos layer's fault schedules (no external deps; the statistical
/// quality bar for either is low).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One retry loop's backoff state.
struct Backoff {
    base: Duration,
    max: Duration,
    rng: u64,
}

impl Backoff {
    fn new(policy: &RetryPolicy) -> Self {
        let rng = policy.jitter_seed.unwrap_or_else(|| {
            use std::hash::{BuildHasher, Hasher};
            // Randomly seeded per process by std — entropy without a
            // dependency on an RNG crate.
            std::collections::hash_map::RandomState::new()
                .build_hasher()
                .finish()
        });
        Self {
            base: policy.initial_backoff,
            max: policy.max_backoff,
            rng,
        }
    }

    /// The next jittered backoff duration (advances the schedule).
    fn next_delay(&mut self) -> Duration {
        let base = self.base;
        self.base = (self.base * 2).min(self.max);
        let nanos = u64::try_from(base.as_nanos()).unwrap_or(u64::MAX);
        let jittered = nanos / 2 + splitmix64(&mut self.rng) % (nanos / 2 + 1);
        Duration::from_nanos(jittered)
    }
}

/// The one retry loop of the crate: runs `attempt` until it succeeds,
/// sleeping a jittered backoff between tries. An error `retryable` rejects
/// surfaces at once; once `policy.max_attempts` attempts have failed, the
/// last error comes back wrapped in [`ServeError::RetriesExhausted`].
pub(crate) fn retry<T>(
    policy: &RetryPolicy,
    retryable: impl Fn(&ServeError) -> bool,
    mut attempt: impl FnMut() -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    let mut backoff = Backoff::new(policy);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match attempt() {
            Ok(value) => return Ok(value),
            Err(e) if !retryable(&e) => return Err(e),
            Err(e) if attempts >= policy.max_attempts => {
                return Err(ServeError::RetriesExhausted {
                    attempts,
                    last: Box::new(e),
                });
            }
            Err(_) => std::thread::sleep(backoff.next_delay()),
        }
    }
}

/// Whether `error` is a transient fault worth a reconnect-and-resume:
/// socket timeouts (`WouldBlock` and `TimedOut`, which are the
/// same platform-dependent condition), resets, EOFs, and the server's two
/// transient refusals (`BUSY` admission control, `SERVER_SHUTDOWN`).
/// Protocol violations and typed request rejections are real errors and
/// surface immediately.
#[must_use]
pub fn is_resumable(error: &ServeError) -> bool {
    match error {
        ServeError::Io(e) => {
            is_timeout(e)
                || matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::ConnectionRefused
                        | std::io::ErrorKind::BrokenPipe
                        | std::io::ErrorKind::UnexpectedEof
                )
        }
        ServeError::ConnectionClosed { .. } => true,
        ServeError::Server { code, .. } => *code == code::BUSY || *code == code::SERVER_SHUTDOWN,
        _ => false,
    }
}

/// A [`Client`] stream that transparently survives connection loss.
///
/// Wraps the subscribe-and-stream state machine with a block cursor: every
/// delivered block advances the cursor, and any resumable fault (see
/// [`is_resumable`]) tears the connection down, reconnects with the
/// policy's backoff, and re-subscribes **at the cursor** via a v2 resume
/// request. The server fast-forwards a fresh stream to that position, so
/// the caller observes one gapless, duplicate-free, bit-exact block
/// sequence regardless of how many times the transport failed underneath.
///
/// When the retry budget runs out mid-stream, the stream yields
/// [`ServeError::RetriesExhausted`] carrying the final attempt's error.
#[derive(Debug)]
pub struct ResumingStream {
    addr: ServeAddr,
    policy: RetryPolicy,
    scenario: String,
    seed: u64,
    /// Total blocks the caller asked for.
    blocks: u32,
    /// Absolute index of the next expected block (the stream starts at 0).
    cursor: u64,
    header: Option<StreamHeader>,
    client: Option<Client>,
    reconnects: u32,
    done: bool,
}

impl ResumingStream {
    /// Connects (with retry) and subscribes a fresh stream.
    ///
    /// # Errors
    /// [`ServeError::RetriesExhausted`] when the policy's budget runs out,
    /// or any non-transient subscribe error (unknown scenario, …).
    pub fn open(
        addr: &ServeAddr,
        policy: RetryPolicy,
        scenario: &str,
        seed: u64,
        blocks: u32,
    ) -> Result<Self, ServeError> {
        let mut stream = Self {
            addr: addr.clone(),
            policy,
            scenario: scenario.to_string(),
            seed,
            blocks,
            cursor: 0,
            header: None,
            client: None,
            reconnects: 0,
            done: false,
        };
        stream.resubscribe()?;
        Ok(stream)
    }

    /// The stream header from the first successful subscribe.
    #[must_use]
    pub fn header(&self) -> Option<StreamHeader> {
        self.header
    }

    /// Absolute index of the next block this stream expects.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Reconnect-and-resume cycles performed so far.
    #[must_use]
    pub fn reconnects(&self) -> u32 {
        self.reconnects
    }

    /// Blocks not yet delivered.
    fn remaining(&self) -> u32 {
        let delivered = u32::try_from(self.cursor).unwrap_or(u32::MAX);
        self.blocks.saturating_sub(delivered)
    }

    /// Connects and subscribes at the current cursor, retrying transient
    /// failures within the policy's budget.
    fn resubscribe(&mut self) -> Result<(), ServeError> {
        let (client, header) = retry(&self.policy, is_resumable, || {
            let mut client = Client::connect_timeout(&self.addr, self.policy.io_timeout)?;
            let header =
                client.subscribe_at(&self.scenario, self.seed, self.remaining(), self.cursor)?;
            Ok((client, header))
        })?;
        self.header.get_or_insert(header);
        self.client = Some(client);
        Ok(())
    }

    /// Reads the next block, reconnecting and resuming across any number
    /// of transient faults. Returns `Ok(Some(absolute_index))` per block
    /// and `Ok(None)` once all requested blocks arrived.
    ///
    /// A faulted frame never reaches `block`: the client buffers a full
    /// frame before decoding, so an interrupted read leaves `block` at its
    /// previous contents and the retry delivers the same index exactly
    /// once.
    ///
    /// # Errors
    /// [`ServeError::RetriesExhausted`] when a reconnect budget runs out;
    /// any non-transient protocol/server error immediately.
    pub fn next_block_into(&mut self, block: &mut SampleBlock) -> Result<Option<u32>, ServeError> {
        if self.done {
            return Ok(None);
        }
        loop {
            if self.client.is_none() {
                self.reconnects += 1;
                self.resubscribe()?;
            }
            let client = self.client.as_mut().expect("subscribed above");
            match client.next_block_into(block) {
                Ok(Some(index)) => {
                    self.cursor += 1;
                    return Ok(Some(index));
                }
                Ok(None) => {
                    if self.remaining() == 0 {
                        self.done = true;
                        self.client = None;
                        return Ok(None);
                    }
                    // End frame before every block arrived: the server cut
                    // the stream short (drain). Resume for the rest.
                    self.client = None;
                }
                Err(e) if is_resumable(&e) => {
                    self.client = None;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_backoff_schedules_are_deterministic_and_jittered() {
        let policy = RetryPolicy {
            jitter_seed: Some(7),
            ..RetryPolicy::default()
        };
        let delays = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(&RetryPolicy {
                jitter_seed: Some(seed),
                ..policy.clone()
            });
            (0..8).map(|_| b.next_delay()).collect()
        };
        assert_eq!(delays(7), delays(7), "same seed, same schedule");
        assert_ne!(delays(7), delays(8), "different seed, different jitter");
        for (k, d) in delays(7).iter().enumerate() {
            let base = (policy.initial_backoff * 2u32.pow(u32::try_from(k).unwrap().min(10)))
                .min(policy.max_backoff);
            assert!(
                *d >= base / 2 && *d <= base,
                "attempt {k}: {d:?} outside [{:?}, {base:?}]",
                base / 2
            );
        }
    }

    #[test]
    fn within_budget_scales_the_attempt_count() {
        let short = RetryPolicy::within(Duration::from_millis(500));
        let long = RetryPolicy::within(Duration::from_secs(60));
        assert!(long.max_attempts > short.max_attempts);
        assert!(short.max_attempts >= 10);
    }

    #[test]
    fn resumable_classification_matches_the_contract() {
        use std::io::{Error, ErrorKind};
        for kind in [
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionRefused,
            ErrorKind::BrokenPipe,
            ErrorKind::UnexpectedEof,
        ] {
            assert!(
                is_resumable(&ServeError::Io(Error::new(kind, "x"))),
                "{kind:?} should be resumable"
            );
        }
        assert!(is_resumable(&ServeError::ConnectionClosed { during: "x" }));
        for code in [code::BUSY, code::SERVER_SHUTDOWN] {
            assert!(is_resumable(&ServeError::Server {
                code,
                message: String::new()
            }));
        }
        assert!(!is_resumable(&ServeError::Server {
            code: code::UNKNOWN_SCENARIO,
            message: String::new()
        }));
        assert!(!is_resumable(&ServeError::Protocol(
            crate::protocol::ProtocolError::ServerShutdown
        )));
    }
}
