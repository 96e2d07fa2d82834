//! The channel-as-a-service server: accepts TCP/Unix-socket connections,
//! resolves each request against the scenario registry, and streams
//! length-prefixed [`SampleBlock`]-framed Doppler blocks.
//!
//! ## Threading model
//!
//! One accept thread plus one thread per live connection. Every connection
//! builds its own `(scenario, seed)` real-time generator through the
//! process-wide decomposition cache, so connections share no mutable state
//! and generate concurrently. It owns **one pooled block** and one pooled
//! wire buffer — after the first block, a connection's steady state
//! performs **zero heap allocation** (generate into the pooled block,
//! encode into the warm buffer, `write_all` to the socket; the workspace
//! allocation-regression test measures this through a real socket).
//!
//! ## Failure behavior
//!
//! * Malformed requests, unknown scenarios (with a did-you-mean
//!   suggestion), version mismatches and build failures are answered with a
//!   typed **error frame** before the connection closes — never a silent
//!   drop.
//! * A client that disappears mid-stream only tears down its own
//!   stream; every other connection is untouched.
//! * When [`ServerConfig::max_sessions`] is set, a connection beyond the
//!   cap is answered with a typed `BUSY` error frame (admission control)
//!   instead of queueing behind the accept backlog; the client's retry
//!   machinery treats it as transient and backs off.
//! * A v2 **resume** request (non-zero block cursor) fast-forwards a fresh
//!   stream past the cursor — replaying only the RNG draws, skipping
//!   IDFT/coloring work — so the resumed stream is bit-identical to the
//!   uninterrupted one from that cursor.
//! * [`Server::shutdown`] stops accepting, then **drains**: in-flight
//!   connections get [`ServerConfig::drain_timeout`] to finish their
//!   current block and send a `SERVER_SHUTDOWN` error frame before any
//!   still-blocked socket is forcibly interrupted; all threads are joined
//!   and the Unix socket file is removed.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use corrfade::{ChannelStream, RealtimeGenerator, SampleBlock};
use corrfade_scenarios::{lookup, ScenarioError};

use crate::error::ServeError;
use crate::net::{Conn, Listener, ServeAddr};
use crate::protocol::{
    decode_request_cursor, decode_request_header, decode_request_name, encode_block_frame,
    encode_end_frame, encode_error_frame, encode_header_frame, ProtocolError, Request,
    REQUEST_HEADER_LEN,
};

/// Number of distinct wire error codes (plus the unused slot 0) tracked by
/// the per-code counters: codes `1..=12` index directly into the array.
pub const ERROR_CODE_SLOTS: usize = 13;

/// Server tuning knobs. `Default` suits tests and local use.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Longest the server waits for a client's request bytes before giving
    /// the connection up — the per-connection idle deadline: a client that
    /// connects and never completes a request is dropped after this long.
    pub read_timeout: Duration,
    /// Longest one frame write may block on a slow consumer.
    pub write_timeout: Duration,
    /// Admission control: maximum concurrent sessions. A connection beyond
    /// the cap is answered with a typed `BUSY` error frame and closed.
    /// `None` (the default) accepts everything.
    pub max_sessions: Option<u64>,
    /// How long [`Server::shutdown`] waits for in-flight connections to
    /// finish their current block (and send the `SERVER_SHUTDOWN` frame)
    /// before forcibly interrupting their sockets.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_sessions: None,
            drain_timeout: Duration::from_secs(1),
        }
    }
}

/// Monotonic counters the lifecycle tests and operators read; all relaxed,
/// all cheap.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    active: AtomicU64,
    subscribers: AtomicU64,
    blocks_sent: AtomicU64,
    error_frames: AtomicU64,
    resumed_sessions: AtomicU64,
    /// Error frames broken down by wire code (index = code, slot 0 unused).
    errors_by_code: [AtomicU64; ERROR_CODE_SLOTS],
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted since bind.
    pub accepted: u64,
    /// Connections currently being served.
    pub active: u64,
    /// Block frames written since bind.
    pub blocks_sent: u64,
    /// Error frames written since bind.
    pub error_frames: u64,
    /// Sessions that resumed at a non-zero v2 cursor since bind.
    pub resumed_sessions: u64,
    /// Error frames broken down by wire code: `errors_by_code[code]` for
    /// codes `1..=12` (slot 0 is unused); see [`ServerStats::error_count`].
    pub errors_by_code: [u64; ERROR_CODE_SLOTS],
    /// Live streams (one per connection past request validation).
    pub subscribers: u64,
}

impl ServerStats {
    /// Error frames sent under wire code `code` (see
    /// [`crate::protocol::code`]); zero for out-of-range codes.
    #[must_use]
    pub fn error_count(&self, code: u16) -> u64 {
        self.errors_by_code
            .get(usize::from(code))
            .copied()
            .unwrap_or(0)
    }
}

/// State shared between the accept thread, the connection threads and the
/// owning [`Server`] handle.
struct Shared {
    config: ServerConfig,
    shutting_down: AtomicBool,
    counters: Counters,
}

/// Join handle + socket handle of one spawned connection thread; the socket
/// handle lets shutdown interrupt a blocked read/write.
struct ConnEntry {
    join: JoinHandle<()>,
    socket: Option<Conn>,
}

/// A running channel-as-a-service server. See the [module docs](self).
///
/// Dropping the server performs a full [`Server::shutdown`].
///
/// # Examples
///
/// ```
/// use corrfade_serve::{Client, ServeAddr, Server, ServerConfig};
///
/// let server = Server::bind(
///     ServeAddr::Tcp("127.0.0.1:0".parse().unwrap()),
///     ServerConfig::default(),
/// )
/// .unwrap();
///
/// let mut client = Client::connect(server.local_addr()).unwrap();
/// let header = client.subscribe("two-envelope-complex", 7, 2).unwrap();
/// assert_eq!(header.envelopes, 2);
///
/// let mut block = corrfade::SampleBlock::empty();
/// let mut received = 0;
/// while client.next_block_into(&mut block).unwrap().is_some() {
///     received += 1;
/// }
/// assert_eq!(received, 2);
/// server.shutdown().unwrap();
/// ```
pub struct Server {
    shared: Arc<Shared>,
    connections: Arc<Mutex<Vec<ConnEntry>>>,
    accept: Option<JoinHandle<()>>,
    local_addr: ServeAddr,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` and starts accepting connections on a background
    /// thread. TCP port `0` picks an ephemeral port —
    /// [`Server::local_addr`] reports the bound one.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the address cannot be bound.
    pub fn bind(addr: ServeAddr, config: ServerConfig) -> Result<Self, ServeError> {
        let (listener, local_addr) = Listener::bind(&addr)?;
        let shared = Arc::new(Shared {
            config,
            shutting_down: AtomicBool::new(false),
            counters: Counters::default(),
        });
        let connections = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("corrfade-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &connections))
                .map_err(ServeError::Io)?
        };
        Ok(Self {
            shared,
            connections,
            accept: Some(accept),
            local_addr,
        })
    }

    /// The address the server actually listens on (TCP port resolved).
    #[must_use]
    pub fn local_addr(&self) -> &ServeAddr {
        &self.local_addr
    }

    /// A snapshot of the serving counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        let mut errors_by_code = [0u64; ERROR_CODE_SLOTS];
        for (slot, counter) in errors_by_code.iter_mut().zip(&c.errors_by_code) {
            *slot = counter.load(Ordering::Relaxed);
        }
        ServerStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            active: c.active.load(Ordering::Relaxed),
            blocks_sent: c.blocks_sent.load(Ordering::Relaxed),
            error_frames: c.error_frames.load(Ordering::Relaxed),
            resumed_sessions: c.resumed_sessions.load(Ordering::Relaxed),
            errors_by_code,
            subscribers: c.subscribers.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, interrupts and joins every connection thread, joins
    /// the accept thread, and removes the Unix socket file. Idempotent with
    /// [`Drop`] (which performs the same teardown).
    ///
    /// # Errors
    /// [`ServeError::Io`] when the accept thread panicked; the connections
    /// are drained and joined first all the same.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.shutdown_in_place()
    }

    fn shutdown_in_place(&mut self) -> Result<(), ServeError> {
        let Some(accept) = self.accept.take() else {
            return Ok(());
        };
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // The accept thread sits in a blocking accept(); a throwaway
        // connection wakes it so it can observe the flag. Failure is fine
        // when it already exited (e.g. listener error path).
        let _ = Conn::connect(&self.local_addr, Duration::from_secs(1));
        // A panicked accept thread accepts nothing more; still drain the
        // connections it started before reporting it.
        let accepted = accept.join();

        // Drain: connection threads observe the shutdown flag at their next
        // block boundary, finish the block in flight, send the
        // SERVER_SHUTDOWN frame and exit on their own. Only sockets still
        // blocked after the drain window are forcibly interrupted.
        let mut entries = self
            .connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        while !entries.iter().all(|e| e.join.is_finished()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        for entry in entries.iter() {
            if !entry.join.is_finished() {
                if let Some(socket) = &entry.socket {
                    socket.shutdown_both();
                }
            }
        }
        for entry in entries.drain(..) {
            let _ = entry.join.join();
        }
        drop(entries);

        #[cfg(unix)]
        if let ServeAddr::Unix(path) = &self.local_addr {
            let _ = std::fs::remove_file(path);
        }
        accepted.map_err(|_| ServeError::Io(io::Error::other("accept thread panicked")))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown_in_place();
    }
}

/// Accepts until shutdown; each connection gets its own thread and a
/// registry entry so shutdown can interrupt and join it.
fn accept_loop(listener: &Listener, shared: &Arc<Shared>, connections: &Mutex<Vec<ConnEntry>>) {
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(_) if shared.shutting_down.load(Ordering::SeqCst) => return,
            Err(_) => {
                // Transient accept failure (EMFILE, aborted handshake…):
                // back off briefly instead of spinning.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            // The shutdown wake-up connection (or a late real client):
            // close it and stop accepting.
            return;
        }
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        let socket = conn.try_clone().ok();
        let handle = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name("corrfade-serve-conn".into())
                .spawn(move || serve_connection(&shared, conn))
        };
        let Ok(join) = handle else {
            // Thread spawn failed (resource exhaustion): drop the
            // connection; the client sees a clean close.
            continue;
        };
        let mut entries = connections.lock().unwrap_or_else(PoisonError::into_inner);
        // Reap finished threads so the registry tracks the concurrency
        // high-water mark, not the all-time connection count.
        entries.retain(|e| !e.join.is_finished());
        entries.push(ConnEntry { join, socket });
    }
}

/// RAII guard that holds one gauge counter (`active`, `subscribers`)
/// raised by one for its lifetime, on every exit path.
struct GaugeGuard<'a>(&'a AtomicU64);

impl<'a> GaugeGuard<'a> {
    fn new(gauge: &'a AtomicU64) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        Self(gauge)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Reads the fixed-size request header, the v2 cursor when present, and
/// the scenario name.
fn read_request(conn: &mut Conn, wire: &mut Vec<u8>) -> Result<Request, ServeError> {
    let mut header = [0u8; REQUEST_HEADER_LEN];
    conn.read_exact(&mut header)?;
    let head = decode_request_header(&header)?;
    wire.clear();
    wire.resize(head.trailing_len(), 0);
    conn.read_exact(wire)?;
    let cursor = if head.cursor_len() == 0 {
        0
    } else {
        decode_request_cursor(wire, head.blocks)?
    };
    let scenario = decode_request_name(&wire[head.cursor_len()..])?.to_string();
    Ok(Request {
        scenario,
        seed: head.seed,
        blocks: head.blocks,
        cursor,
    })
}

/// Sends `error` as a typed error frame, counting it; write failures are
/// ignored (the peer may already be gone). The connection closes after an
/// error frame, so this also performs the graceful close sequence: without
/// it, unread request bytes in the TCP receive queue would turn the close
/// into a reset that can discard the error frame before the client reads
/// it. Write side first (the client sees the frame then end-of-stream),
/// then a bounded drain of whatever the client had in flight.
fn send_error_frame(conn: &mut Conn, wire: &mut Vec<u8>, shared: &Shared, error: &ProtocolError) {
    shared.counters.error_frames.fetch_add(1, Ordering::Relaxed);
    if let Some(counter) = shared
        .counters
        .errors_by_code
        .get(usize::from(error.code()))
    {
        counter.fetch_add(1, Ordering::Relaxed);
    }
    wire.clear();
    encode_error_frame(wire, error);
    let _ = conn.write_all(wire);
    conn.shutdown_write();
    let _ = conn.set_timeouts(Some(Duration::from_millis(250)), None);
    let mut scratch = [0u8; 256];
    // Bounded (16 KiB / 250 ms per read): a peer cannot pin the thread.
    for _ in 0..64 {
        match conn.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Drives one connection from request to end frame, then closes the
/// socket for real: the shutdown registry holds a clone of it, so merely
/// dropping our handle would leave the peer hanging without an
/// end-of-stream until the registry entry is reaped.
fn serve_connection(shared: &Shared, mut conn: Conn) {
    serve_session(shared, &mut conn);
    conn.shutdown_both();
}

/// One session from request to end frame. Every exit path either sent an
/// error frame or finished the stream.
fn serve_session(shared: &Shared, conn: &mut Conn) {
    let _active = GaugeGuard::new(&shared.counters.active);
    if conn
        .set_timeouts(
            Some(shared.config.read_timeout),
            Some(shared.config.write_timeout),
        )
        .is_err()
    {
        return;
    }

    // The one wire buffer of this connection: request name, then every
    // frame it ever sends — steady-state writes reuse its capacity.
    let mut wire: Vec<u8> = Vec::new();

    // Admission control: the guard above already counted this connection,
    // so the gauge exceeding the cap means we are the one over the line.
    // Answered before reading the request — the refusal must not wait on a
    // slow sender (the error-frame close sequence drains what it did send).
    if let Some(max) = shared.config.max_sessions {
        let active = shared.counters.active.load(Ordering::Relaxed);
        if active > max {
            send_error_frame(
                conn,
                &mut wire,
                shared,
                &ProtocolError::Busy { active, max },
            );
            return;
        }
    }

    let request = match read_request(conn, &mut wire) {
        Ok(request) => request,
        Err(ServeError::Protocol(e)) => {
            send_error_frame(conn, &mut wire, shared, &e);
            return;
        }
        // Idle deadline: the client sat on the connection without
        // completing a request within `read_timeout`. Whether the timed-out
        // read surfaces as WouldBlock or TimedOut is platform-dependent, so
        // the check goes through the one `is_timeout` predicate.
        Err(ServeError::Io(e)) if crate::net::is_timeout(&e) => return,
        // Closed or failed before a full request: nothing to answer.
        Err(_) => return,
    };

    let scenario = match lookup(&request.scenario) {
        Ok(scenario) => scenario,
        Err(ScenarioError::UnknownScenario { name, suggestion }) => {
            let e = ProtocolError::UnknownScenario {
                name,
                suggestion: suggestion.map(str::to_string),
            };
            send_error_frame(conn, &mut wire, shared, &e);
            return;
        }
        Err(other) => {
            let e = ProtocolError::ScenarioRejected {
                message: other.to_string(),
            };
            send_error_frame(conn, &mut wire, shared, &e);
            return;
        }
    };

    // The exact requested seed, no derivation: the blocks are bit-identical
    // to `scenario.build_realtime(seed)` run standalone.
    let mut stream = match scenario.build_realtime_cached(request.seed) {
        Ok(stream) => stream,
        Err(e) => {
            let e = ProtocolError::ScenarioRejected {
                message: e.to_string(),
            };
            send_error_frame(conn, &mut wire, shared, &e);
            return;
        }
    };
    let _subscribed = GaugeGuard::new(&shared.counters.subscribers);

    // v2 resume: fast-forward the fresh stream past the cursor by replaying
    // only its RNG draws (no IDFT/coloring work), so the blocks streamed
    // below are bit-identical to `cursor..` of the uninterrupted stream.
    if request.cursor > 0 {
        stream.skip_blocks(request.cursor);
        shared
            .counters
            .resumed_sessions
            .fetch_add(1, Ordering::Relaxed);
    }

    stream_blocks(shared, conn, &mut wire, &mut stream, scenario, &request);
}

/// Header + blocks + end.
fn stream_blocks(
    shared: &Shared,
    conn: &mut Conn,
    wire: &mut Vec<u8>,
    stream: &mut RealtimeGenerator,
    scenario: &corrfade_scenarios::Scenario,
    request: &Request,
) {
    let envelopes = u32::try_from(scenario.envelopes).unwrap_or(u32::MAX);
    let samples = u32::try_from(scenario.doppler.idft_size).unwrap_or(u32::MAX);
    wire.clear();
    encode_header_frame(wire, envelopes, samples, request.blocks);
    if conn.write_all(wire).is_err() {
        return;
    }

    let mut block = SampleBlock::empty();
    let mut sent = 0u32;
    while sent < request.blocks {
        if shared.shutting_down.load(Ordering::Relaxed) {
            send_error_frame(conn, wire, shared, &ProtocolError::ServerShutdown);
            return;
        }
        // Wire block indices are absolute stream positions: a resumed
        // stream labels its frames `cursor..cursor + blocks`, so a client
        // stitching runs together can verify continuity. The decode-time
        // cursor validation guarantees this fits u32.
        let index = u32::try_from(request.cursor + u64::from(sent)).unwrap_or(u32::MAX);
        stream
            .next_block_into(&mut block)
            .expect("realtime generation is infallible after construction");
        wire.clear();
        encode_block_frame(wire, index, &block);
        if conn.write_all(wire).is_err() {
            // Client went away; its stream is dropped by the caller.
            return;
        }
        shared.counters.blocks_sent.fetch_add(1, Ordering::Relaxed);
        sent += 1;
    }

    wire.clear();
    encode_end_frame(wire, sent);
    let _ = conn.write_all(wire);
}
