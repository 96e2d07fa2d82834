//! # corrfade-serve — channel-as-a-service over TCP and Unix sockets
//!
//! The serving layer of the corrfade workspace: a std-only socket server
//! that streams correlated-Rayleigh Doppler blocks — the real-time
//! generator of Tran, Wysocki, Seberry & Mertins — to remote consumers
//! over a small versioned binary protocol.
//!
//! * The wire format ([`Request`], [`Frame`], [`MAGIC`], [`VERSION_V2`] and
//!   the other protocol constants): one request (magic, version, registry
//!   scenario name, seed, block count), then length-prefixed response
//!   frames (header / block / error / end). Each message has one encoder
//!   and one decoder that the server, the client and the tests share; a
//!   decoded [`Frame`] borrows its payload from the read buffer. All
//!   decoders are total: hostile bytes produce typed [`ProtocolError`]s,
//!   never panics.
//! * [`Server`]: thread-per-connection, each connection
//!   owning its own real-time generator; one pooled block and one pooled
//!   wire buffer per connection give a zero-allocation steady-state send
//!   path. Graceful shutdown joins every thread.
//! * [`Client`]: blocking consumer that decodes frames
//!   straight into a caller-owned [`SampleBlock`](corrfade::SampleBlock).
//!   It checks a scenario name against the protocol's length rule before
//!   sending the request.
//! * Fault tolerance: [`RetryPolicy`] (jittered exponential
//!   backoff) behind [`Client::connect_with_retry`], and
//!   [`ResumingStream`], which reconnects and **resumes at its block
//!   cursor** (wire v2) across timeouts, EOFs and resets, delivering a
//!   gapless bit-exact stream.
//! * Deterministic fault injection: [`ChaosProxy`] forwards a
//!   connection while injecting seeded partial writes, stalls, truncations
//!   and disconnects, so the chaos test suite can prove resume
//!   bit-exactness under fire.
//! * [`ServeAddr`] and [`Conn`] — the TCP/Unix-socket transport
//!   abstraction.
//!
//! The client API — [`Client`], [`ResumingStream`], [`RetryPolicy`],
//! [`ServeError`], [`ProtocolError`] and the protocol constants — is
//! product surface for clients outside this repository: it stays public
//! even where no code in this workspace calls an item.
//!
//! Delivered samples are **bit-identical** (`f64::to_bits`) to what the
//! same `Scenario::build_realtime(seed)` stream produces in-process; the
//! workspace `wire_equivalence` test suite pins this guarantee.
//!
//! ## Quick start
//!
//! ```
//! use corrfade_serve::{Client, ServeAddr, Server, ServerConfig};
//!
//! // Bind an ephemeral TCP port (Unix sockets: `ServeAddr::Unix(path)`).
//! let server = Server::bind(
//!     ServeAddr::Tcp("127.0.0.1:0".parse().unwrap()),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let header = client.subscribe("fig4a-spectral", 42, 3).unwrap();
//! assert_eq!((header.envelopes, header.samples), (3, 4096));
//!
//! let mut block = corrfade::SampleBlock::empty();
//! while let Some(index) = client.next_block_into(&mut block).unwrap() {
//!     assert!(index < 3);
//!     assert_eq!(block.envelopes(), 3);
//! }
//! server.shutdown().unwrap();
//! ```

mod chaos;
mod client;
mod error;
mod net;
mod protocol;
mod retry;
mod server;

pub use chaos::{ChaosProxy, ChaosSchedule};
pub use client::{Client, StreamHeader};
pub use error::ServeError;
pub use net::{Conn, ServeAddr};
pub use protocol::{
    code, decode_frame_payload, decode_request, decode_request_header, encode_frame,
    encode_request, split_frame, tag, Frame, ProtocolError, Request, RequestHead, FLAG_F32_STREAM,
    MAGIC, MAX_FRAME_LEN, MAX_NAME_LEN, REQUEST_CURSOR_LEN, REQUEST_HEADER_LEN, VERSION_V1,
    VERSION_V2,
};
pub use retry::{is_resumable, ResumingStream, RetryPolicy};
pub use server::{Server, ServerConfig, ServerStats};
