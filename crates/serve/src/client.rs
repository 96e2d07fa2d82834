//! Blocking client for the `corrfade-serve` wire protocol.
//!
//! A [`Client`] drives one connection through the protocol's linear state
//! machine: connect → [`Client::subscribe`] (request + header frame) →
//! repeated [`Client::next_block_into`] until the end frame. Frame bytes
//! land in one reusable internal buffer and samples are decoded straight
//! into the caller's [`SampleBlock`], so a warm receive loop performs zero
//! heap allocation — the mirror image of the server's send path.

use std::io::{Read, Write};
use std::time::Duration;

use corrfade::SampleBlock;

use crate::error::ServeError;
use crate::net::{Conn, ServeAddr};
use crate::protocol::{
    decode_frame_payload, encode_request, frame_len, Frame, ProtocolError, Request,
};
use crate::retry::{retry, RetryPolicy};

/// Shape echo the server sends before the first block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHeader {
    /// Envelope count `N` of every block.
    pub envelopes: u32,
    /// Samples `M` per envelope per block.
    pub samples: u32,
    /// Number of block frames the server will stream.
    pub blocks: u32,
}

/// A blocking protocol client over TCP or a Unix-domain socket.
///
/// See the crate docs for a complete subscribe-and-stream example.
#[derive(Debug)]
pub struct Client {
    conn: Conn,
    /// Reusable frame buffer: every read lands here, capacity persists.
    frame: Vec<u8>,
    header: Option<StreamHeader>,
}

impl Client {
    /// Connects to a server with the default 30-second I/O timeout.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the connection cannot be established.
    pub fn connect(addr: &ServeAddr) -> Result<Self, ServeError> {
        Self::connect_timeout(addr, Duration::from_secs(30))
    }

    /// Connects with an explicit connect/read/write timeout.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the connection cannot be established.
    pub fn connect_timeout(addr: &ServeAddr, timeout: Duration) -> Result<Self, ServeError> {
        let conn = Conn::connect(addr, timeout)?;
        Ok(Self {
            conn,
            frame: Vec::new(),
            header: None,
        })
    }

    /// Connects with retries under `policy`: exponential backoff with
    /// jitter between attempts, giving up with a typed
    /// [`ServeError::RetriesExhausted`] once the attempt budget is spent.
    /// What a client racing a server restart — or a loadgen racing the
    /// accept backlog — uses instead of hand-rolling a retry loop.
    ///
    /// # Errors
    /// [`ServeError::RetriesExhausted`] wrapping the final attempt's error.
    pub fn connect_with_retry(addr: &ServeAddr, policy: &RetryPolicy) -> Result<Self, ServeError> {
        retry(
            policy,
            |_| true,
            || Self::connect_timeout(addr, policy.io_timeout),
        )
    }

    /// Sends the request and reads the stream header. Must be called once,
    /// before the first [`Client::next_block_into`].
    ///
    /// # Errors
    /// [`ServeError::Server`] carries the server's typed error frame
    /// (unknown scenario with a did-you-mean suggestion, version mismatch,
    /// …); [`ServeError::Io`] / [`ServeError::Protocol`] cover transport
    /// and framing failures.
    pub fn subscribe(
        &mut self,
        scenario: &str,
        seed: u64,
        blocks: u32,
    ) -> Result<StreamHeader, ServeError> {
        self.subscribe_at(scenario, seed, blocks, 0)
    }

    /// [`Client::subscribe`] starting at a block cursor: a non-zero
    /// `cursor` sends a **v2 resume request**, making the server
    /// fast-forward the `(scenario, seed)` stream so the delivered blocks
    /// are `cursor..cursor + blocks` of the uninterrupted stream,
    /// bit-identically. Cursor `0` is a plain v1 subscribe.
    ///
    /// # Errors
    /// As [`Client::subscribe`]; additionally the server rejects cursors
    /// whose span would overflow the `u32` wire block-index space. A
    /// scenario name outside `1..=`[`MAX_NAME_LEN`](crate::MAX_NAME_LEN)
    /// bytes is [`ServeError::Protocol`] before anything is sent.
    pub fn subscribe_at(
        &mut self,
        scenario: &str,
        seed: u64,
        blocks: u32,
        cursor: u64,
    ) -> Result<StreamHeader, ServeError> {
        let request = Request {
            scenario: scenario.to_string(),
            seed,
            blocks,
            cursor,
        };
        self.frame.clear();
        encode_request(&request, &mut self.frame)?;
        self.conn.write_all(&self.frame)?;

        match read_frame(&mut self.conn, &mut self.frame, "stream header")? {
            Frame::Header {
                envelopes,
                samples,
                blocks,
            } => {
                let header = StreamHeader {
                    envelopes,
                    samples,
                    blocks,
                };
                self.header = Some(header);
                Ok(header)
            }
            _ => Err(ServeError::UnexpectedFrame {
                expected: "header frame",
                got: self.frame[0],
            }),
        }
    }

    /// The stream header, once [`Client::subscribe`] has succeeded.
    #[must_use]
    pub fn header(&self) -> Option<StreamHeader> {
        self.header
    }

    /// Reads the next frame and decodes it into `block`.
    ///
    /// Returns `Ok(Some(index))` for a block frame (with `block` holding
    /// its samples bit-exactly), `Ok(None)` on the clean end-of-stream
    /// frame. After warm-up, a block-frame read performs zero heap
    /// allocation: the frame buffer and `block` both reuse their capacity.
    ///
    /// # Errors
    /// [`ServeError::Server`] for a mid-stream error frame (e.g. server
    /// shutdown), [`ServeError::Protocol`] for malformed bytes,
    /// [`ServeError::Io`] for transport failures, and
    /// [`ServeError::UnexpectedFrame`] if the server violates frame order.
    pub fn next_block_into(&mut self, block: &mut SampleBlock) -> Result<Option<u32>, ServeError> {
        let Some(header) = self.header else {
            return Err(ServeError::UnexpectedFrame {
                expected: "subscribe() before next_block_into()",
                got: 0,
            });
        };
        match read_frame(&mut self.conn, &mut self.frame, "block stream")? {
            Frame::Block { index, payload } => {
                block
                    .decode_le_from(header.envelopes as usize, header.samples as usize, payload)
                    .map_err(|e| {
                        ServeError::Protocol(ProtocolError::FrameSizeMismatch {
                            what: "block",
                            expected: e.expected,
                            got: e.got,
                        })
                    })?;
                Ok(Some(index))
            }
            Frame::End { .. } => Ok(None),
            _ => Err(ServeError::UnexpectedFrame {
                expected: "block or end frame",
                got: self.frame[0],
            }),
        }
    }
}

/// Reads one length-prefixed frame into `frame` (reusing its capacity) and
/// decodes it; an error frame becomes [`ServeError::Server`].
fn read_frame<'a>(
    conn: &mut Conn,
    frame: &'a mut Vec<u8>,
    during: &'static str,
) -> Result<Frame<'a>, ServeError> {
    let mut prefix = [0u8; 4];
    read_exact_or_closed(conn, &mut prefix, during)?;
    let len = frame_len(prefix)?;
    frame.clear();
    frame.resize(len, 0);
    read_exact_or_closed(conn, frame, during)?;
    match decode_frame_payload(frame)? {
        Frame::Error { code, message } => Err(ServeError::Server {
            code,
            message: message.to_string(),
        }),
        decoded => Ok(decoded),
    }
}

/// `read_exact` that maps a clean EOF to [`ServeError::ConnectionClosed`].
fn read_exact_or_closed(
    conn: &mut Conn,
    buf: &mut [u8],
    during: &'static str,
) -> Result<(), ServeError> {
    conn.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ServeError::ConnectionClosed { during }
        } else {
            ServeError::Io(e)
        }
    })
}
