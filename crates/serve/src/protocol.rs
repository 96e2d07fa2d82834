//! The versioned binary wire protocol of `corrfade-serve`.
//!
//! The protocol is deliberately tiny: a client opens a connection, sends
//! **one request** naming a registry scenario, a seed and a block count,
//! and then only reads — the server answers with a header frame followed
//! by the requested number of `SampleBlock`-framed Doppler blocks and a
//! terminating end frame. Anything that goes wrong is reported as a typed
//! **error frame** on the wire (and as a [`ProtocolError`] in process),
//! never as a silently dropped connection.
//!
//! ## Request (client → server, exactly once)
//!
//! Two negotiated versions share the fixed 20-byte prefix; the version
//! field selects the layout of what follows:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = "CFDS"
//! 4       2     version = 1 or 2            (u16 LE)
//! 6       2     scenario name length        (u16 LE, 1..=64)
//! 8       8     RNG seed                    (u64 LE)
//! 16      4     requested block count       (u32 LE)
//! --- version 1 ---
//! 20      n     scenario name               (UTF-8, registry name)
//! --- version 2 (resume) ---
//! 20      8     block cursor                (u64 LE)
//! 28      n     scenario name               (UTF-8, registry name)
//! ```
//!
//! A v2 request is a **resume**: the server fast-forwards a fresh
//! `(scenario, seed)` stream past `cursor` blocks (replaying only the RNG
//! draws — no generation work) and then streams `blocks` blocks with wire
//! indices `cursor..cursor + blocks`, bit-identical to the corresponding
//! span of the uninterrupted stream. A v1 request is exactly a v2 request
//! with cursor 0; v1 clients keep working unchanged.
//!
//! ## Response frames (server → client)
//!
//! Every frame is a `u32` little-endian **payload length** followed by the
//! payload; the payload's first byte is the frame tag:
//!
//! ```text
//! Header  tag=1 | envelopes u32 | samples u32 | blocks u32
//! Block   tag=2 | index u32     | N·M × (re f64 LE, im f64 LE)  planar
//! Error   tag=3 | code u16      | message length u16 | message UTF-8
//! End     tag=4 | blocks_sent u32
//! ```
//!
//! Block payloads carry the exact planar layout of
//! [`SampleBlock::as_slice`](corrfade::SampleBlock::as_slice) through
//! [`SampleBlock::encode_le_into`](corrfade::SampleBlock::encode_le_into),
//! so the bytes a client decodes are **bit-identical** to the blocks a
//! standalone `Scenario::build_realtime(seed)` stream produces — the
//! wire-equivalence test suite pins this with `f64::to_bits` comparisons.
//!
//! Each message has one encoder and one decoder, which the server, the
//! client and the tests share. A decoded [`Frame`] borrows its block
//! payload and error message from the bytes it was decoded from.
//!
//! All decoders in this module are *total*: any byte string — truncated,
//! oversized, wrong-tagged, non-UTF-8 — decodes to a [`ProtocolError`],
//! never a panic (enforced by the adversarial property tests).

use corrfade::SampleBlock;

/// The 4-byte connection preamble every request starts with.
pub const MAGIC: [u8; 4] = *b"CFDS";

/// The original protocol version: fixed-start streams only.
pub const VERSION_V1: u16 = 1;

/// The resume-capable protocol version: the request carries a block
/// cursor (fast-forward on the server) and the server may answer a
/// [`code::BUSY`] error frame under admission control.
pub const VERSION_V2: u16 = 2;

/// Fixed byte length of the version-independent request prefix (v1
/// requests carry the scenario name immediately after it; v2 requests
/// insert [`REQUEST_CURSOR_LEN`] cursor bytes in between).
pub const REQUEST_HEADER_LEN: usize = 20;

/// Byte length of the v2 block-cursor field that follows the fixed
/// request prefix.
pub const REQUEST_CURSOR_LEN: usize = 8;

/// Longest accepted scenario name on the wire.
pub const MAX_NAME_LEN: usize = 64;

/// Largest accepted frame payload (64 MiB) — bounds what a `u32` length
/// prefix can make a peer allocate.
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// Frame tags (first payload byte) of the four response frame types.
pub mod tag {
    /// Stream header: shape echo that precedes the first block.
    pub const HEADER: u8 = 1;
    /// One planar sample block.
    pub const BLOCK: u8 = 2;
    /// Typed error report.
    pub const ERROR: u8 = 3;
    /// Clean end of stream.
    pub const END: u8 = 4;
}

/// Stable error codes carried by error frames (`u16` on the wire).
pub mod code {
    /// Request did not start with [`super::MAGIC`].
    pub const BAD_MAGIC: u16 = 1;
    /// Request version is outside [`super::VERSION_V1`]..=[`super::VERSION_V2`].
    pub const UNSUPPORTED_VERSION: u16 = 2;
    /// A buffer ended before the structure it claimed to hold.
    pub const TRUNCATED: u16 = 3;
    /// A declared length exceeded its protocol maximum.
    pub const OVERSIZED: u16 = 4;
    /// Unknown frame tag byte.
    pub const UNKNOWN_FRAME_TAG: u16 = 5;
    /// Scenario name was empty or not UTF-8.
    pub const BAD_SCENARIO_NAME: u16 = 6;
    /// Scenario name is not in the registry.
    pub const UNKNOWN_SCENARIO: u16 = 7;
    /// The scenario exists but failed to build server-side.
    pub const SCENARIO_REJECTED: u16 = 8;
    /// A frame payload length contradicted its declared contents.
    pub const FRAME_SIZE_MISMATCH: u16 = 9;
    /// The server is shutting down and stopped the stream early.
    pub const SERVER_SHUTDOWN: u16 = 10;
    /// The request asked for a sample precision the server cannot stream
    /// (every stream is `f64`; the flag and this code stay reserved).
    pub const PRECISION_UNSUPPORTED: u16 = 11;
    /// The server is at its configured session capacity and declined the
    /// request; retry with backoff. (Wire v2; a v1-era client sees it as an
    /// ordinary typed error frame.)
    pub const BUSY: u16 = 12;
}

/// Request-header flag (bit 15 of the name-length field, which
/// [`MAX_NAME_LEN`] leaves free) reserved for requesting an `f32` stream.
/// Every block travels as planar little-endian `f64`
/// ([`SampleBlock::encode_le_into`]) and generation has no other precision,
/// so the server answers the flag with a typed
/// [`code::PRECISION_UNSUPPORTED`] error frame instead of misreading the
/// name length.
pub const FLAG_F32_STREAM: u16 = 1 << 15;

/// Everything that can be wrong with bytes on the wire, as a typed error.
///
/// Server-side, a `ProtocolError` is encoded into an error frame
/// ([`Frame::Error`] with its [`code`](ProtocolError::code) and rendered
/// message) and sent to the client before the connection closes;
/// client-side, decoding and request-encoding failures surface through
/// [`crate::ServeError::Protocol`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The request preamble was not [`MAGIC`].
    BadMagic {
        /// The four bytes actually received.
        got: [u8; 4],
    },
    /// The peer speaks a different protocol version.
    UnsupportedVersion {
        /// Version the peer sent.
        got: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// A buffer ended before the structure it claimed to hold.
    Truncated {
        /// Which structure was being decoded.
        what: &'static str,
        /// Bytes the structure required.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A declared length exceeded its protocol maximum.
    Oversized {
        /// Which length field overflowed.
        what: &'static str,
        /// The declared length.
        len: usize,
        /// The protocol maximum.
        max: usize,
    },
    /// The frame tag byte is not one of [`tag`]'s values.
    UnknownFrameTag {
        /// The tag byte received.
        tag: u8,
    },
    /// The scenario name was empty, too long, or not UTF-8.
    BadScenarioName {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The requested scenario is not in the registry.
    UnknownScenario {
        /// The name that was requested.
        name: String,
        /// Closest registered name, when one resembles the request.
        suggestion: Option<String>,
    },
    /// The scenario exists but could not be built into a stream.
    ScenarioRejected {
        /// The builder's error message.
        message: String,
    },
    /// A frame payload length contradicted its declared contents.
    FrameSizeMismatch {
        /// Which frame type was being decoded.
        what: &'static str,
        /// Payload bytes the declared contents require.
        expected: usize,
        /// Payload bytes actually present.
        got: usize,
    },
    /// The request set a precision flag this server cannot serve.
    PrecisionUnsupported {
        /// The raw flag bits the peer set (currently only
        /// [`FLAG_F32_STREAM`]).
        flags: u16,
    },
    /// The server is shutting down and ended the stream early.
    ServerShutdown,
    /// The server is at its configured session capacity (admission
    /// control); the client should back off and retry.
    Busy {
        /// Sessions currently being served.
        active: u64,
        /// The configured session cap.
        max: u64,
    },
}

impl ProtocolError {
    /// The stable wire code (see [`code`]) this error is reported under.
    #[must_use]
    pub fn code(&self) -> u16 {
        match self {
            ProtocolError::BadMagic { .. } => code::BAD_MAGIC,
            ProtocolError::UnsupportedVersion { .. } => code::UNSUPPORTED_VERSION,
            ProtocolError::Truncated { .. } => code::TRUNCATED,
            ProtocolError::Oversized { .. } => code::OVERSIZED,
            ProtocolError::UnknownFrameTag { .. } => code::UNKNOWN_FRAME_TAG,
            ProtocolError::BadScenarioName { .. } => code::BAD_SCENARIO_NAME,
            ProtocolError::UnknownScenario { .. } => code::UNKNOWN_SCENARIO,
            ProtocolError::ScenarioRejected { .. } => code::SCENARIO_REJECTED,
            ProtocolError::FrameSizeMismatch { .. } => code::FRAME_SIZE_MISMATCH,
            ProtocolError::PrecisionUnsupported { .. } => code::PRECISION_UNSUPPORTED,
            ProtocolError::ServerShutdown => code::SERVER_SHUTDOWN,
            ProtocolError::Busy { .. } => code::BUSY,
        }
    }
}

impl core::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtocolError::BadMagic { got } => {
                write!(f, "bad request magic {got:?} (expected {MAGIC:?})")
            }
            ProtocolError::UnsupportedVersion { got, supported } => write!(
                f,
                "unsupported protocol version {got} (this server speaks versions \
                 {VERSION_V1}..={supported})"
            ),
            ProtocolError::Truncated { what, needed, got } => {
                write!(f, "truncated {what}: needed {needed} byte(s), got {got}")
            }
            ProtocolError::Oversized { what, len, max } => write!(
                f,
                "oversized {what}: declared {len} byte(s), maximum is {max}"
            ),
            ProtocolError::UnknownFrameTag { tag } => write!(f, "unknown frame tag {tag}"),
            ProtocolError::BadScenarioName { reason } => {
                write!(f, "bad scenario name: {reason}")
            }
            ProtocolError::UnknownScenario { name, suggestion } => {
                write!(f, "unknown scenario `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `{s}`?)")?;
                }
                Ok(())
            }
            ProtocolError::ScenarioRejected { message } => {
                write!(f, "scenario rejected: {message}")
            }
            ProtocolError::FrameSizeMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "{what} frame size mismatch: contents require {expected} byte(s), payload has {got}"
            ),
            ProtocolError::PrecisionUnsupported { flags } => write!(
                f,
                "precision flags {flags:#06x} are not supported; this server \
                 streams f64 blocks only"
            ),
            ProtocolError::ServerShutdown => {
                write!(f, "server is shutting down; stream ended early")
            }
            ProtocolError::Busy { active, max } => write!(
                f,
                "server is at capacity ({active}/{max} sessions); retry with backoff"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A decoded client request: which scenario, which seed, how many blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Registry name of the requested scenario.
    pub scenario: String,
    /// RNG seed of the stream (used exactly; the delivered blocks are
    /// bit-identical to `Scenario::build_realtime(seed)` standalone).
    pub seed: u64,
    /// Number of blocks the client wants streamed.
    pub blocks: u32,
    /// Resume cursor: the zero-based index of the first block to stream.
    /// `0` is a fresh stream (encoded as wire v1 for compatibility); a
    /// non-zero cursor makes the server fast-forward the `(scenario,
    /// seed)` stream past that many blocks before sending, so the
    /// delivered blocks are bit-identical to `cursor..cursor + blocks` of
    /// the uninterrupted stream.
    pub cursor: u64,
}

/// The validated fixed-size request prefix, as returned by
/// [`decode_request_header`]: the server reads [`REQUEST_HEADER_LEN`]
/// bytes, decodes this, then reads [`RequestHead::trailing_len`] more
/// (cursor, when v2, followed by the scenario name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHead {
    /// Negotiated wire version ([`VERSION_V1`] or [`VERSION_V2`]).
    pub version: u16,
    /// RNG seed of the stream.
    pub seed: u64,
    /// Requested block count.
    pub blocks: u32,
    /// Declared scenario-name byte length (validated `1..=MAX_NAME_LEN`).
    pub name_len: usize,
}

impl RequestHead {
    /// Bytes of cursor field following the prefix: [`REQUEST_CURSOR_LEN`]
    /// for a v2 request, zero for v1.
    fn cursor_len(&self) -> usize {
        if self.version >= VERSION_V2 {
            REQUEST_CURSOR_LEN
        } else {
            0
        }
    }

    /// Total bytes that follow the fixed prefix (cursor + name).
    #[must_use]
    pub fn trailing_len(&self) -> usize {
        self.cursor_len() + self.name_len
    }
}

/// A decoded response frame. It borrows the block payload and the error
/// message from the bytes it was decoded from, so decoding copies nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// Stream shape echo sent before the first block.
    Header {
        /// Envelope count `N` of every block.
        envelopes: u32,
        /// Samples `M` per envelope per block.
        samples: u32,
        /// Number of block frames the server will send.
        blocks: u32,
    },
    /// One planar sample block.
    Block {
        /// Zero-based block index within the stream.
        index: u32,
        /// `N·M × 16` bytes of planar little-endian complex samples.
        payload: &'a [u8],
    },
    /// Typed error report; the connection closes after this frame.
    Error {
        /// Stable wire code (see [`code`]).
        code: u16,
        /// Human-readable message.
        message: &'a str,
    },
    /// Clean end of stream after the last block.
    End {
        /// Number of block frames actually sent.
        blocks_sent: u32,
    },
}

fn u16_at(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(buf[at..at + 2].try_into().expect("slice is 2 bytes"))
}

fn u32_at(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("slice is 4 bytes"))
}

fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("slice is 8 bytes"))
}

/// The scenario-name rule both the encoder and the decoder apply: a name
/// is `1..=`[`MAX_NAME_LEN`] bytes long. Returns the length field's value.
fn check_name_len(len: usize) -> Result<u16, ProtocolError> {
    if len == 0 {
        return Err(ProtocolError::BadScenarioName {
            reason: "scenario name is empty",
        });
    }
    if len > MAX_NAME_LEN {
        return Err(ProtocolError::Oversized {
            what: "scenario name",
            len,
            max: MAX_NAME_LEN,
        });
    }
    Ok(u16::try_from(len).expect("MAX_NAME_LEN fits u16"))
}

/// Appends the wire encoding of a request to `buf`. A request with cursor
/// `0` encodes as wire v1 — byte-identical to what a pre-resume client
/// sends — and a non-zero cursor selects the v2 layout.
///
/// # Errors
/// [`decode_request_header`]'s name rule: an empty name or one longer than
/// [`MAX_NAME_LEN`] bytes is refused, and nothing is written.
pub fn encode_request(request: &Request, buf: &mut Vec<u8>) -> Result<(), ProtocolError> {
    let name_len = check_name_len(request.scenario.len())?;
    let version = if request.cursor == 0 {
        VERSION_V1
    } else {
        VERSION_V2
    };
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&name_len.to_le_bytes());
    buf.extend_from_slice(&request.seed.to_le_bytes());
    buf.extend_from_slice(&request.blocks.to_le_bytes());
    if version == VERSION_V2 {
        buf.extend_from_slice(&request.cursor.to_le_bytes());
    }
    buf.extend_from_slice(request.scenario.as_bytes());
    Ok(())
}

/// Validates the fixed-size request prefix and returns the decoded
/// [`RequestHead`] — the server reads exactly [`REQUEST_HEADER_LEN`]
/// bytes, calls this, then reads [`RequestHead::trailing_len`] more.
///
/// # Errors
/// [`ProtocolError`] on short input, wrong magic, a version outside
/// `1..=2`, a set precision flag ([`FLAG_F32_STREAM`] — the wire streams
/// `f64` only), or a name length outside `1..=`[`MAX_NAME_LEN`].
pub fn decode_request_header(buf: &[u8]) -> Result<RequestHead, ProtocolError> {
    if buf.len() < REQUEST_HEADER_LEN {
        return Err(ProtocolError::Truncated {
            what: "request header",
            needed: REQUEST_HEADER_LEN,
            got: buf.len(),
        });
    }
    let got: [u8; 4] = buf[..4].try_into().expect("slice is 4 bytes");
    if got != MAGIC {
        return Err(ProtocolError::BadMagic { got });
    }
    let version = u16_at(buf, 4);
    if !(VERSION_V1..=VERSION_V2).contains(&version) {
        return Err(ProtocolError::UnsupportedVersion {
            got: version,
            supported: VERSION_V2,
        });
    }
    // Bit 15 of the name-length field carries the (v2-reserved) precision
    // flag; mask it off before any length validation so a flagged request
    // earns the typed precision error, not a bogus size complaint.
    let raw_len = u16_at(buf, 6);
    let flags = raw_len & FLAG_F32_STREAM;
    if flags != 0 {
        return Err(ProtocolError::PrecisionUnsupported { flags });
    }
    let name_len = usize::from(raw_len);
    check_name_len(name_len)?;
    Ok(RequestHead {
        version,
        seed: u64_at(buf, 8),
        blocks: u32_at(buf, 16),
        name_len,
    })
}

/// Decodes a complete request (prefix, v2 cursor and name) from one
/// buffer. A v2 cursor must keep `cursor + blocks` within the `u32` wire
/// block-index space, since block frames carry `u32` indices.
///
/// # Errors
/// [`ProtocolError`] on any malformed input; never panics. A resumed span
/// that would overflow the wire index space is
/// [`ProtocolError::Oversized`].
pub fn decode_request(buf: &[u8]) -> Result<Request, ProtocolError> {
    let head = decode_request_header(buf)?;
    let rest = &buf[REQUEST_HEADER_LEN..];
    let cursor = if head.cursor_len() == 0 {
        0
    } else {
        if rest.len() < REQUEST_CURSOR_LEN {
            return Err(ProtocolError::Truncated {
                what: "resume cursor",
                needed: REQUEST_CURSOR_LEN,
                got: rest.len(),
            });
        }
        let cursor = u64_at(rest, 0);
        if cursor
            .checked_add(u64::from(head.blocks))
            .is_none_or(|end| end > u64::from(u32::MAX))
        {
            return Err(ProtocolError::Oversized {
                what: "resume cursor",
                len: usize::try_from(cursor).unwrap_or(usize::MAX),
                max: u32::MAX as usize,
            });
        }
        cursor
    };
    let name_at = REQUEST_HEADER_LEN + head.cursor_len();
    let end = name_at + head.name_len;
    if buf.len() < end {
        return Err(ProtocolError::Truncated {
            what: "scenario name",
            needed: end,
            got: buf.len(),
        });
    }
    let name =
        core::str::from_utf8(&buf[name_at..end]).map_err(|_| ProtocolError::BadScenarioName {
            reason: "scenario name is not valid UTF-8",
        })?;
    Ok(Request {
        scenario: name.to_string(),
        seed: head.seed,
        blocks: head.blocks,
        cursor,
    })
}

/// Appends a frame's length prefix and tag for a payload of `body_len`
/// bytes after the tag.
fn start_frame(buf: &mut Vec<u8>, tag: u8, body_len: usize) {
    let len = u32::try_from(1 + body_len).expect("frame payload fits u32");
    buf.reserve(5 + body_len);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.push(tag);
}

/// Appends a block frame's length prefix, tag and index for
/// `samples_len` sample bytes.
fn start_block_frame(buf: &mut Vec<u8>, index: u32, samples_len: usize) {
    start_frame(buf, tag::BLOCK, 4 + samples_len);
    buf.extend_from_slice(&index.to_le_bytes());
}

/// Appends a block frame (length prefix included) carrying `block`'s planar
/// samples to `buf` — zero heap allocation once `buf`'s capacity is warm.
/// The bytes equal [`encode_frame`] of a [`Frame::Block`] holding
/// [`SampleBlock::encode_le_into`]'s output, without that copy.
pub(crate) fn encode_block_frame(buf: &mut Vec<u8>, index: u32, block: &SampleBlock) {
    start_block_frame(buf, index, block.wire_len());
    block.encode_le_into(buf);
}

/// Appends `frame` (length prefix included) to `buf` — the inverse of
/// [`split_frame`] + [`decode_frame_payload`]. An error message longer
/// than `u16::MAX` bytes is truncated to fit its length field.
pub fn encode_frame(frame: &Frame<'_>, buf: &mut Vec<u8>) {
    match *frame {
        Frame::Header {
            envelopes,
            samples,
            blocks,
        } => {
            start_frame(buf, tag::HEADER, 12);
            buf.extend_from_slice(&envelopes.to_le_bytes());
            buf.extend_from_slice(&samples.to_le_bytes());
            buf.extend_from_slice(&blocks.to_le_bytes());
        }
        Frame::Block { index, payload } => {
            start_block_frame(buf, index, payload.len());
            buf.extend_from_slice(payload);
        }
        Frame::Error { code, message } => {
            let msg = &message.as_bytes()[..message.len().min(usize::from(u16::MAX))];
            start_frame(buf, tag::ERROR, 4 + msg.len());
            buf.extend_from_slice(&code.to_le_bytes());
            let msg_len = u16::try_from(msg.len()).expect("truncated above");
            buf.extend_from_slice(&msg_len.to_le_bytes());
            buf.extend_from_slice(msg);
        }
        Frame::End { blocks_sent } => {
            start_frame(buf, tag::END, 4);
            buf.extend_from_slice(&blocks_sent.to_le_bytes());
        }
    }
}

/// Checks a frame's 4-byte length prefix — non-zero, since every payload
/// holds its tag, and at most [`MAX_FRAME_LEN`] — and returns the length.
pub(crate) fn frame_len(prefix: [u8; 4]) -> Result<usize, ProtocolError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 {
        return Err(ProtocolError::FrameSizeMismatch {
            what: "frame",
            expected: 1,
            got: 0,
        });
    }
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized {
            what: "frame payload",
            len,
            max: MAX_FRAME_LEN,
        });
    }
    Ok(len)
}

/// Splits a buffer that starts with a length-prefixed frame into
/// `(payload, total_consumed)` without copying.
///
/// # Errors
/// [`ProtocolError`] when the prefix is short, the declared length is zero
/// or exceeds [`MAX_FRAME_LEN`], or the payload is incomplete.
pub fn split_frame(buf: &[u8]) -> Result<(&[u8], usize), ProtocolError> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Err(ProtocolError::Truncated {
            what: "frame length prefix",
            needed: 4,
            got: buf.len(),
        });
    };
    let len = frame_len(*prefix)?;
    if buf.len() < 4 + len {
        return Err(ProtocolError::Truncated {
            what: "frame payload",
            needed: 4 + len,
            got: buf.len(),
        });
    }
    Ok((&buf[4..4 + len], 4 + len))
}

/// Decodes one frame payload (the bytes after the length prefix) into a
/// [`Frame`] that borrows from `payload`.
///
/// # Errors
/// [`ProtocolError`] on any malformed payload; never panics.
pub fn decode_frame_payload(payload: &[u8]) -> Result<Frame<'_>, ProtocolError> {
    match payload.first() {
        None => Err(ProtocolError::Truncated {
            what: "frame tag",
            needed: 1,
            got: 0,
        }),
        Some(&tag::HEADER) => {
            if payload.len() != 13 {
                return Err(ProtocolError::FrameSizeMismatch {
                    what: "header",
                    expected: 13,
                    got: payload.len(),
                });
            }
            Ok(Frame::Header {
                envelopes: u32_at(payload, 1),
                samples: u32_at(payload, 5),
                blocks: u32_at(payload, 9),
            })
        }
        Some(&tag::BLOCK) => {
            if payload.len() < 5 {
                return Err(ProtocolError::Truncated {
                    what: "block frame",
                    needed: 5,
                    got: payload.len(),
                });
            }
            Ok(Frame::Block {
                index: u32_at(payload, 1),
                payload: &payload[5..],
            })
        }
        Some(&tag::ERROR) => {
            if payload.len() < 5 {
                return Err(ProtocolError::Truncated {
                    what: "error frame",
                    needed: 5,
                    got: payload.len(),
                });
            }
            let code = u16_at(payload, 1);
            let msg_len = usize::from(u16_at(payload, 3));
            if payload.len() != 5 + msg_len {
                return Err(ProtocolError::FrameSizeMismatch {
                    what: "error",
                    expected: 5 + msg_len,
                    got: payload.len(),
                });
            }
            let message = core::str::from_utf8(&payload[5..]).map_err(|_| {
                ProtocolError::BadScenarioName {
                    reason: "error message is not valid UTF-8",
                }
            })?;
            Ok(Frame::Error { code, message })
        }
        Some(&tag::END) => {
            if payload.len() != 5 {
                return Err(ProtocolError::FrameSizeMismatch {
                    what: "end",
                    expected: 5,
                    got: payload.len(),
                });
            }
            Ok(Frame::End {
                blocks_sent: u32_at(payload, 1),
            })
        }
        Some(&other) => Err(ProtocolError::UnknownFrameTag { tag: other }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One value of every `ProtocolError` variant.
    fn every_variant() -> Vec<ProtocolError> {
        vec![
            ProtocolError::BadMagic { got: [0; 4] },
            ProtocolError::UnsupportedVersion {
                got: 0,
                supported: 1,
            },
            ProtocolError::Truncated {
                what: "x",
                needed: 1,
                got: 0,
            },
            ProtocolError::Oversized {
                what: "x",
                len: 2,
                max: 1,
            },
            ProtocolError::UnknownFrameTag { tag: 0 },
            ProtocolError::BadScenarioName { reason: "x" },
            ProtocolError::UnknownScenario {
                name: String::new(),
                suggestion: None,
            },
            ProtocolError::ScenarioRejected {
                message: String::new(),
            },
            ProtocolError::FrameSizeMismatch {
                what: "x",
                expected: 1,
                got: 0,
            },
            ProtocolError::ServerShutdown,
            ProtocolError::PrecisionUnsupported {
                flags: FLAG_F32_STREAM,
            },
            ProtocolError::Busy { active: 1, max: 1 },
        ]
    }

    /// A 2 × 3 block with distinct, non-trivial samples.
    fn sample_block() -> SampleBlock {
        let mut block = SampleBlock::new(2, 3);
        for (i, z) in block.as_mut_slice().iter_mut().enumerate() {
            *z = corrfade_linalg::c64(i as f64, -(i as f64) / 3.0);
        }
        block
    }

    #[test]
    fn request_round_trips() {
        let request = Request {
            scenario: "fig4a-spectral".into(),
            seed: 0xDEAD_BEEF_0BAD_F00D,
            blocks: 17,
            cursor: 0,
        };
        let mut wire = Vec::new();
        encode_request(&request, &mut wire).unwrap();
        assert_eq!(wire.len(), REQUEST_HEADER_LEN + 14);
        // Cursor 0 encodes as wire v1, byte-stable with pre-resume clients.
        assert_eq!(u16_at(&wire, 4), VERSION_V1);
        assert_eq!(decode_request(&wire).unwrap(), request);
    }

    #[test]
    fn resume_request_round_trips_as_v2() {
        let request = Request {
            scenario: "fig4a-spectral".into(),
            seed: 42,
            blocks: 5,
            cursor: 1_000,
        };
        let mut wire = Vec::new();
        encode_request(&request, &mut wire).unwrap();
        assert_eq!(u16_at(&wire, 4), VERSION_V2);
        assert_eq!(wire.len(), REQUEST_HEADER_LEN + REQUEST_CURSOR_LEN + 14);
        assert_eq!(decode_request(&wire).unwrap(), request);

        // The v2 layout also carries cursor 0, and the prefix decoder sizes
        // its cursor and name.
        wire[REQUEST_HEADER_LEN..REQUEST_HEADER_LEN + REQUEST_CURSOR_LEN].fill(0);
        let fresh = Request {
            cursor: 0,
            ..request
        };
        assert_eq!(decode_request(&wire).unwrap(), fresh);
        let head = decode_request_header(&wire).unwrap();
        assert_eq!(head.version, VERSION_V2);
        assert_eq!(head.trailing_len(), REQUEST_CURSOR_LEN + 14);
    }

    #[test]
    fn hostile_cursors_are_rejected_not_wrapped() {
        let request = Request {
            scenario: "x".into(),
            seed: 1,
            blocks: 1,
            cursor: 7,
        };
        let mut wire = Vec::new();
        encode_request(&request, &mut wire).unwrap();
        // Truncated cursor field.
        assert!(matches!(
            decode_request(&wire[..REQUEST_HEADER_LEN + 3]),
            Err(ProtocolError::Truncated {
                what: "resume cursor",
                ..
            })
        ));

        // cursor + blocks must stay within the u32 wire index space.
        let with_cursor = |cursor: u64| {
            let mut wire = wire.clone();
            wire[REQUEST_HEADER_LEN..REQUEST_HEADER_LEN + REQUEST_CURSOR_LEN]
                .copy_from_slice(&cursor.to_le_bytes());
            decode_request(&wire).map(|r| r.cursor)
        };
        assert!(matches!(
            with_cursor(u64::MAX),
            Err(ProtocolError::Oversized { .. })
        ));
        assert!(matches!(
            with_cursor(u64::from(u32::MAX)),
            Err(ProtocolError::Oversized { .. })
        ));
        assert_eq!(
            with_cursor(u64::from(u32::MAX) - 1),
            Ok(u64::from(u32::MAX) - 1)
        );
    }

    #[test]
    fn request_rejections_are_typed() {
        let mut wire = Vec::new();
        encode_request(
            &Request {
                scenario: "x".into(),
                seed: 1,
                blocks: 1,
                cursor: 0,
            },
            &mut wire,
        )
        .unwrap();

        let mut bad_magic = wire.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_request(&bad_magic),
            Err(ProtocolError::BadMagic { got }) if got[0] == b'X'
        ));

        let mut bad_version = wire.clone();
        bad_version[4] = 9;
        assert!(matches!(
            decode_request(&bad_version),
            Err(ProtocolError::UnsupportedVersion {
                got: 9,
                supported: VERSION_V2
            })
        ));

        let mut zero_version = wire.clone();
        zero_version[4] = 0;
        assert!(matches!(
            decode_request(&zero_version),
            Err(ProtocolError::UnsupportedVersion { got: 0, .. })
        ));

        assert!(matches!(
            decode_request(&wire[..10]),
            Err(ProtocolError::Truncated { .. })
        ));

        let mut empty_name = wire.clone();
        empty_name[6] = 0;
        assert!(matches!(
            decode_request(&empty_name),
            Err(ProtocolError::BadScenarioName { .. })
        ));

        let mut huge_name = wire;
        // 0x7FFF: every length bit set but the precision flag (bit 15)
        // clear, so this is an oversized *name*, not a precision request.
        huge_name[6] = 0xFF;
        huge_name[7] = 0x7F;
        assert!(matches!(
            decode_request(&huge_name),
            Err(ProtocolError::Oversized { .. })
        ));
    }

    #[test]
    fn the_encoder_applies_the_decoders_name_rule() {
        let encode = |scenario: String| {
            let mut wire = Vec::new();
            let result = encode_request(
                &Request {
                    scenario,
                    seed: 1,
                    blocks: 1,
                    cursor: 0,
                },
                &mut wire,
            );
            (result, wire)
        };
        // A name of 2^15 bytes or more would set the precision flag bit of
        // the length field; the encoder refuses it as oversized instead.
        assert_eq!(
            encode("x".repeat(40_000)),
            (
                Err(ProtocolError::Oversized {
                    what: "scenario name",
                    len: 40_000,
                    max: MAX_NAME_LEN,
                }),
                Vec::new()
            )
        );
        assert_eq!(
            encode(String::new()),
            (
                Err(ProtocolError::BadScenarioName {
                    reason: "scenario name is empty"
                }),
                Vec::new()
            )
        );
        let (result, wire) = encode("x".repeat(MAX_NAME_LEN));
        assert_eq!(result, Ok(()));
        assert_eq!(decode_request_header(&wire).unwrap().name_len, MAX_NAME_LEN);
    }

    #[test]
    fn block_frame_carries_planar_samples_bit_exactly() {
        let block = sample_block();
        let mut wire = Vec::new();
        encode_block_frame(&mut wire, 7, &block);
        let (payload, consumed) = split_frame(&wire).unwrap();
        assert_eq!(consumed, wire.len());
        let Frame::Block { index, payload } = decode_frame_payload(payload).unwrap() else {
            panic!("expected a block frame");
        };
        assert_eq!(index, 7);
        let mut decoded = SampleBlock::empty();
        decoded.decode_le_from(2, 3, payload).unwrap();
        assert_eq!(decoded, block);
    }

    #[test]
    fn server_and_client_share_one_frame_format() {
        // The server's zero-copy block encoder and the generic frame encoder
        // write the same bytes, and the one decoder reads them back.
        let block = sample_block();
        let mut samples = Vec::new();
        block.encode_le_into(&mut samples);
        let mut wire = Vec::new();
        encode_block_frame(&mut wire, 9, &block);
        let (payload, _) = split_frame(&wire).unwrap();
        assert_eq!(
            decode_frame_payload(payload).unwrap(),
            Frame::Block {
                index: 9,
                payload: &samples
            }
        );
        let mut generic = Vec::new();
        encode_frame(
            &Frame::Block {
                index: 9,
                payload: &samples,
            },
            &mut generic,
        );
        assert_eq!(generic, wire);

        // Every error the server can report decodes to its code and message.
        for error in every_variant() {
            let message = error.to_string();
            let mut wire = Vec::new();
            encode_frame(
                &Frame::Error {
                    code: error.code(),
                    message: &message,
                },
                &mut wire,
            );
            let (payload, _) = split_frame(&wire).unwrap();
            assert_eq!(
                decode_frame_payload(payload).unwrap(),
                Frame::Error {
                    code: error.code(),
                    message: &message
                },
                "{error:?}"
            );
        }
    }

    #[test]
    fn error_frames_embed_the_suggestion() {
        let e = ProtocolError::UnknownScenario {
            name: "fig4a-spektral".into(),
            suggestion: Some("fig4a-spectral".into()),
        };
        let mut wire = Vec::new();
        encode_frame(
            &Frame::Error {
                code: e.code(),
                message: &e.to_string(),
            },
            &mut wire,
        );
        let (payload, _) = split_frame(&wire).unwrap();
        let Frame::Error { code, message } = decode_frame_payload(payload).unwrap() else {
            panic!("expected an error frame");
        };
        assert_eq!(code, code::UNKNOWN_SCENARIO);
        assert!(message.contains("did you mean `fig4a-spectral`"));
    }

    #[test]
    fn oversized_and_zero_length_prefixes_are_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.push(tag::END);
        assert!(matches!(
            split_frame(&wire),
            Err(ProtocolError::Oversized { .. })
        ));
        let zero = 0u32.to_le_bytes();
        assert!(matches!(
            split_frame(&zero),
            Err(ProtocolError::FrameSizeMismatch { .. })
        ));
    }

    #[test]
    fn every_error_code_is_unique_and_stable() {
        let variants = every_variant();
        let mut codes: Vec<u16> = variants.iter().map(ProtocolError::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), variants.len(), "duplicate wire codes");
        assert_eq!(codes, (1..=12).collect::<Vec<_>>());
    }

    #[test]
    fn f32_flagged_requests_earn_the_typed_precision_error() {
        let request = Request {
            scenario: "fig4a-spectral".to_string(),
            seed: 7,
            blocks: 2,
            cursor: 0,
        };
        let mut plain = Vec::new();
        encode_request(&request, &mut plain).unwrap();
        let mut flagged = plain.clone();
        // Bit 15 of the little-endian name-length field at offset 6.
        flagged[7] |= 0x80;
        // The flag must win over every name-length check: the masked length
        // is valid here, and the error is the precision one, not Oversized.
        let err = decode_request_header(&flagged).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::PrecisionUnsupported {
                flags: FLAG_F32_STREAM
            }
        );
        // The flag is refused for v1 and v2 requests alike, so the message
        // names no wire version.
        assert!(!err.to_string().contains("version"), "{err}");
        // Unflagged encoding of the identical request still round-trips.
        assert_eq!(decode_request(&plain).unwrap(), request);
        // The flag bit cannot collide with a legal name length.
        assert!(u16::try_from(MAX_NAME_LEN).unwrap() & FLAG_F32_STREAM == 0);
    }
}
