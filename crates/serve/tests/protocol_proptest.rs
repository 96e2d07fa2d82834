//! Property tests of the `corrfade-serve` wire protocol.
//!
//! Two families:
//!
//! 1. **Round trips** — every frame type and every request survives
//!    encode → split → decode bit-exactly.
//! 2. **Adversarial decoding** — random, truncated, corrupted and
//!    oversized byte strings never panic any decoder: every outcome is
//!    `Ok` or a typed [`ProtocolError`].

use proptest::prelude::*;

use corrfade_serve::{
    code, decode_frame_payload, decode_request, decode_request_header, encode_frame,
    encode_request, split_frame, Frame, ProtocolError, Request, MAGIC, MAX_NAME_LEN,
    REQUEST_CURSOR_LEN, REQUEST_HEADER_LEN, VERSION_V2,
};

/// Maps arbitrary bytes onto printable ASCII so generated strings are
/// always valid UTF-8 (the shim has no string strategies).
fn ascii(bytes: &[u8]) -> String {
    bytes.iter().map(|b| (b' ' + b % 95) as char).collect()
}

/// Reference encoder of the v2 request layout, written field by field from
/// the wire diagram: it pins the v2 bytes for every cursor, 0 included
/// (which the library encoder sends as v1), and any cursor, overflowing
/// ones included.
fn v2_request_wire(request: &Request) -> Vec<u8> {
    let mut wire = MAGIC.to_vec();
    wire.extend_from_slice(&VERSION_V2.to_le_bytes());
    let name_len = u16::try_from(request.scenario.len()).unwrap();
    wire.extend_from_slice(&name_len.to_le_bytes());
    wire.extend_from_slice(&request.seed.to_le_bytes());
    wire.extend_from_slice(&request.blocks.to_le_bytes());
    wire.extend_from_slice(&request.cursor.to_le_bytes());
    wire.extend_from_slice(request.scenario.as_bytes());
    wire
}

/// Builds one of the four frame variants from undifferentiated randomness.
fn frame_from_parts<'a>(
    kind: u8,
    a: u32,
    b: u32,
    c: u32,
    bytes: &'a [u8],
    message: &'a str,
) -> Frame<'a> {
    match kind {
        0 => Frame::Header {
            envelopes: a,
            samples: b,
            blocks: c,
        },
        1 => Frame::Block {
            index: a,
            payload: bytes,
        },
        2 => Frame::Error {
            code: a as u16,
            message,
        },
        _ => Frame::End { blocks_sent: a },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every frame type round-trips through the wire encoding exactly,
    /// and `split_frame` consumes precisely the bytes that were written.
    #[test]
    fn frames_round_trip(
        kind in 0u8..4,
        a in 0u32..=u32::MAX,
        b in 0u32..=u32::MAX,
        c in 0u32..=u32::MAX,
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let message = ascii(&bytes);
        let frame = frame_from_parts(kind, a, b, c, &bytes, &message);
        let mut wire = Vec::new();
        encode_frame(&frame, &mut wire);
        let (payload, consumed) = split_frame(&wire).unwrap();
        prop_assert_eq!(consumed, wire.len());
        let decoded = decode_frame_payload(payload).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// Block payload bytes come back bit-for-bit, borrowed from the wire
    /// buffer, regardless of content (including NaN-patterned bytes).
    #[test]
    fn block_payloads_are_bit_exact(
        index in 0u32..=u32::MAX,
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let mut wire = Vec::new();
        encode_frame(&Frame::Block { index, payload: &bytes }, &mut wire);
        let (payload, _) = split_frame(&wire).unwrap();
        let Frame::Block { index: got_index, payload: got_bytes } =
            decode_frame_payload(payload).unwrap() else {
            panic!("expected a block frame");
        };
        prop_assert_eq!(got_index, index);
        prop_assert_eq!(got_bytes, &bytes[..]);
    }

    /// Requests round-trip for every legal scenario-name length. A zero
    /// cursor encodes as wire v1, a non-zero one as a v2 resume; both
    /// decode back to the identical request.
    #[test]
    fn requests_round_trip(
        name_bytes in proptest::collection::vec(0u8..=255, 1..=MAX_NAME_LEN),
        seed in 0u64..=u64::MAX,
        blocks in 0u32..=u32::MAX,
        cursor in 0u64..=u64::MAX,
    ) {
        // Keep the resumed span within the u32 wire index space, which is
        // the only legal region (the hostile test covers the rest).
        let cursor = cursor % (u64::from(u32::MAX) - u64::from(blocks) + 1);
        let request = Request { scenario: ascii(&name_bytes), seed, blocks, cursor };
        let mut wire = Vec::new();
        encode_request(&request, &mut wire).unwrap();
        prop_assert_eq!(decode_request(&wire).unwrap(), request);
    }

    /// The v2 layout decodes for every cursor, including 0, and the prefix
    /// decoder sizes exactly the cursor and name that follow it.
    #[test]
    fn v2_requests_round_trip(
        name_bytes in proptest::collection::vec(0u8..=255, 1..=MAX_NAME_LEN),
        seed in 0u64..=u64::MAX,
        blocks in 0u32..=u32::MAX,
        cursor in 0u64..=u64::MAX,
    ) {
        let cursor = cursor % (u64::from(u32::MAX) - u64::from(blocks) + 1);
        let request = Request { scenario: ascii(&name_bytes), seed, blocks, cursor };
        let wire = v2_request_wire(&request);
        prop_assert_eq!(decode_request(&wire).unwrap(), request.clone());
        let head = decode_request_header(&wire).unwrap();
        prop_assert_eq!(head.version, VERSION_V2);
        prop_assert_eq!(head.trailing_len(), REQUEST_CURSOR_LEN + name_bytes.len());
    }

    /// Hostile cursors: any `(cursor, blocks)` pair either decodes to the
    /// exact cursor or earns a typed error — overflowing spans are
    /// rejected, never wrapped into the u32 wire index space.
    #[test]
    fn hostile_cursors_never_panic_or_wrap(
        cursor in 0u64..=u64::MAX,
        blocks in 0u32..=u32::MAX,
        short in 0usize..REQUEST_CURSOR_LEN,
    ) {
        let wire = v2_request_wire(&Request { scenario: "x".into(), seed: 1, blocks, cursor });
        match decode_request(&wire) {
            Ok(got) => {
                prop_assert_eq!(got.cursor, cursor);
                prop_assert!(cursor + u64::from(blocks) <= u64::from(u32::MAX));
            }
            Err(ProtocolError::Oversized { .. }) => {
                prop_assert!(
                    cursor.checked_add(u64::from(blocks))
                        .is_none_or(|end| end > u64::from(u32::MAX))
                );
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
        // A request cut inside the cursor field is always the typed
        // truncation error.
        prop_assert!(matches!(
            decode_request(&wire[..REQUEST_HEADER_LEN + short]),
            Err(ProtocolError::Truncated { .. })
        ));
    }

    /// Truncating or bit-flipping a valid v2 resume request never panics
    /// the request decoders; every outcome is `Ok` or a typed error.
    #[test]
    fn mutated_v2_requests_never_panic(
        name_bytes in proptest::collection::vec(0u8..=255, 1..=MAX_NAME_LEN),
        cursor in 0u64..=u64::MAX,
        cut in 0usize..=usize::MAX,
        flip_at in 0usize..=usize::MAX,
        flip_bits in 1u8..=255,
    ) {
        let request = Request {
            scenario: ascii(&name_bytes),
            seed: 7,
            blocks: 3,
            cursor: cursor % 1_000_000,
        };
        let mut wire = v2_request_wire(&request);

        let _ = decode_request(&wire[..cut % (wire.len() + 1)]);

        let at = flip_at % wire.len();
        wire[at] ^= flip_bits;
        let _ = decode_request(&wire);
        let _ = decode_request_header(&wire);
    }

    /// `BUSY` error frames round-trip like every other code, and arbitrary
    /// `(code, message)` pairs — hostile codes included — survive the
    /// error-frame encoder/decoder exactly.
    #[test]
    fn busy_and_arbitrary_error_frames_round_trip(
        raw_code in 0u16..=u16::MAX,
        msg_bytes in proptest::collection::vec(0u8..=255, 0..128),
        pick_busy in 0u8..2,
    ) {
        let code = if pick_busy == 1 { code::BUSY } else { raw_code };
        let message = ascii(&msg_bytes);
        let mut wire = Vec::new();
        encode_frame(&Frame::Error { code, message: &message }, &mut wire);
        let (payload, consumed) = split_frame(&wire).unwrap();
        prop_assert_eq!(consumed, wire.len());
        let Frame::Error { code: got_code, message: got_message } =
            decode_frame_payload(payload).unwrap() else {
            panic!("expected an error frame");
        };
        prop_assert_eq!(got_code, code);
        prop_assert_eq!(got_message, message);
    }

    /// Arbitrary garbage never panics any decoder.
    #[test]
    fn random_bytes_never_panic_decoders(
        raw in proptest::collection::vec(0u8..=255, 0..128),
    ) {
        let _ = decode_request(&raw);
        let _ = decode_request_header(&raw);
        let _ = decode_frame_payload(&raw);
        if let Ok((payload, consumed)) = split_frame(&raw) {
            prop_assert!(consumed <= raw.len());
            let _ = decode_frame_payload(payload);
        }
    }

    /// A declared length prefix pointing anywhere — zero, beyond the
    /// buffer, beyond `MAX_FRAME_LEN` — yields a typed error or a
    /// payload decode, never a panic or out-of-bounds read.
    #[test]
    fn hostile_length_prefixes_never_panic(
        declared in 0u32..=u32::MAX,
        raw in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut wire = declared.to_le_bytes().to_vec();
        wire.extend_from_slice(&raw);
        if let Ok((payload, consumed)) = split_frame(&wire) {
            prop_assert_eq!(consumed, 4 + payload.len());
            prop_assert!(consumed <= wire.len());
            let _ = decode_frame_payload(payload);
        }
    }

    /// Truncating or corrupting a valid frame never panics: truncation of
    /// the prefix or payload is a typed error; a flipped byte decodes to
    /// `Ok` or a typed error.
    #[test]
    fn mutated_valid_frames_never_panic(
        kind in 0u8..4,
        a in 0u32..=u32::MAX,
        bytes in proptest::collection::vec(0u8..=255, 0..64),
        cut in 0usize..=usize::MAX,
        flip_at in 0usize..=usize::MAX,
        flip_bits in 1u8..=255,
    ) {
        let message = ascii(&bytes);
        let frame = frame_from_parts(kind, a, a ^ 0x5555_5555, !a, &bytes, &message);
        let mut wire = Vec::new();
        encode_frame(&frame, &mut wire);

        // Truncation at every possible cut point.
        let truncated = &wire[..cut % wire.len()];
        if let Ok((payload, _)) = split_frame(truncated) {
            let _ = decode_frame_payload(payload);
        }

        // Single corrupted byte (never a no-op flip).
        let at = flip_at % wire.len();
        wire[at] ^= flip_bits;
        if let Ok((payload, _)) = split_frame(&wire) {
            let _ = decode_frame_payload(payload);
        }
    }
}
