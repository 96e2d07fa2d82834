//! Server lifecycle tests: concurrent independent clients, mid-stream
//! disconnects, protocol-error frames, and graceful shutdown.
//!
//! These exercise the thread-per-connection server end to end over real
//! sockets (TCP on a loopback ephemeral port; the Unix transport is
//! covered by the workspace `wire_equivalence` suite and the CI smoke
//! job).

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use corrfade::{ChannelStream, SampleBlock};
use corrfade_scenarios::lookup;
use corrfade_serve::{
    code, decode_frame_payload, encode_request, split_frame, Frame, ProtocolError, Request, MAGIC,
    MAX_NAME_LEN,
};
use corrfade_serve::{Client, Conn, ServeAddr, ServeError, Server, ServerConfig};

fn tcp_server_with(config: ServerConfig) -> Server {
    Server::bind(ServeAddr::Tcp("127.0.0.1:0".parse().unwrap()), config)
        .expect("binding an ephemeral loopback port")
}

fn tcp_server() -> Server {
    Server::bind(
        ServeAddr::Tcp("127.0.0.1:0".parse().unwrap()),
        ServerConfig::default(),
    )
    .expect("binding an ephemeral loopback port")
}

/// Bit pattern of a block, for exact comparisons.
fn bits(block: &SampleBlock) -> Vec<u64> {
    block
        .as_slice()
        .iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

/// Streams `blocks` blocks of `scenario` standalone, as bit patterns.
fn standalone(scenario: &str, seed: u64, blocks: u32) -> Vec<Vec<u64>> {
    let mut stream = lookup(scenario).unwrap().build_realtime(seed).unwrap();
    let mut block = SampleBlock::empty();
    (0..blocks)
        .map(|_| {
            stream.next_block_into(&mut block).unwrap();
            bits(&block)
        })
        .collect()
}

/// Reads `client`'s stream up to its end frame, as bit patterns.
fn drain(client: &mut Client) -> Vec<Vec<u64>> {
    let mut block = SampleBlock::empty();
    let mut blocks = Vec::new();
    while client.next_block_into(&mut block).unwrap().is_some() {
        blocks.push(bits(&block));
    }
    blocks
}

/// Polls `f` until it returns true or the deadline expires.
fn wait_until(what: &str, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn concurrent_clients_get_independent_deterministic_streams() {
    let server = tcp_server();
    let addr = server.local_addr().clone();

    // Two clients per (scenario, seed) pair: same pair → identical bytes;
    // the pairs differ from each other. All six run concurrently.
    let jobs: Vec<(&str, u64)> = vec![
        ("two-envelope-complex", 11),
        ("two-envelope-complex", 11),
        ("two-envelope-complex", 12),
        ("fig4a-spectral", 11),
        ("fig4a-spectral", 77),
        ("fig4b-spatial", 11),
    ];
    let handles: Vec<_> = jobs
        .iter()
        .map(|&(scenario, seed)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.subscribe(scenario, seed, 3).unwrap();
                (scenario, seed, drain(&mut client))
            })
        })
        .collect();
    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();

    for (scenario, seed, streamed) in &results {
        assert_eq!(
            *streamed,
            standalone(scenario, *seed, 3),
            "stream ({scenario}, seed {seed}) is not bit-identical to standalone"
        );
    }
    // Duplicated pair agrees; distinct seeds diverge.
    assert_eq!(results[0].2, results[1].2);
    assert_ne!(results[1].2, results[2].2);

    // Every subscription was released.
    wait_until("all subscriptions released", || {
        server.stats().subscribers == 0
    });
    let stats = server.stats();
    assert_eq!(stats.accepted, 6);
    assert_eq!(stats.blocks_sent, 18);
    assert_eq!(stats.error_frames, 0);
    assert_eq!(stats.resumed_sessions, 0, "no v2 resumes happened");
    assert_eq!(
        stats.errors_by_code.iter().sum::<u64>(),
        0,
        "no per-code errors on the happy path"
    );
    server.shutdown().unwrap();
}

#[test]
fn mid_stream_disconnect_does_not_poison_the_fleet() {
    let server = tcp_server();
    let addr = server.local_addr().clone();

    // A client asks for a long stream, reads one block, and vanishes.
    {
        let mut client = Client::connect(&addr).unwrap();
        client.subscribe("two-envelope-complex", 5, 10_000).unwrap();
        let mut block = SampleBlock::empty();
        assert_eq!(client.next_block_into(&mut block).unwrap(), Some(0));
        // Dropped here: the connection closes with the server mid-stream.
    }

    // The server notices the broken pipe and releases the subscription.
    wait_until("disconnect cleanup", || server.stats().subscribers == 0);

    // The fleet still serves new clients, bit-identically — including the
    // exact (scenario, seed) the dropped client was using.
    let mut client = Client::connect(&addr).unwrap();
    client.subscribe("two-envelope-complex", 5, 2).unwrap();
    assert_eq!(drain(&mut client), standalone("two-envelope-complex", 5, 2));
    server.shutdown().unwrap();
}

#[test]
fn protocol_errors_arrive_as_typed_frames() {
    let server = tcp_server();
    let addr = server.local_addr().clone();

    // Unknown scenario: typed code plus a did-you-mean suggestion.
    let mut client = Client::connect(&addr).unwrap();
    let err = client.subscribe("fig4a-spektral", 1, 1).unwrap_err();
    let ServeError::Server { code: c, message } = err else {
        panic!("expected a server error frame, got {err}");
    };
    assert_eq!(c, code::UNKNOWN_SCENARIO);
    assert!(
        message.contains("did you mean `fig4a-spectral`"),
        "suggestion missing from: {message}"
    );

    // Version mismatch, sent as raw bytes to control the header exactly.
    let mut request = Vec::new();
    encode_request(
        &Request {
            scenario: "two-envelope-complex".into(),
            seed: 1,
            blocks: 1,
            cursor: 0,
        },
        &mut request,
    )
    .unwrap();
    request[4] = 0xFE; // version := 0xFFFE
    request[5] = 0xFF;
    let mut raw = Conn::connect(&addr, Duration::from_secs(10)).unwrap();
    raw.write_all(&request).unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap();
    let (payload, _) = split_frame(&response).unwrap();
    let Frame::Error { code: c, .. } = decode_frame_payload(payload).unwrap() else {
        panic!("expected an error frame");
    };
    assert_eq!(c, code::UNSUPPORTED_VERSION);

    // Bad magic.
    let mut bad_magic = request.clone();
    bad_magic[..4].copy_from_slice(b"XXXX");
    assert_ne!(&bad_magic[..4], &MAGIC);
    let mut raw = Conn::connect(&addr, Duration::from_secs(10)).unwrap();
    raw.write_all(&bad_magic).unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap();
    let (payload, _) = split_frame(&response).unwrap();
    let Frame::Error { code: c, .. } = decode_frame_payload(payload).unwrap() else {
        panic!("expected an error frame");
    };
    assert_eq!(c, code::BAD_MAGIC);

    // Each rejected request was counted — totals and exact per-code
    // breakdown — and none left a subscription.
    wait_until("error-frame counters", || server.stats().error_frames == 3);
    let stats = server.stats();
    assert_eq!(stats.error_count(code::UNKNOWN_SCENARIO), 1);
    assert_eq!(stats.error_count(code::UNSUPPORTED_VERSION), 1);
    assert_eq!(stats.error_count(code::BAD_MAGIC), 1);
    assert_eq!(
        stats.errors_by_code.iter().sum::<u64>(),
        3,
        "no error was counted under any other code: {:?}",
        stats.errors_by_code
    );
    assert_eq!(stats.error_count(code::BUSY), 0);
    assert_eq!(stats.subscribers, 0);
    server.shutdown().unwrap();
}

#[test]
fn f32_stream_requests_get_a_typed_precision_error_frame() {
    // Wire v1 streams f64 blocks only; the f32 fast tier's header flag is
    // reserved for v2. A flagged request must not be misread as an oversized
    // name or silently served widened — it earns its own typed error frame
    // and leaves no subscription behind.
    let server = tcp_server();
    let addr = server.local_addr().clone();

    let mut request = Vec::new();
    encode_request(
        &Request {
            scenario: "two-envelope-complex".into(),
            seed: 1,
            blocks: 1,
            cursor: 0,
        },
        &mut request,
    )
    .unwrap();
    // Set the f32 flag: bit 15 of the little-endian name-length field.
    request[7] |= 0x80;
    let mut raw = Conn::connect(&addr, Duration::from_secs(10)).unwrap();
    raw.write_all(&request).unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap();
    let (payload, _) = split_frame(&response).unwrap();
    let Frame::Error { code: c, message } = decode_frame_payload(payload).unwrap() else {
        panic!("expected an error frame");
    };
    assert_eq!(c, code::PRECISION_UNSUPPORTED);
    assert!(
        message.contains("f64"),
        "the error should say what the server can stream: {message}"
    );

    wait_until("error-frame counter", || server.stats().error_frames == 1);
    assert_eq!(server.stats().error_count(code::PRECISION_UNSUPPORTED), 1);
    assert_eq!(server.stats().subscribers, 0);
    server.shutdown().unwrap();
}

#[test]
fn names_the_wire_cannot_carry_are_refused_before_sending() {
    // A name of 2^15 bytes or more would spill into the precision-flag bit
    // of the length field and earn PRECISION_UNSUPPORTED from the server.
    // The client applies the protocol's name rule itself and sends nothing.
    let server = tcp_server();
    let addr = server.local_addr().clone();

    let mut client = Client::connect(&addr).unwrap();
    let err = client.subscribe(&"x".repeat(40_000), 1, 1).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Protocol(ProtocolError::Oversized {
                len: 40_000,
                max: MAX_NAME_LEN,
                ..
            })
        ),
        "expected the client-side oversized-name error, got {err}"
    );
    let err = client.subscribe("", 1, 1).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Protocol(ProtocolError::BadScenarioName { .. })
        ),
        "expected the client-side empty-name error, got {err}"
    );

    // Nothing reached the server: the same connection still subscribes
    // normally, and no error frame was ever sent.
    client.subscribe("two-envelope-complex", 1, 1).unwrap();
    assert_eq!(drain(&mut client), standalone("two-envelope-complex", 1, 1));
    let stats = server.stats();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.error_frames, 0);
    server.shutdown().unwrap();
}

#[test]
fn resumed_sessions_are_bit_identical_and_counted() {
    let server = tcp_server();
    let addr = server.local_addr().clone();
    let full = standalone("two-envelope-complex", 21, 131);

    // A v2 resume at cursor 3 delivers exactly blocks 3..7 of the
    // uninterrupted stream, with absolute wire indices.
    let mut client = Client::connect(&addr).unwrap();
    let header = client
        .subscribe_at("two-envelope-complex", 21, 4, 3)
        .unwrap();
    assert_eq!(header.blocks, 4);
    let mut block = SampleBlock::empty();
    for expect in 3..7u32 {
        assert_eq!(client.next_block_into(&mut block).unwrap(), Some(expect));
        assert_eq!(
            bits(&block),
            full[expect as usize],
            "resumed block {expect} is not bit-identical to the uninterrupted stream"
        );
    }
    assert_eq!(client.next_block_into(&mut block).unwrap(), None);

    // Longer resumes, each block pinned to the uninterrupted stream.
    let cursors = [63u64, 64, 65, 128, 129];
    for cursor in cursors {
        let mut client = Client::connect(&addr).unwrap();
        client
            .subscribe_at("two-envelope-complex", 21, 2, cursor)
            .unwrap();
        for expect in cursor..cursor + 2 {
            let index = client.next_block_into(&mut block).unwrap();
            assert_eq!(index.map(u64::from), Some(expect));
            assert_eq!(
                bits(&block),
                full[expect as usize],
                "block {expect} resumed at cursor {cursor} is not bit-identical"
            );
        }
        assert_eq!(client.next_block_into(&mut block).unwrap(), None);
    }

    // A cursor-0 subscribe stays a v1 request and does not count.
    let mut fresh = Client::connect(&addr).unwrap();
    fresh.subscribe("two-envelope-complex", 21, 1).unwrap();
    drain(&mut fresh);

    wait_until("subscriptions released", || server.stats().subscribers == 0);
    let stats = server.stats();
    assert_eq!(stats.resumed_sessions, 1 + cursors.len() as u64);
    assert_eq!(stats.blocks_sent, 5 + 2 * cursors.len() as u64);
    assert_eq!(stats.error_frames, 0);
    server.shutdown().unwrap();
}

#[test]
fn admission_control_answers_busy_and_counts_it() {
    let server = tcp_server_with(ServerConfig {
        max_sessions: Some(1),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().clone();

    // First session occupies the only slot mid-stream.
    let mut holder = Client::connect(&addr).unwrap();
    holder.subscribe("two-envelope-complex", 1, 1000).unwrap();
    let mut block = SampleBlock::empty();
    holder.next_block_into(&mut block).unwrap();
    wait_until("holder session active", || server.stats().active == 1);

    // Second session is refused with the typed BUSY frame.
    let mut second = Client::connect(&addr).unwrap();
    let err = second.subscribe("two-envelope-complex", 2, 1).unwrap_err();
    let ServeError::Server { code: c, message } = err else {
        panic!("expected a BUSY server frame, got {err}");
    };
    assert_eq!(c, code::BUSY);
    assert!(
        message.contains("capacity"),
        "BUSY message should say why: {message}"
    );
    assert!(corrfade_serve::is_resumable(&ServeError::Server {
        code: c,
        message,
    }));

    // The refusal is counted under its own code and took no subscription.
    wait_until("busy counter", || {
        server.stats().error_count(code::BUSY) == 1
    });
    assert_eq!(server.stats().subscribers, 1, "only the holder subscribes");

    // Once the slot frees up, the same client address is admitted again.
    drop(holder);
    wait_until("slot released", || server.stats().active == 0);
    let mut third = Client::connect(&addr).unwrap();
    third.subscribe("two-envelope-complex", 3, 1).unwrap();
    assert_eq!(drain(&mut third).len(), 1);
    server.shutdown().unwrap();
}

#[test]
fn idle_connections_are_dropped_at_the_read_deadline() {
    let server = tcp_server_with(ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let addr = server.local_addr().clone();

    // Connect and send nothing: the server must drop us at the idle
    // deadline (no error frame — there is no request to answer) instead of
    // holding the connection open.
    let mut idler = Conn::connect(&addr, Duration::from_secs(10)).unwrap();
    let mut buf = [0u8; 16];
    let started = Instant::now();
    let n = idler.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "idle connection should close without any frame");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the idle deadline should fire well before the client timeout"
    );

    wait_until("idle connection reaped", || server.stats().active == 0);
    let stats = server.stats();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.error_frames, 0);
    server.shutdown().unwrap();
}

#[test]
fn shutdown_joins_all_connection_threads_and_stops_streams() {
    let server = tcp_server();
    let addr = server.local_addr().clone();

    // Three clients in the middle of very long streams.
    let clients: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client
                    .subscribe("two-envelope-complex", 100 + i, u32::MAX)
                    .unwrap();
                let mut block = SampleBlock::empty();
                let mut received = 0u64;
                loop {
                    match client.next_block_into(&mut block) {
                        Ok(Some(_)) => received += 1,
                        // The stream must terminate (shutdown frame, reset,
                        // or close) — never hang and never end cleanly,
                        // since u32::MAX blocks were requested.
                        Ok(None) => panic!("stream ended cleanly during shutdown"),
                        Err(e) => {
                            if let ServeError::Server { code: c, .. } = &e {
                                assert_eq!(*c, code::SERVER_SHUTDOWN);
                            }
                            return received;
                        }
                    }
                }
            })
        })
        .collect();
    wait_until("all three streams active", || {
        server.stats().subscribers == 3
    });

    // shutdown() blocks until the accept thread and every connection
    // thread have been joined — when it returns, nothing is left running.
    server.shutdown().unwrap();

    for handle in clients {
        handle.join().expect("client thread panicked");
    }

    // The listener is gone: new connections are refused.
    assert!(Conn::connect(&addr, Duration::from_millis(500)).is_err());
}

/// Blocks of the `fig4a-spectral` resume skip that this test asks for:
/// about ten seconds of skipping in a debug build.
const LONG_RESUME_CURSOR: u64 = 1024;

#[test]
fn shutdown_during_a_long_resume_skip_returns_within_the_drain_window() {
    // What one skipped block costs on this build and host, the slowest of a
    // few. The drain window fits two, so the session answers before it is
    // cut off.
    let mut probe = lookup("fig4a-spectral").unwrap().build_realtime(5).unwrap();
    let block = (0..8)
        .map(|_| {
            let started = Instant::now();
            probe.skip_blocks(1);
            started.elapsed()
        })
        .max()
        .unwrap();
    let drain = 2 * block;
    let server = tcp_server_with(ServerConfig {
        drain_timeout: drain,
        ..ServerConfig::default()
    });
    let addr = server.local_addr().clone();

    let client = std::thread::spawn(move || {
        let mut client = Client::connect(&addr).unwrap();
        client.subscribe_at("fig4a-spectral", 5, 1, LONG_RESUME_CURSOR)
    });
    // The subscriber gauge rises once the stream is built, before the skip.
    wait_until("the resume to start skipping", || {
        server.stats().subscribers == 1
    });

    let started = Instant::now();
    server.shutdown().unwrap();
    let took = started.elapsed();
    assert!(
        took < drain + block + Duration::from_millis(100),
        "shutdown took {took:?} with a {drain:?} drain window and {block:?} per skipped block"
    );
    match client.join().expect("client thread panicked") {
        Err(ServeError::Server { code: c, .. }) => assert_eq!(c, code::SERVER_SHUTDOWN),
        other => panic!("expected a SERVER_SHUTDOWN frame, got {other:?}"),
    }
}
