//! `loadgen` — concurrent-session load generator for `corrfade-serve`.
//!
//! Boots an in-process server (or targets an external one), opens
//! `--sessions` concurrent connections, releases them through a barrier,
//! and streams `--blocks` Doppler blocks per session, recording per-block
//! and per-session latency. Reports p50/p95/p99 block latency, session
//! p50 and aggregate samples/sec; with `--json-dir` (or the
//! `CORRFADE_BENCH_JSON_DIR` environment variable) the medians land in
//! `BENCH_serve_loadgen.json` in the workspace bench-report format, so
//! `bench_regression_check` gates them like any other benchmark.
//!
//! ```text
//! loadgen [--sessions N] [--blocks B] [--scenario a,b,...] [--seed S]
//!         [--tcp HOST:PORT | --unix PATH          — bind in-process server]
//!         [--connect-tcp HOST:PORT | --connect-unix PATH — external server]
//!         [--timeout-secs T] [--json-dir DIR]
//! ```
//!
//! Defaults: 1000 sessions × 2 blocks of `two-envelope-complex` over an
//! in-process Unix-socket server in the system temp directory.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use corrfade::SampleBlock;
use corrfade_serve::{Client, RetryPolicy, ServeAddr, Server, ServerConfig};

/// Parsed command line.
struct Args {
    sessions: usize,
    blocks: u32,
    scenarios: Vec<String>,
    seed: u64,
    /// `None` boots an in-process server on `bind`; `Some` targets an
    /// already-running one.
    connect: Option<ServeAddr>,
    bind: ServeAddr,
    timeout: Duration,
    json_dir: Option<PathBuf>,
}

fn default_bind() -> ServeAddr {
    #[cfg(unix)]
    {
        ServeAddr::Unix(
            std::env::temp_dir().join(format!("corrfade-loadgen-{}.sock", std::process::id())),
        )
    }
    #[cfg(not(unix))]
    {
        ServeAddr::Tcp("127.0.0.1:0".parse().expect("static addr parses"))
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sessions: 1000,
        blocks: 2,
        scenarios: vec!["two-envelope-complex".to_string()],
        seed: 0x5EED,
        connect: None,
        bind: default_bind(),
        timeout: Duration::from_secs(60),
        json_dir: std::env::var_os("CORRFADE_BENCH_JSON_DIR").map(PathBuf::from),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--sessions" => {
                args.sessions = value("--sessions")?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?;
            }
            "--blocks" => {
                args.blocks = value("--blocks")?
                    .parse()
                    .map_err(|e| format!("--blocks: {e}"))?;
            }
            "--scenario" => {
                args.scenarios = value("--scenario")?
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--tcp" => {
                args.bind =
                    ServeAddr::Tcp(value("--tcp")?.parse().map_err(|e| format!("--tcp: {e}"))?);
            }
            #[cfg(unix)]
            "--unix" => args.bind = ServeAddr::Unix(PathBuf::from(value("--unix")?)),
            "--connect-tcp" => {
                args.connect = Some(ServeAddr::Tcp(
                    value("--connect-tcp")?
                        .parse()
                        .map_err(|e| format!("--connect-tcp: {e}"))?,
                ));
            }
            #[cfg(unix)]
            "--connect-unix" => {
                args.connect = Some(ServeAddr::Unix(PathBuf::from(value("--connect-unix")?)));
            }
            "--timeout-secs" => {
                args.timeout = Duration::from_secs(
                    value("--timeout-secs")?
                        .parse()
                        .map_err(|e| format!("--timeout-secs: {e}"))?,
                );
            }
            "--json-dir" => args.json_dir = Some(PathBuf::from(value("--json-dir")?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.sessions == 0 {
        return Err("--sessions must be at least 1".to_string());
    }
    if args.scenarios.iter().any(String::is_empty) {
        return Err("--scenario names must be non-empty".to_string());
    }
    Ok(args)
}

/// What one session thread brings home.
struct SessionResult {
    /// Per-block `next_block_into` latency, nanoseconds.
    block_ns: Vec<u64>,
    /// Subscribe-to-end-frame wall time, nanoseconds.
    session_ns: u64,
    /// Complex samples received.
    samples: u64,
    error: Option<String>,
}

fn run_session(
    addr: &ServeAddr,
    scenario: &str,
    seed: u64,
    blocks: u32,
    timeout: Duration,
    start: &Barrier,
    peak_probe: &AtomicU64,
) -> SessionResult {
    let mut result = SessionResult {
        block_ns: Vec::with_capacity(blocks as usize),
        session_ns: 0,
        samples: 0,
        error: None,
    };
    // The listener backlog (128) is far smaller than the session count, so
    // early connects race the accept loop and must back off within the
    // `--timeout-secs` budget.
    let mut client = match Client::connect_with_retry(addr, &RetryPolicy::within(timeout)) {
        Ok(client) => client,
        Err(e) => {
            result.error = Some(format!("connect to {addr}: {e}"));
            start.wait();
            return result;
        }
    };
    // All sessions hold their connection open here — the barrier is the
    // concurrency high-water mark.
    peak_probe.fetch_add(1, Ordering::Relaxed);
    start.wait();

    let session_start = Instant::now();
    let header = match client.subscribe(scenario, seed, blocks) {
        Ok(header) => header,
        Err(e) => {
            result.error = Some(format!("subscribe `{scenario}`: {e}"));
            return result;
        }
    };
    let block_samples = u64::from(header.envelopes) * u64::from(header.samples);
    let mut block = SampleBlock::empty();
    loop {
        let t = Instant::now();
        match client.next_block_into(&mut block) {
            Ok(Some(_)) => {
                result
                    .block_ns
                    .push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                result.samples += block_samples;
            }
            Ok(None) => break,
            Err(e) => {
                result.error = Some(format!("stream `{scenario}`: {e}"));
                break;
            }
        }
    }
    result.session_ns = u64::try_from(session_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    result
}

/// Nearest-rank percentile of a **sorted** slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn format_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn write_json_report(
    dir: &std::path::Path,
    block_sorted: &[u64],
    session_sorted: &[u64],
    wall_ns_per_block: f64,
    samples_per_block: u64,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_serve_loadgen.json");
    let mut out = std::fs::File::create(&path)?;
    writeln!(out, "{{")?;
    writeln!(out, "  \"bench\": \"serve_loadgen\",")?;
    writeln!(out, "  \"results\": [")?;
    writeln!(
        out,
        "    {{\"id\": \"serve/loadgen/block_p50\", \"median_ns\": {:.1}}},",
        percentile(block_sorted, 50.0) as f64
    )?;
    writeln!(
        out,
        "    {{\"id\": \"serve/loadgen/block_p95\", \"median_ns\": {:.1}}},",
        percentile(block_sorted, 95.0) as f64
    )?;
    writeln!(
        out,
        "    {{\"id\": \"serve/loadgen/block_p99\", \"median_ns\": {:.1}}},",
        percentile(block_sorted, 99.0) as f64
    )?;
    writeln!(
        out,
        "    {{\"id\": \"serve/loadgen/session_p50\", \"median_ns\": {:.1}}},",
        percentile(session_sorted, 50.0) as f64
    )?;
    writeln!(
        out,
        "    {{\"id\": \"serve/loadgen/wall_per_block\", \"median_ns\": {wall_ns_per_block:.1}, \
         \"throughput\": {{\"elements\": {samples_per_block}}}}}"
    )?;
    writeln!(out, "  ]")?;
    writeln!(out, "}}")?;
    eprintln!("loadgen: wrote {}", path.display());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };

    // Boot the in-process server unless an external one was given.
    let server = if args.connect.is_none() {
        match Server::bind(args.bind.clone(), ServerConfig::default()) {
            Ok(server) => Some(server),
            Err(e) => {
                eprintln!("loadgen: bind {}: {e}", args.bind);
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let addr = args
        .connect
        .clone()
        .unwrap_or_else(|| server.as_ref().expect("bound above").local_addr().clone());

    println!(
        "serve-loadgen: {} sessions x {} blocks, scenario(s) {} via {addr}",
        args.sessions,
        args.blocks,
        args.scenarios.join(",")
    );

    let barrier = Arc::new(Barrier::new(args.sessions + 1));
    let peak_probe = Arc::new(AtomicU64::new(0));
    let addr = Arc::new(addr);
    let scenarios: Arc<Vec<String>> = Arc::new(args.scenarios.clone());

    let mut handles = Vec::with_capacity(args.sessions);
    for i in 0..args.sessions {
        let barrier = Arc::clone(&barrier);
        let peak_probe = Arc::clone(&peak_probe);
        let addr = Arc::clone(&addr);
        let scenarios = Arc::clone(&scenarios);
        let blocks = args.blocks;
        let timeout = args.timeout;
        let seed = args.seed.wrapping_add(i as u64);
        let handle = std::thread::Builder::new()
            .name(format!("loadgen-{i}"))
            // Sessions mostly block on sockets; a small stack keeps
            // thousands of them cheap.
            .stack_size(128 * 1024)
            .spawn(move || {
                let scenario = &scenarios[i % scenarios.len()];
                run_session(
                    &addr,
                    scenario,
                    seed,
                    blocks,
                    timeout,
                    &barrier,
                    &peak_probe,
                )
            })
            .expect("spawning a session thread");
        handles.push(handle);
    }

    // Releases every session at once; the wall clock starts here.
    barrier.wait();
    let concurrent = peak_probe.load(Ordering::Relaxed);
    let wall_start = Instant::now();

    let mut block_ns = Vec::new();
    let mut session_ns = Vec::new();
    let mut total_samples = 0u64;
    let mut failures: Vec<String> = Vec::new();
    for handle in handles {
        let result = handle.join().expect("session thread panicked");
        block_ns.extend_from_slice(&result.block_ns);
        if result.error.is_none() {
            session_ns.push(result.session_ns);
        } else if let Some(e) = result.error {
            failures.push(e);
        }
        total_samples += result.samples;
    }
    let wall = wall_start.elapsed();

    block_ns.sort_unstable();
    session_ns.sort_unstable();
    let ok = args.sessions - failures.len();
    let total_blocks = block_ns.len() as u64;
    let wall_ns = wall.as_nanos() as f64;
    let samples_per_sec = if wall.as_secs_f64() > 0.0 {
        total_samples as f64 / wall.as_secs_f64()
    } else {
        0.0
    };

    println!("  sessions_ok ....... {ok}/{}", args.sessions);
    println!("  concurrent_at_bar . {concurrent}");
    println!(
        "  block p50/p95/p99 . {} / {} / {}",
        format_ns(percentile(&block_ns, 50.0)),
        format_ns(percentile(&block_ns, 95.0)),
        format_ns(percentile(&block_ns, 99.0)),
    );
    println!(
        "  session p50 ....... {}",
        format_ns(percentile(&session_ns, 50.0))
    );
    println!("  blocks/samples .... {total_blocks} / {total_samples}");
    println!(
        "  samples/sec ....... {samples_per_sec:.3e}  (wall {})",
        format_ns(wall.as_nanos().min(u128::from(u64::MAX)) as u64)
    );
    for e in failures.iter().take(5) {
        eprintln!("  failure: {e}");
    }
    if failures.len() > 5 {
        eprintln!("  … and {} more failures", failures.len() - 5);
    }

    if let Some(dir) = &args.json_dir {
        let samples_per_block = total_samples.checked_div(total_blocks).unwrap_or(0);
        let wall_per_block = if total_blocks > 0 {
            wall_ns / total_blocks as f64
        } else {
            0.0
        };
        if let Err(e) = write_json_report(
            dir,
            &block_ns,
            &session_ns,
            wall_per_block,
            samples_per_block,
        ) {
            eprintln!("loadgen: writing JSON report: {e}");
            std::process::exit(1);
        }
    }

    if let Some(server) = server {
        let stats = server.stats();
        println!(
            "  server stats ...... accepted {} blocks_sent {} error_frames {}",
            stats.accepted, stats.blocks_sent, stats.error_frames
        );
        if let Err(e) = server.shutdown() {
            eprintln!("loadgen: shutdown: {e}");
            std::process::exit(1);
        }
    }

    if !failures.is_empty() {
        std::process::exit(1);
    }
}
