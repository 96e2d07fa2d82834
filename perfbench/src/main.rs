//! Closed-loop benchmark of the corrfade workspace.
//!
//! ```text
//! corrfade-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! corrfade-perfbench --workload <name> --seed <n> --setup-probe
//! ```
//!
//! Untraced (`--trace 0`), the workload runs closed loop for `--seconds`
//! and the last stdout line is the result JSON with the end-to-end metrics
//! (all but `setup_s`, which `run.py` measures over fresh processes started
//! with `--setup-probe`). Traced (`--trace 1`), the loop runs untraced and
//! then traced for half the time each, the layer probes follow, the spans
//! are written to `.bench_build/perfbench/`, and the result JSON carries
//! the per-layer metrics. See `perfbench/README.md`.

mod serving;
mod stages;
mod trace;
mod util;
mod workloads;

use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime};

use corrfade::coloring_cache_stats;
use corrfade_parallel::Runtime;

use crate::trace::Tracer;
use crate::util::{median, quantile, Checks, Metrics};
use crate::workloads::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required ({})",
            workloads::NAMES.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The measurements of one closed-loop phase.
#[derive(Default)]
struct Phase {
    lat: Vec<f64>,
    samples: u64,
    ops: u64,
    failed: u64,
    measured: Duration,
}

/// Runs operations back to back until `budget` of timed work is done.
fn drive(w: &mut dyn Workload, tr: &mut Tracer, budget: Duration, index: &mut u64) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    let mut untimed = Duration::ZERO;
    while start.elapsed().saturating_sub(untimed) < budget {
        match w.op(tr, &mut p.lat) {
            Ok(samples) => p.samples += samples,
            Err(e) => {
                p.failed += 1;
                eprintln!("operation failed: {e}");
                if p.failed > 100 {
                    break;
                }
            }
        }
        p.ops += 1;
        let t = Instant::now();
        w.observe(*index);
        untimed += t.elapsed();
        *index += 1;
    }
    p.measured = start.elapsed().saturating_sub(untimed);
    p
}

/// A fixed integer + floating-point loop in pure std, independent of the
/// workspace: timed beside every run so neighbour noise on the machine
/// shows up next to the figures instead of being normalised away.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 11) as f64 * 1e-16;
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn context_line(calibration: &[f64]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("CORRFADE_"))
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.escape_default()))
        .collect();
    env.sort();
    let calib: Vec<String> = calibration.iter().map(|c| format!("{c:.3}")).collect();
    format!(
        "context {{\"nproc\": {nproc}, \"kernel_backend\": \"{}\", \"pool_workers\": {}, \"env\": {{{}}}, \"calibration_ms\": [{}]}}",
        corrfade::linalg::kernel::backend().describe(),
        Runtime::global().workers(),
        env.join(", "),
        calib.join(", ")
    )
}

fn run() -> Result<i32, String> {
    let started = Instant::now();
    let args = parse_args()?;

    if args.setup_probe {
        let mut w = workloads::open(&args.workload, args.seed)?;
        let setup = started.elapsed().as_secs_f64();
        let mut out = std::io::stdout().lock();
        writeln!(out, "ready {setup:.9}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
        w.close()?;
        return Ok(0);
    }

    let mut calibration = vec![calibrate()];
    let mut checks = Checks::default();
    let mut w = workloads::open(&args.workload, args.seed)?;
    w.after_setup();

    let seconds = Duration::from_secs_f64(args.seconds);
    let mut tr = Tracer::new(false);
    let mut index = 0u64;
    let (mut main, traced) = if args.trace {
        let plain = drive(&mut *w, &mut tr, seconds / 2, &mut index);
        tr.set_enabled(true);
        let traced = drive(&mut *w, &mut tr, seconds / 2, &mut index);
        (plain, Some(traced))
    } else {
        (drive(&mut *w, &mut tr, seconds, &mut index), None)
    };
    let rss = peak_rss_mb();
    w.checks(&mut checks);

    let mut metrics = Metrics::default();
    let mut ops = main.ops;
    let mut failed_ops = main.failed;
    if let Some(traced) = &traced {
        ops += traced.ops;
        failed_ops += traced.failed;
        let layers = w.layers(&mut tr, &mut checks)?;
        layers.push_metrics(&mut metrics);
        let cache = coloring_cache_stats();
        metrics.push("linalg.cache_hits", cache.hits as f64, "count");
        metrics.push("linalg.cache_misses", cache.misses as f64, "count");
        metrics.push(
            "trace.overhead_frac",
            quantile(&mut traced.lat.clone(), 0.80) / quantile(&mut main.lat.clone(), 0.80) - 1.0,
            "ratio",
        );
        metrics.push("trace.spans", tr.len() as f64, "count");
    } else {
        metrics.push(
            "samples_per_s",
            main.samples as f64 / main.measured.as_secs_f64(),
            "1/s",
        );
        metrics.push("block_ms_p80", quantile(&mut main.lat, 0.80), "ms");
        metrics.push("peak_rss_mb", rss, "MB");
    }
    w.close()?;
    calibration.push(calibrate());
    if args.trace {
        metrics.push("calib.loop_ms", median(&calibration), "ms");
        let stamp = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let run_id = format!(
            "{}-{}-{}-{stamp}",
            args.workload,
            args.seed,
            std::process::id()
        );
        let path = PathBuf::from(".bench_build")
            .join("perfbench")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&path, &run_id)
            .map_err(|e| format!("writing spans: {e}"))?;
        println!("spans {} written to {}", tr.len(), path.display());
    }

    println!("{}", context_line(&calibration));
    let mut lat = main.lat.clone();
    println!(
        "workload {} seed {}: {ops} ops, {} latency samples, block ms p50 {:.4} p90 {:.4} p99 {:.4}",
        args.workload,
        args.seed,
        lat.len(),
        quantile(&mut lat, 0.50),
        quantile(&mut lat, 0.90),
        quantile(&mut lat, 0.99),
    );
    for line in &checks.lines {
        println!("{line}");
    }
    let attempted = ops + checks.passed + checks.failed;
    let failed = failed_ops + checks.failed;
    let correct = failed == 0 && metrics.0.iter().all(|(_, v, _)| v.is_finite());
    println!("failed_frac {}", failed as f64 / attempted.max(1) as f64);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
