//! CI smoke gate for fleet scaling: advances the full 16-scenario fleet
//! sequentially and on the pooled runtime, and **fails when the pool does
//! not beat the sequential advance** by the required margin — the guard
//! against the parallel path silently degenerating into a serialized one
//! again (a global cache mutex held across decompositions, a submitter
//! idling at the pool barrier, …).
//!
//! ```text
//! fleet_scaling_check [--margin 2.0] [--reps 30] [--min-cores 4]
//! ```
//!
//! Wall-clock speedup needs wall-clock parallelism: on fewer than
//! `--min-cores` hardware threads (default 4) the gate prints the measured
//! ratio for the record and **skips** — a 1- or 2-core runner physically
//! cannot show a 2× fleet speedup, and failing there would only teach
//! people to ignore the job. On a qualifying runner the pooled advance of
//! 16 independent streams must be at least `--margin`× faster (default
//! 2.0) than the sequential reference, comparing medians over `--reps`
//! advances after warm-up. `FLEET_SCALING_MARGIN`, `FLEET_SCALING_REPS`
//! and `FLEET_SCALING_MIN_CORES` override the defaults the same way.
//!
//! The produced samples are bit-identical between both modes by
//! construction (the workspace's fleet-equivalence tests pin that); this
//! gate only judges throughput.

use std::process::ExitCode;
use std::time::Instant;

use corrfade_parallel::{Runtime, StreamFleet};

/// Median wall-clock of `reps` runs of `advance` (nanoseconds).
fn median_ns(reps: usize, mut advance: impl FnMut()) -> f64 {
    let mut times: Vec<u128> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            advance();
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2] as f64
}

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> Result<T, String> {
    match std::env::var(name) {
        Ok(value) => value
            .trim()
            .parse()
            .map_err(|_| format!("invalid {name}={value:?}")),
        Err(_) => Ok(default),
    }
}

fn run() -> Result<bool, String> {
    let mut margin: f64 = env_or("FLEET_SCALING_MARGIN", 2.0)?;
    let mut reps: usize = env_or("FLEET_SCALING_REPS", 30)?;
    let mut min_cores: usize = env_or("FLEET_SCALING_MIN_CORES", 4)?;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--margin" => {
                margin = value("--margin")?
                    .parse()
                    .map_err(|e| format!("bad --margin: {e}"))?;
            }
            "--reps" => {
                reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("bad --reps: {e}"))?;
            }
            "--min-cores" => {
                min_cores = value("--min-cores")?
                    .parse()
                    .map_err(|e| format!("bad --min-cores: {e}"))?;
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?}\n\
                     usage: fleet_scaling_check [--margin <x>] [--reps <n>] [--min-cores <n>]"
                ));
            }
        }
    }
    if reps == 0 {
        return Err("--reps must be positive".into());
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let names = corrfade_scenarios::names();
    let mut fleet = StreamFleet::open(&names, 7).map_err(|e| e.to_string())?;
    let runtime = Runtime::global();
    println!(
        "fleet_scaling_check: {} streams, {} samples/advance, {} hardware threads, \
         pool of {} executor(s)",
        fleet.len(),
        fleet.samples_per_advance(),
        cores,
        runtime.workers()
    );

    // Warm up both paths: decomposition/FFT caches, per-stream blocks, the
    // pool's workers — the steady state the gate is about.
    for _ in 0..3 {
        fleet.advance_sequential().map_err(|e| e.to_string())?;
        fleet.advance().map_err(|e| e.to_string())?;
    }

    let sequential = median_ns(reps, || fleet.advance_sequential().unwrap());
    let pooled = median_ns(reps, || fleet.advance().unwrap());
    let speedup = sequential / pooled;
    println!(
        "sequential {:.3} ms, pooled {:.3} ms -> speedup {speedup:.2}x \
         (required {margin:.2}x on >= {min_cores} cores, medians over {reps} advances)",
        sequential / 1e6,
        pooled / 1e6,
    );

    if cores < min_cores {
        println!(
            "SKIP: only {cores} hardware thread(s) — a {margin:.2}x wall-clock speedup \
             is unmeasurable below {min_cores} cores; ratio recorded above"
        );
        return Ok(true);
    }
    if speedup >= margin {
        println!("PASS: pooled advance beats sequential by the required margin");
        Ok(true)
    } else {
        println!(
            "FAIL: pooled advance is only {speedup:.2}x faster than sequential \
             (required {margin:.2}x) — the parallel path is not scaling"
        );
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fleet_scaling_check: {e}");
            ExitCode::FAILURE
        }
    }
}
