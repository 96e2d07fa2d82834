//! Experiment E9 (extension) — computational scaling of the proposed
//! algorithm:
//!
//! * decomposition cost: eigen coloring vs Cholesky coloring as N grows,
//! * generation throughput (snapshots/s) of the single-instant mode vs N,
//! * parallel speedup of the Monte-Carlo engine vs worker count.
//!
//! The covariance family is the registered `scaling-exp-rho07` scenario,
//! resized over `N` with [`corrfade_scenarios::Scenario::with_envelopes`].
//! Criterion benches (`decomposition.rs`, `parallel_throughput.rs`) measure
//! the same paths with proper statistics; this binary prints a quick
//! wall-clock summary table for EXPERIMENTS.md.

use std::time::Instant;

use corrfade::{cholesky_coloring, eigen_coloring};
use corrfade_bench::report;
use corrfade_parallel::{monte_carlo_covariance_on, ParallelConfig, Runtime};

fn main() {
    report::section("E9: scaling of decomposition, generation and parallel Monte-Carlo");
    let family = corrfade_scenarios::lookup("scaling-exp-rho07").expect("registered scenario");
    println!("scenario family: {} — {}", family.name, family.title);

    println!(
        "{}",
        report::table_row(
            &[
                "N".into(),
                "eigen coloring [us]".into(),
                "Cholesky coloring [us]".into(),
                "snapshots/s (1 thread)".into(),
            ],
            &[6, 22, 24, 24]
        )
    );
    let mut rows = Vec::new();
    for &n in &[2usize, 4, 8, 16, 32, 64] {
        let scenario = family.with_envelopes(n);
        let k = scenario.covariance_matrix().expect("valid scenario");

        let reps = 20;
        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = eigen_coloring(&k).unwrap();
        }
        let eigen_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

        let t0 = Instant::now();
        for _ in 0..reps {
            let _ = cholesky_coloring(&k).unwrap();
        }
        let chol_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

        let mut gen = scenario.build(0xE9).unwrap();
        let samples = 200_000usize;
        let t0 = Instant::now();
        let mut sink = 0.0f64;
        for _ in 0..samples {
            sink += gen.sample_gaussian()[0].re;
        }
        let throughput = samples as f64 / t0.elapsed().as_secs_f64();
        std::hint::black_box(sink);

        println!(
            "{}",
            report::table_row(
                &[
                    format!("{n}"),
                    format!("{eigen_us:.1}"),
                    format!("{chol_us:.1}"),
                    format!("{throughput:.0}"),
                ],
                &[6, 22, 24, 24]
            )
        );
        rows.push(vec![n as f64, eigen_us, chol_us, throughput]);
    }
    report::write_csv(
        "e9_scaling.csv",
        &["n", "eigen_us", "cholesky_us", "snapshots_per_s"],
        &rows,
    );

    // Parallel speedup of the streaming covariance estimator.
    println!();
    println!(
        "{}",
        report::table_row(
            &["threads".into(), "wall time [ms]".into(), "speedup".into()],
            &[8, 16, 10]
        )
    );
    let k = family
        .with_envelopes(16)
        .covariance_matrix()
        .expect("valid scenario");
    let total = 400_000;
    let mut baseline_ms = 0.0;
    let mut rows = Vec::new();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = ParallelConfig {
        chunk_size: 8192,
        seed: 0xE9,
    };
    for &threads in &[1usize, 2, 4, 8] {
        let runtime = Runtime::new(threads.min(cores));
        let t0 = Instant::now();
        let _ = monte_carlo_covariance_on(&runtime, &k, total, &cfg).unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if threads == 1 {
            baseline_ms = ms;
        }
        let speedup = baseline_ms / ms;
        println!(
            "{}",
            report::table_row(
                &[
                    format!("{threads}"),
                    format!("{ms:.1}"),
                    format!("{speedup:.2}x")
                ],
                &[8, 16, 10]
            )
        );
        rows.push(vec![threads as f64, ms, speedup]);
    }
    report::write_csv(
        "e9_parallel_speedup.csv",
        &["threads", "ms", "speedup"],
        &rows,
    );

    println!();
    println!(
        "Expected shape: decomposition cost grows ~N^3 but stays in the microsecond range for \
         practical N; generation throughput falls ~1/N^2 (the matvec); parallel speedup is \
         near-linear until the memory bandwidth of the matvec saturates."
    );
}
