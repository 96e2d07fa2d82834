//! Experiment E10 (extension) — the "shortcoming matrix" the paper's Sec. 1
//! argues in prose: which conventional method can handle which scenario, and
//! with what accuracy, compared with the proposed algorithm.
//!
//! Every scenario is resolved from the registry by name:
//! * S1 — `fig4b-spatial`: real, PD, equal powers, N = 3 (paper Eq. 23),
//! * S2 — `fig4a-spectral`: complex, PD, equal powers, N = 3 (paper Eq. 22),
//! * S3 — `two-envelope-complex`: N = 2, equal powers, complex correlation,
//! * S4 — `unequal-power-geometric`: unequal powers, real correlation,
//! * S5 — `indefinite-rho09`: indefinite (non-PSD) target,
//! * S6 — `near-singular-eps1e9`: near-singular PD target, N = 4.

use corrfade::{ChannelStream, CorrelatedRayleighGenerator, SampleBlock};
use corrfade_baselines::BaselineMethod;
use corrfade_bench::report;
use corrfade_linalg::CMatrix;
use corrfade_scenarios::lookup;

fn scenarios() -> Vec<(String, CMatrix)> {
    [
        ("S1", "fig4b-spatial"),
        ("S2", "fig4a-spectral"),
        ("S3", "two-envelope-complex"),
        ("S4", "unequal-power-geometric"),
        ("S5", "indefinite-rho09"),
        ("S6", "near-singular-eps1e9"),
    ]
    .into_iter()
    .map(|(tag, name)| {
        let k = lookup(name)
            .expect("registered scenario")
            .covariance_matrix()
            .expect("valid scenario");
        (format!("{tag} {name}"), k)
    })
    .collect()
}

fn main() {
    report::section("E10: which method handles which scenario (paper Sec. 1, tabulated)");

    let mut header = vec!["scenario".to_string(), "proposed".to_string()];
    header.extend(BaselineMethod::ALL.iter().map(|m| m.name().to_string()));
    let mut widths: Vec<usize> = header.iter().map(|h| h.len().max(10) + 2).collect();
    widths[0] = 28;
    println!("{}", report::table_row(&header, &widths));

    // Every constructible method is driven through the shared
    // ChannelStream interface into this pooled planar block, so the matrix
    // certifies like-for-like streaming as well as constructibility.
    let mut block = SampleBlock::empty();
    for (name, k) in scenarios() {
        let mut cells = vec![name];
        // The proposed algorithm: always constructible; report whether the
        // target had to be PSD-forced.
        match CorrelatedRayleighGenerator::new(k.clone(), 0xE10) {
            Ok(mut g) => {
                g.next_block_into(&mut block)
                    .expect("streaming never fails");
                if g.coloring().psd.clipped_count > 0 {
                    cells.push("ok (PSD-forced)".into());
                } else {
                    cells.push("ok".into());
                }
            }
            Err(e) => cells.push(format!("FAIL: {e}")),
        }
        for method in BaselineMethod::ALL {
            match method.try_stream(&k, 0xE10) {
                Ok(mut stream) => {
                    stream
                        .next_block_into(&mut block)
                        .expect("streaming never fails after construction");
                    cells.push("ok (stream)".into());
                }
                Err(e) => cells.push(short_reason(&e)),
            }
        }
        println!("{}", report::table_row(&cells, &widths));
    }

    println!();
    println!("legend: 'unequal' = equal-power restriction, 'N=2' = two-envelope restriction,");
    println!("        'complex' = real-covariance restriction, 'chol' = Cholesky/PSD failure,");
    println!("        '(stream)' = drives the shared ChannelStream block interface.");
    println!();
    println!(
        "Expected shape (paper Sec. 1): only the proposed algorithm handles every scenario; each \
         conventional method fails on at least one."
    );
}

fn short_reason(e: &corrfade_baselines::BaselineError) -> String {
    use corrfade_baselines::BaselineError as E;
    match e {
        E::UnequalPowersUnsupported { .. } => "fail: unequal".into(),
        E::UnsupportedDimension { .. } => "fail: N=2 only".into(),
        E::CholeskyFailed { .. } => "fail: chol".into(),
        E::NotPositiveSemidefinite { .. } => "fail: not PSD".into(),
        E::ComplexCovarianceUnsupported { .. } => "fail: complex".into(),
        E::Invalid { .. } => "fail: invalid".into(),
    }
}
