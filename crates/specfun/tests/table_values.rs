//! Table-value regression tests for the special functions, against published
//! reference values (Abramowitz & Stegun table 9.1, cross-checked
//! with an exact rational-arithmetic series evaluation). Everything is
//! asserted to 1e-10 or better — far tighter than any tolerance the fading
//! models need, so silent precision regressions surface immediately.

use corrfade_specfun::{bessel_j0, bessel_j1, bessel_jn, rayleigh_cdf};

const TOL: f64 = 1e-10;

fn check(name: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= TOL,
        "{name}: got {got:.15}, reference {want:.15}, err {:.3e}",
        (got - want).abs()
    );
}

#[test]
fn bessel_j0_table() {
    check("J0(0)", bessel_j0(0.0), 1.0);
    check("J0(0.5)", bessel_j0(0.5), 0.938_469_807_240_812_9);
    check("J0(1)", bessel_j0(1.0), 0.765_197_686_557_966_6);
    check("J0(2)", bessel_j0(2.0), 0.223_890_779_141_235_67);
    check("J0(5)", bessel_j0(5.0), -0.177_596_771_314_338_3);
    check("J0(10)", bessel_j0(10.0), -0.245_935_764_451_348_35);
    // Evenness.
    check("J0(-2)", bessel_j0(-2.0), bessel_j0(2.0));
}

#[test]
fn bessel_j1_table() {
    check("J1(0)", bessel_j1(0.0), 0.0);
    check("J1(0.5)", bessel_j1(0.5), 0.242_268_457_674_873_9);
    check("J1(1)", bessel_j1(1.0), 0.440_050_585_744_933_5);
    check("J1(2)", bessel_j1(2.0), 0.576_724_807_756_873_4);
    check("J1(5)", bessel_j1(5.0), -0.327_579_137_591_465_23);
    // Oddness.
    check("J1(-2)", bessel_j1(-2.0), -bessel_j1(2.0));
}

#[test]
fn bessel_jn_table() {
    check("J2(2)", bessel_jn(2, 2.0), 0.352_834_028_615_637_73);
    check("J3(5)", bessel_jn(3, 5.0), 0.364_831_230_613_667);
    // Consistency with the dedicated orders.
    check("J0 via Jn", bessel_jn(0, 1.5), bessel_j0(1.5));
    check("J1 via Jn", bessel_jn(1, 1.5), bessel_j1(1.5));
}

#[test]
fn bessel_recurrence_holds() {
    // J_{n-1}(x) + J_{n+1}(x) = (2n/x)·J_n(x), a strong cross-check tying
    // all computed orders together.
    for &x in &[0.5, 1.0, 2.5, 5.0, 8.0] {
        for n in 1u32..6 {
            let lhs = bessel_jn(n - 1, x) + bessel_jn(n + 1, x);
            let rhs = 2.0 * n as f64 / x * bessel_jn(n, x);
            assert!(
                (lhs - rhs).abs() < 1e-10,
                "recurrence failed at n = {n}, x = {x}: {lhs} vs {rhs}"
            );
        }
    }
}

#[test]
fn rayleigh_cdf_reference_point() {
    // Rayleigh CDF: 1 − exp(−r²/(2σ²)); at r = σ√(2 ln 2) it is 1/2.
    let sigma = 0.7;
    let median = sigma * (2.0 * 2f64.ln()).sqrt();
    check("Rayleigh median", rayleigh_cdf(median, sigma), 0.5);
}
