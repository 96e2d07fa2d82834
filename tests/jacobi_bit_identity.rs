//! Bit-identity of [`hermitian_eigen`] with the row-major cyclic Jacobi loop
//! it replaced.
//!
//! Every generated stream goes through the eigenvectors of its covariance
//! (`L = V·√Λ̂`), so the decomposition's bits are part of the output
//! contract: a change of storage layout or loop structure must reproduce
//! every eigenvalue and eigenvector entry by `f64::to_bits`, signed zeros
//! included. [`reference_hermitian_eigen`] below is that earlier loop,
//! kept here as the reference and nowhere in the library.
//!
//! The inputs cover n = 1..=70, 96 and 128 with complex entries, real
//! entries whose imaginary parts are `+0.0` or `-0.0`, degenerate spectra
//! (identity, repeated blocks), rank-1, indefinite matrices, couplings that
//! the sweep skips (exact zeros and entries below its threshold), an
//! off-diagonal mass that stalls above the convergence target, and the 16
//! group covariances of the 1012-link `wsn-epoch` network.

#[path = "../crates/network/tests/support/wsn_epoch.rs"]
mod wsn_epoch;

use corrfade_linalg::{c64, hermitian_eigen, CMatrix, Complex64, HermitianEigen};

/// The row-major cyclic complex Jacobi loop, rotation for rotation: the
/// mirrored writes keep the working matrix Hermitian, `V` accumulates the
/// rotations by rows. Returns eigenvalues in descending order.
fn reference_hermitian_eigen(a: &CMatrix) -> HermitianEigen {
    let n = a.rows();
    let mut m = a.clone();
    m.hermitianize();
    let mut v = CMatrix::identity(n);
    let frob = m.frobenius_norm().max(f64::MIN_POSITIVE);
    let target = (f64::EPSILON * frob).powi(2);
    let off = |m: &CMatrix| {
        let mut s = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    s += m[(i, j)].norm_sqr();
                }
            }
        }
        s
    };

    let mut sweeps = 0;
    while off(&m) > target && sweeps < 64 {
        sweeps += 1;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                let abs_apq = apq.abs();
                if abs_apq <= f64::EPSILON * frob {
                    continue;
                }
                let phase = apq.unscale(abs_apq);
                let phase_conj = phase.conj();
                let app = m[(p, p)].re;
                let aqq = m[(q, q)].re;
                let tau = (aqq - app) / (2.0 * abs_apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                for r in 0..n {
                    if r == p || r == q {
                        continue;
                    }
                    let arp = m[(r, p)];
                    let arq = m[(r, q)];
                    let new_rp = arp.scale(c) - (arq * phase_conj).scale(s);
                    let new_rq = arp.scale(s) + (arq * phase_conj).scale(c);
                    m[(r, p)] = new_rp;
                    m[(p, r)] = new_rp.conj();
                    m[(r, q)] = new_rq;
                    m[(q, r)] = new_rq.conj();
                }
                m[(p, p)] = c64(app - t * abs_apq, 0.0);
                m[(q, q)] = c64(aqq + t * abs_apq, 0.0);
                m[(p, q)] = Complex64::ZERO;
                m[(q, p)] = Complex64::ZERO;
                for r in 0..n {
                    let vrp = v[(r, p)];
                    let vrq = v[(r, q)];
                    v[(r, p)] = vrp.scale(c) - (vrq * phase_conj).scale(s);
                    v[(r, q)] = vrp.scale(s) + (vrq * phase_conj).scale(c);
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    let raw: Vec<f64> = (0..n).map(|i| m[(i, i)].re).collect();
    order.sort_by(|&i, &j| {
        raw[j]
            .partial_cmp(&raw[i])
            .unwrap_or(core::cmp::Ordering::Equal)
    });
    HermitianEigen {
        eigenvalues: order.iter().map(|&i| raw[i]).collect(),
        eigenvectors: CMatrix::from_fn(n, n, |i, j| v[(i, order[j])]),
    }
}

fn assert_same_bits(a: &CMatrix, label: &str) {
    let got = hermitian_eigen(a).unwrap_or_else(|e| panic!("{label}: {e}"));
    let want = reference_hermitian_eigen(a);
    let n = a.rows();
    for k in 0..n {
        assert_eq!(
            got.eigenvalues[k].to_bits(),
            want.eigenvalues[k].to_bits(),
            "{label}: eigenvalue {k}: {} vs {}",
            got.eigenvalues[k],
            want.eigenvalues[k]
        );
    }
    for i in 0..n {
        for j in 0..n {
            let (g, w) = (got.eigenvectors[(i, j)], want.eigenvectors[(i, j)]);
            assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "{label}: eigenvector entry ({i}, {j}): {g:?} vs {w:?}"
            );
        }
    }
}

/// Deterministic xorshift draws in `[-0.5, 0.5)`.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    /// A signed zero, `+0.0` or `-0.0` with equal odds.
    fn signed_zero(&mut self) -> f64 {
        if self.next() < 0.0 {
            -0.0
        } else {
            0.0
        }
    }
}

/// A random Hermitian matrix; `real` gives imaginary parts of random sign
/// zero, `shift` is added to every diagonal entry.
fn random_hermitian(n: usize, seed: u64, real: bool, shift: f64) -> CMatrix {
    let mut d = Draws(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut a = CMatrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = c64(shift + d.next(), d.signed_zero());
        for j in (i + 1)..n {
            let im = if real { d.signed_zero() } else { d.next() };
            let z = c64(d.next(), im);
            a[(i, j)] = z;
            a[(j, i)] = z.conj();
        }
    }
    a
}

#[test]
fn complex_hermitian_matrices_n1_to_70() {
    for n in 1..=70 {
        let a = random_hermitian(n, n as u64, false, 2.0);
        assert_same_bits(&a, &format!("complex n={n}"));
    }
}

#[test]
fn real_matrices_with_signed_zero_imaginary_parts_n1_to_70() {
    for n in 1..=70 {
        let a = random_hermitian(n, 1000 + n as u64, true, 2.0);
        assert_same_bits(&a, &format!("real n={n}"));
    }
}

#[test]
fn complex_and_real_matrices_n96_and_n128() {
    for n in [96usize, 128] {
        let a = random_hermitian(n, 4000 + n as u64, false, 2.0);
        assert_same_bits(&a, &format!("complex n={n}"));
        let a = random_hermitian(n, 5000 + n as u64, true, 2.0);
        assert_same_bits(&a, &format!("real n={n}"));
    }
}

/// Matrices whose `p`-loops end on skipped pivots after applied rotations.
/// Couplings between indices of different residues mod `k` are zero (which
/// rotations within a residue class keep zero, up to sign) or far below the
/// skip threshold, and the last index is decoupled from the rest, so many
/// `p`-loops rotate first and then skip their last pivots.
#[test]
fn p_loops_ending_on_skipped_pivots() {
    for n in [3usize, 5, 8, 17, 33, 64] {
        for k in [2usize, 3] {
            for (tiny, real) in [(0.0, false), (0.0, true), (1e-20, false)] {
                let a = random_hermitian(n, 6000 + (n * k) as u64, real, 2.0);
                let mut d = Draws(7000 + n as u64);
                let classes = CMatrix::from_fn(n, n, |i, j| {
                    if i % k == j % k {
                        a[(i, j)]
                    } else {
                        let z = c64(tiny * d.next(), tiny * d.next());
                        if i < j {
                            z
                        } else {
                            // Not Hermitian, but within the input tolerance;
                            // `hermitianize` averages it away.
                            z.conj()
                        }
                    }
                });
                let label = format!("residues mod {k}, n={n}, tiny={tiny}, real={real}");
                assert_same_bits(&classes, &label);
            }
        }
        let a = random_hermitian(n, 8000 + n as u64, false, 2.0);
        let decoupled = CMatrix::from_fn(n, n, |i, j| {
            if i != j && (i == n - 1 || j == n - 1) {
                Complex64::ZERO
            } else {
                a[(i, j)]
            }
        });
        assert_same_bits(&decoupled, &format!("last index decoupled n={n}"));
    }
}

/// Off-diagonal entries each at or below the skip threshold `ε·‖A‖_F` but
/// together above the target `(ε·‖A‖_F)²`: a sweep applies no rotation and
/// the mass never falls, so the reference loop runs out its 64 sweeps. With
/// `couple` (n ≥ 9, so that enough small entries are left), one large
/// coupling of indices 0 and 1 is rotated away first.
#[test]
fn off_diagonal_mass_that_stalls_above_target() {
    for n in [3usize, 4, 9, 16, 64] {
        for couple in [false, true] {
            if couple && n < 9 {
                continue;
            }
            let tiny = 0.5 * f64::EPSILON * (n as f64).sqrt();
            let mut d = Draws(9000 + n as u64);
            let mut a = CMatrix::zeros(n, n);
            for i in 0..n {
                a[(i, i)] = c64(1.0 + 0.25 * d.next(), 0.0);
                for j in (i + 1)..n {
                    let phase = 6.0 * d.next();
                    let z = if couple && (i, j) == (0, 1) {
                        c64(0.3, 0.2)
                    } else if couple && i < 2 {
                        Complex64::ZERO
                    } else {
                        c64(tiny * phase.cos(), tiny * phase.sin())
                    };
                    a[(i, j)] = z;
                    a[(j, i)] = z.conj();
                }
            }
            let threshold = f64::EPSILON * a.frobenius_norm();
            let mut mass = 0.0;
            for i in 0..n {
                for j in 0..n {
                    if i != j && !(couple && i < 2 && j < 2) {
                        assert!(a[(i, j)].abs() <= threshold);
                        mass += a[(i, j)].norm_sqr();
                    }
                }
            }
            assert!(mass > threshold * threshold, "n={n}: the mass must stall");
            assert_same_bits(&a, &format!("stalled n={n}, couple={couple}"));
        }
    }
}

#[test]
fn indefinite_matrices() {
    for n in (1..=70).step_by(3) {
        let real = n % 2 == 0;
        let a = random_hermitian(n, 2000 + n as u64, real, 0.0);
        assert_same_bits(&a, &format!("indefinite n={n} real={real}"));
    }
}

#[test]
fn degenerate_and_singular_spectra() {
    for n in [1usize, 2, 3, 5, 8, 16, 33, 64, 70] {
        assert_same_bits(&CMatrix::identity(n), &format!("identity n={n}"));

        // Repeated 2×2 blocks on the diagonal, plus a coupling of all ones:
        // eigenvalues repeat n/2 times before the coupling splits one off.
        let block = [c64(1.5, 0.0), c64(0.25, 0.5)];
        let repeated = CMatrix::from_fn(n, n, |i, j| {
            if i / 2 != j / 2 {
                Complex64::ZERO
            } else if i == j {
                block[0]
            } else if i < j {
                block[1]
            } else {
                block[1].conj()
            }
        });
        assert_same_bits(&repeated, &format!("repeated blocks n={n}"));
        let ones = CMatrix::from_fn(n, n, |i, j| repeated[(i, j)] + c64(1.0, 0.0));
        assert_same_bits(&ones, &format!("repeated blocks + J n={n}"));

        // Rank 1: v·vᴴ, complex and real.
        let mut d = Draws(3000 + n as u64);
        let v: Vec<Complex64> = (0..n).map(|_| c64(d.next(), d.next())).collect();
        let rank1 = CMatrix::from_fn(n, n, |i, j| v[i] * v[j].conj());
        assert_same_bits(&rank1, &format!("rank-1 complex n={n}"));
        let rank1_real = CMatrix::from_fn(n, n, |i, j| c64(v[i].re * v[j].re, 0.0));
        assert_same_bits(&rank1_real, &format!("rank-1 real n={n}"));
    }
}

/// The 16 group covariances of `wsn-epoch`.
#[test]
fn wsn_epoch_group_covariances() {
    let covariances = wsn_epoch::group_covariances();
    assert_eq!(covariances.len(), 16);
    for (g, k) in covariances.iter().enumerate() {
        assert_same_bits(k, &format!("wsn-epoch group {g} (n={})", k.rows()));
    }
}
