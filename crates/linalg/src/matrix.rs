//! Dense, row-major complex matrices.
//!
//! [`CMatrix`] is deliberately small and self-contained: the covariance
//! matrices handled by the fading generator are `N × N` with `N` rarely
//! larger than a few dozen (number of sub-carriers or antennas), so a simple
//! `Vec<Complex64>`-backed dense type with straightforward `O(N³)` kernels is
//! both adequate and easy to audit. The hot path of the generator (the
//! per-sample coloring `Z = L·W/σ_g`) only uses [`CMatrix::matvec`], which is
//! cache-friendly on the row-major layout.

use core::fmt;
use core::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::complex::{c64, Complex64};
use crate::vector;

/// A dense, row-major matrix of [`Complex64`] entries.
#[derive(Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Creates a matrix from a closure evaluated at every `(row, col)` pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "CMatrix::from_vec: expected {} elements, got {}",
            rows * cols,
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from nested row slices.
    ///
    /// # Panics
    /// Panics if rows are ragged or empty.
    pub fn from_rows(rows: &[Vec<Complex64>]) -> Self {
        assert!(!rows.is_empty(), "CMatrix::from_rows: no rows");
        let cols = rows[0].len();
        assert!(cols > 0, "CMatrix::from_rows: empty rows");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "CMatrix::from_rows: row {i} has ragged length"
            );
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a row-major slice of real numbers (imaginary
    /// parts are zero).
    pub fn from_real_slice(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "CMatrix::from_real_slice: expected {} elements, got {}",
            rows * cols,
            data.len()
        );
        Self {
            rows,
            cols,
            data: data.iter().map(|&x| Complex64::from_real(x)).collect(),
        }
    }

    /// Creates a square diagonal matrix from real diagonal entries.
    pub fn from_real_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = Complex64::from_real(d);
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` for square matrices.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable access to the row-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable access to the row-major backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Bounds-checked element access returning `None` when out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Option<Complex64> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Sets element `(i, j)`.
    ///
    /// # Panics
    /// Panics when the indices are out of range.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: Complex64) {
        self[(i, j)] = value;
    }

    /// A copy of row `i`.
    pub fn row(&self, i: usize) -> Vec<Complex64> {
        assert!(
            i < self.rows,
            "row index {i} out of range (rows = {})",
            self.rows
        );
        self.data[i * self.cols..(i + 1) * self.cols].to_vec()
    }

    /// A borrowed view of row `i`.
    pub fn row_slice(&self, i: usize) -> &[Complex64] {
        assert!(
            i < self.rows,
            "row index {i} out of range (rows = {})",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<Complex64> {
        assert!(
            j < self.cols,
            "col index {j} out of range (cols = {})",
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The main diagonal.
    pub fn diag(&self) -> Vec<Complex64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Conjugate (Hermitian) transpose `Aᴴ`.
    pub fn adjoint(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Element-wise conjugate.
    pub fn conj(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, alpha: Complex64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * alpha).collect(),
        }
    }

    /// Scales every entry by a real factor.
    pub fn scale_real(&self, alpha: f64) -> Self {
        self.scale(Complex64::from_real(alpha))
    }

    /// Matrix–vector product `A·x`. Allocating wrapper over
    /// [`CMatrix::matvec_into`] — both go through the same
    /// [`crate::kernel`] backend, so the two entry points stay bit-identical
    /// to each other on every backend.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        let mut y = vec![Complex64::ZERO; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product `A·x` written into a caller-owned buffer — the
    /// allocation-free primitive behind the streaming `Z = L·W/σ_g` hot
    /// path. Dispatches through [`crate::kernel`]: the scalar backend is
    /// the historical per-row `vector::dot` fold (bit-exact), the vector
    /// backend a multi-lane reduction within ≤ 1e-12 of it.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[Complex64], y: &mut [Complex64]) {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec_into: vector length {} does not match cols {}",
            x.len(),
            self.cols
        );
        assert_eq!(
            y.len(),
            self.rows,
            "matvec_into: output length {} does not match rows {}",
            y.len(),
            self.rows
        );
        crate::kernel::matvec_into(self.rows, self.cols, &self.data, x, y);
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions do not match ({}×{} · {}×{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Self::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the inner loop walking contiguous memory of
        // both `other` and `out`.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == Complex64::ZERO {
                    continue;
                }
                let other_row = other.row_slice(k);
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(other_row.iter()) {
                    *o = aik.mul_add(b, *o);
                }
            }
        }
        out
    }

    /// `A·Aᴴ` — the Gram matrix of the rows. This is exactly what the
    /// coloring-matrix verification `L·Lᴴ = K` needs.
    pub fn aat_adjoint(&self) -> Self {
        self.matmul(&self.adjoint())
    }

    /// Frobenius norm `‖A‖_F = √(Σ |aᵢⱼ|²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum modulus over all entries.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Maximum entry-wise modulus of `self − other`.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        vector::max_abs_diff(&self.data, &other.data)
    }

    /// Frobenius norm of `self − other`, the matrix-approximation metric the
    /// paper uses ("from Frobenius point of view").
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn frobenius_distance(&self, other: &Self) -> f64 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "frobenius_distance: shape mismatch"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex64 {
        assert!(self.is_square(), "trace: matrix must be square");
        self.diag().iter().sum()
    }

    /// `true` when `‖A − Aᴴ‖_max ≤ tol`, i.e. the matrix is Hermitian up to
    /// the given tolerance.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            if self[(i, i)].im.abs() > tol {
                return false;
            }
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)].conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Symmetrizes in place: `A ← (A + Aᴴ)/2`. Useful for cleaning up
    /// round-off before a decomposition.
    pub fn hermitianize(&mut self) {
        assert!(self.is_square(), "hermitianize: matrix must be square");
        for i in 0..self.rows {
            let d = self[(i, i)];
            self[(i, i)] = Complex64::from_real(d.re);
            for j in (i + 1)..self.cols {
                let avg = (self[(i, j)] + self[(j, i)].conj()).scale(0.5);
                self[(i, j)] = avg;
                self[(j, i)] = avg.conj();
            }
        }
    }

    /// Entry-wise approximate equality with an absolute tolerance.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }

    /// Builds the `2N × 2N` real embedding
    /// `[[Re(A), −Im(A)], [Im(A), Re(A)]]` of an `N × N` matrix, as a matrix
    /// whose imaginary parts are all `+0`.
    ///
    /// This is the representation used by Salz & Winters (paper ref. \[1\]) to
    /// color `2N` real Gaussian variables. The embedding is symmetric iff `A`
    /// is Hermitian, and a real symmetric matrix is Hermitian, so
    /// [`crate::hermitian_eigen`] decomposes it; each eigenvalue of `A`
    /// appears twice in its spectrum.
    pub fn real_embedding(&self) -> Self {
        assert!(self.is_square(), "real_embedding: matrix must be square");
        let n = self.rows;
        Self::from_fn(2 * n, 2 * n, |i, j| {
            let (bi, ii) = (i / n, i % n);
            let (bj, jj) = (j / n, j % n);
            let z = self[(ii, jj)];
            let x = match (bi, bj) {
                (0, 0) | (1, 1) => z.re,
                (0, 1) => -z.im,
                (1, 0) => z.im,
                _ => unreachable!(),
            };
            c64(x, 0.0)
        })
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of range for {}×{} matrix",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of range for {}×{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add: shape mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub: shape mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        self.matmul(rhs)
    }
}

impl Neg for &CMatrix {
    type Output = CMatrix;
    fn neg(self) -> CMatrix {
        self.scale(c64(-1.0, 0.0))
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}×{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prec = f.precision().unwrap_or(4);
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{:>12}", format!("{:.*}", prec, self[(i, j)]))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CMatrix {
        CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.5, 0.25)],
            vec![c64(0.5, -0.25), c64(2.0, 0.0)],
        ])
    }

    #[test]
    fn constructors() {
        let z = CMatrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == Complex64::ZERO));

        let id = CMatrix::identity(3);
        assert_eq!(id[(0, 0)], Complex64::ONE);
        assert_eq!(id[(0, 1)], Complex64::ZERO);

        let f = CMatrix::from_fn(2, 2, |i, j| c64(i as f64, j as f64));
        assert_eq!(f[(1, 0)], c64(1.0, 0.0));
        assert_eq!(f[(0, 1)], c64(0.0, 1.0));

        let rd = CMatrix::from_real_diag(&[3.0, 4.0]);
        assert_eq!(rd[(0, 0)], c64(3.0, 0.0));

        let rs = CMatrix::from_real_slice(1, 2, &[1.0, 2.0]);
        assert_eq!(rs[(0, 1)], c64(2.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "expected 4 elements")]
    fn from_vec_checks_length() {
        let _ = CMatrix::from_vec(2, 2, vec![Complex64::ZERO; 3]);
    }

    #[test]
    fn rows_cols_diag() {
        let m = sample();
        assert_eq!(m.row(0), vec![c64(1.0, 0.0), c64(0.5, 0.25)]);
        assert_eq!(m.col(1), vec![c64(0.5, 0.25), c64(2.0, 0.0)]);
        assert_eq!(m.diag(), vec![c64(1.0, 0.0), c64(2.0, 0.0)]);
        assert_eq!(m.trace(), c64(3.0, 0.0));
    }

    #[test]
    fn adjoint_and_conj() {
        let m = sample();
        let h = m.adjoint();
        assert_eq!(h[(0, 1)], m[(1, 0)].conj());
        assert_eq!(m.conj()[(0, 1)], m[(0, 1)].conj());
    }

    #[test]
    fn arithmetic() {
        let m = sample();
        let s = &m + &m;
        assert_eq!(s[(0, 0)], c64(2.0, 0.0));
        let d = &s - &m;
        assert!(d.approx_eq(&m, 1e-15));
        let n = -&m;
        assert_eq!(n[(0, 0)], c64(-1.0, 0.0));
        let sc = m.scale_real(2.0);
        assert_eq!(sc[(1, 1)], c64(4.0, 0.0));
    }

    #[test]
    fn matmul_identity_and_associativity() {
        let m = sample();
        let id = CMatrix::identity(2);
        assert!(m.matmul(&id).approx_eq(&m, 1e-15));
        assert!(id.matmul(&m).approx_eq(&m, 1e-15));

        let a = CMatrix::from_fn(2, 3, |i, j| c64((i + j) as f64, (i as f64) - (j as f64)));
        let b = CMatrix::from_fn(3, 2, |i, j| c64(1.0 / (1.0 + i as f64 + j as f64), 0.5));
        let c = CMatrix::from_fn(2, 2, |i, j| c64(j as f64, i as f64));
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(left.approx_eq(&right, 1e-12));
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = sample();
        let x = vec![c64(1.0, -1.0), c64(0.5, 2.0)];
        let y = m.matvec(&x);
        let xm = CMatrix::from_vec(2, 1, x.clone());
        let ym = m.matmul(&xm);
        assert!(y[0].approx_eq(ym[(0, 0)], 1e-12));
        assert!(y[1].approx_eq(ym[(1, 0)], 1e-12));
    }

    #[test]
    fn hermitian_checks() {
        let m = sample();
        assert!(m.is_hermitian(1e-12));
        let mut non_h = m.clone();
        non_h[(0, 1)] = c64(0.5, 0.5);
        assert!(!non_h.is_hermitian(1e-12));
        non_h.hermitianize();
        assert!(non_h.is_hermitian(1e-15));
    }

    #[test]
    fn norms_and_distances() {
        let m = CMatrix::from_rows(&[vec![c64(3.0, 0.0), c64(0.0, 4.0)]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert!((m.max_abs() - 4.0).abs() < 1e-12);
        let z = CMatrix::zeros(1, 2);
        assert!((m.frobenius_distance(&z) - 5.0).abs() < 1e-12);
        assert!((m.max_abs_diff(&z) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn aat_adjoint_is_hermitian_psd_diagonal() {
        let m = sample();
        let g = m.aat_adjoint();
        assert!(g.is_hermitian(1e-12));
        for i in 0..2 {
            assert!(g[(i, i)].re >= 0.0);
        }
    }

    #[test]
    fn real_embedding_structure() {
        let m = sample();
        let e = m.real_embedding();
        assert_eq!(e.shape(), (4, 4));
        // Real, so symmetric exactly when it equals its adjoint.
        assert!(e.approx_eq(&e.adjoint(), 1e-12));
        assert_eq!(e[(0, 1)], c64(m[(0, 1)].re, 0.0));
        assert_eq!(e[(0, 3)], c64(-m[(0, 1)].im, 0.0));
        assert_eq!(e[(2, 1)], c64(m[(0, 1)].im, 0.0));
        assert_eq!(e[(2, 3)], c64(m[(0, 1)].re, 0.0));
        assert!(e.as_slice().iter().all(|z| z.im.to_bits() == 0));
    }

    #[test]
    fn display_does_not_panic() {
        let m = sample();
        let s = format!("{m}");
        assert!(s.contains('i'));
        let _ = format!("{m:?}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let m = sample();
        let _ = m[(5, 0)];
    }
}
