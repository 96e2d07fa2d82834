//! Double-precision complex arithmetic.
//!
//! The whole workspace operates on zero-mean complex Gaussian random
//! variables, complex covariance matrices and complex spectra, so a small,
//! fully-featured complex type is the foundation of everything else.
//!
//! [`Complex64`] is a plain `#[repr(C)]` pair of `f64`s with value semantics.
//! It implements the usual field operations, the elementary transcendental
//! functions needed by the fading models (`exp`, `sqrt`, `powf`, …) and a few
//! numerically-careful helpers (`abs` via `hypot`, `fdiv` via Smith's
//! algorithm) so that the eigendecomposition and the IDFT remain stable for
//! the badly-scaled covariance matrices exercised in the tests.

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Convenience constructor: `c64(re, im)`.
#[inline]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = c64(1.0, 0.0);
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex64 = c64(0.0, 1.0);

    /// Creates a new complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r · e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// `e^{iθ}` — a unit-modulus phasor. Used heavily by the IDFT twiddle
    /// factors.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate `re − i·im`.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Modulus `|z|`, computed with `hypot` to avoid overflow/underflow.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared modulus `|z|² = z · z̄`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in `(−π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Polar decomposition `(r, θ)` such that `z = r·e^{iθ}`.
    #[inline]
    pub fn to_polar(self) -> (f64, f64) {
        (self.abs(), self.arg())
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Divides by a real factor.
    #[inline]
    pub fn unscale(self, k: f64) -> Self {
        Self {
            re: self.re / k,
            im: self.im / k,
        }
    }

    /// Robust complex division (Smith's algorithm). The operator `/` uses
    /// this internally; it avoids overflow when the denominator components
    /// differ greatly in magnitude.
    #[inline]
    pub fn fdiv(self, rhs: Self) -> Self {
        if rhs.re.abs() >= rhs.im.abs() {
            if rhs.re == 0.0 && rhs.im == 0.0 {
                return Self {
                    re: self.re / 0.0,
                    im: self.im / 0.0,
                };
            }
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Self {
                re: (self.re + self.im * r) / d,
                im: (self.im - self.re * r) / d,
            }
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Self {
                re: (self.re * r + self.im) / d,
                im: (self.im * r - self.re) / d,
            }
        }
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Principal natural logarithm.
    #[inline]
    pub fn ln(self) -> Self {
        let (r, theta) = self.to_polar();
        Self {
            re: r.ln(),
            im: theta,
        }
    }

    /// Principal square root.
    ///
    /// Uses the numerically-stable half-angle formulation rather than
    /// `from_polar(sqrt(r), θ/2)` so that purely-real non-negative inputs map
    /// exactly to real outputs (important when taking `√λ̂` of clipped
    /// eigenvalues in the coloring step).
    #[inline]
    pub fn sqrt(self) -> Self {
        if self.im == 0.0 {
            if self.re >= 0.0 {
                return Self {
                    re: self.re.sqrt(),
                    im: 0.0,
                };
            }
            return Self {
                re: 0.0,
                im: (-self.re).sqrt().copysign(1.0),
            };
        }
        let r = self.abs();
        let re = ((r + self.re) * 0.5).sqrt();
        let im = ((r - self.re) * 0.5).sqrt() * self.im.signum();
        Self { re, im }
    }

    /// Raises to a real power via the exponential form.
    #[inline]
    pub fn powf(self, exp: f64) -> Self {
        if self == Self::ZERO {
            return if exp == 0.0 { Self::ONE } else { Self::ZERO };
        }
        let (r, theta) = self.to_polar();
        Self::from_polar(r.powf(exp), theta * exp)
    }

    /// Raises to a non-negative integer power by binary exponentiation.
    #[inline]
    pub fn powi(self, mut exp: u32) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base *= base;
            exp >>= 1;
        }
        acc
    }

    /// `true` when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality with an absolute tolerance on each component.
    #[inline]
    pub fn approx_eq(self, other: Self, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }

    /// Fused multiply-add: `self * b + c`, using `f64::mul_add` on each of
    /// the four partial products for a slightly tighter error bound in the
    /// matrix kernels.
    #[inline]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        Self {
            re: self.re.mul_add(b.re, (-self.im).mul_add(b.im, c.re)),
            im: self.re.mul_add(b.im, self.im.mul_add(b.re, c.im)),
        }
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 || self.im.is_nan() {
            if let Some(prec) = f.precision() {
                write!(f, "{:.*}+{:.*}i", prec, self.re, prec, self.im)
            } else {
                write!(f, "{}+{}i", self.re, self.im)
            }
        } else if let Some(prec) = f.precision() {
            write!(f, "{:.*}-{:.*}i", prec, self.re, prec, -self.im)
        } else {
            write!(f, "{}-{}i", self.re, -self.im)
        }
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl From<(f64, f64)> for Complex64 {
    #[inline]
    fn from((re, im): (f64, f64)) -> Self {
        Self { re, im }
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self.fdiv(rhs)
    }
}

impl Add<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: f64) -> Self {
        Self {
            re: self.re + rhs,
            im: self.im,
        }
    }
}

impl Sub<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: f64) -> Self {
        Self {
            re: self.re - rhs,
            im: self.im,
        }
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        self.unscale(rhs)
    }
}

impl Add<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        rhs + self
    }
}

impl Sub<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        c64(self - rhs.re, -rhs.im)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs * self
    }
}

impl Div<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        Complex64::from_real(self) / rhs
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        *self = self.scale(rhs);
    }
}

impl DivAssign<f64> for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: f64) {
        *self = self.unscale(rhs);
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + *b)
    }
}

impl Product for Complex64 {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

#[cfg(feature = "serde")]
mod serde_impl {
    use super::Complex64;
    use serde::de::{Deserialize, Deserializer};
    use serde::ser::{Serialize, SerializeTuple, Serializer};

    impl Serialize for Complex64 {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let mut t = serializer.serialize_tuple(2)?;
            t.serialize_element(&self.re)?;
            t.serialize_element(&self.im)?;
            t.end()
        }
    }

    impl<'de> Deserialize<'de> for Complex64 {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
            let (re, im) = <(f64, f64)>::deserialize(deserializer)?;
            Ok(Complex64 { re, im })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex64::ZERO, c64(0.0, 0.0));
        assert_eq!(Complex64::ONE, c64(1.0, 0.0));
        assert_eq!(Complex64::I, c64(0.0, 1.0));
        assert_eq!(Complex64::from_real(2.5), c64(2.5, 0.0));
        assert_eq!(Complex64::from((1.0, 2.0)), c64(1.0, 2.0));
        assert_eq!(Complex64::from(3.0), c64(3.0, 0.0));
    }

    #[test]
    fn field_operations() {
        let a = c64(1.0, 2.0);
        let b = c64(-3.0, 0.5);
        assert_eq!(a + b, c64(-2.0, 2.5));
        assert_eq!(a - b, c64(4.0, 1.5));
        assert_eq!(a * b, c64(1.0 * -3.0 - 2.0 * 0.5, 1.0 * 0.5 + 2.0 * -3.0));
        let q = a / b;
        assert!((q * b).approx_eq(a, TOL));
        assert_eq!(-a, c64(-1.0, -2.0));
    }

    #[test]
    fn mixed_real_operations() {
        let a = c64(1.0, 2.0);
        assert_eq!(a + 1.0, c64(2.0, 2.0));
        assert_eq!(a - 1.0, c64(0.0, 2.0));
        assert_eq!(a * 2.0, c64(2.0, 4.0));
        assert_eq!(a / 2.0, c64(0.5, 1.0));
        assert_eq!(2.0 * a, c64(2.0, 4.0));
        assert_eq!(1.0 + a, c64(2.0, 2.0));
        assert_eq!(1.0 - a, c64(0.0, -2.0));
        assert!((6.0 / c64(0.0, 2.0)).approx_eq(c64(0.0, -3.0), TOL));
    }

    #[test]
    fn assigning_operators() {
        let mut z = c64(1.0, 1.0);
        z += c64(1.0, 0.0);
        z -= c64(0.0, 1.0);
        z *= c64(0.0, 1.0);
        z /= c64(0.0, 1.0);
        z *= 2.0;
        z /= 4.0;
        assert!(z.approx_eq(c64(1.0, 0.0), TOL));
    }

    #[test]
    fn conjugate_modulus_argument() {
        let z = c64(3.0, -4.0);
        assert_eq!(z.conj(), c64(3.0, 4.0));
        assert!((z.abs() - 5.0).abs() < TOL);
        assert!((z.norm_sqr() - 25.0).abs() < TOL);
        assert!((c64(0.0, 1.0).arg() - std::f64::consts::FRAC_PI_2).abs() < TOL);
        let (r, t) = z.to_polar();
        assert!(Complex64::from_polar(r, t).approx_eq(z, 1e-10));
    }

    #[test]
    fn abs_does_not_overflow() {
        let z = c64(1e200, 1e200);
        assert!(z.abs().is_finite());
    }

    #[test]
    fn division_is_robust_for_extreme_scales() {
        let a = c64(1e-300, 1e-300);
        let b = c64(1e-300, 0.0);
        let q = a.fdiv(b);
        assert!(q.approx_eq(c64(1.0, 1.0), 1e-9));
    }

    #[test]
    fn exp_ln_round_trip() {
        let z = c64(0.25, -1.3);
        assert!(z.exp().ln().approx_eq(z, 1e-12));
        assert!(Complex64::ZERO.exp().approx_eq(Complex64::ONE, TOL));
        // Euler's identity.
        assert!(Complex64::I
            .scale(std::f64::consts::PI)
            .exp()
            .approx_eq(c64(-1.0, 0.0), 1e-12));
    }

    #[test]
    fn cis_matches_from_polar() {
        for k in 0..16 {
            let theta = k as f64 * 0.41;
            assert!(Complex64::cis(theta).approx_eq(Complex64::from_polar(1.0, theta), TOL));
        }
    }

    #[test]
    fn sqrt_of_nonnegative_real_is_exactly_real() {
        let z = c64(4.0, 0.0).sqrt();
        assert_eq!(z, c64(2.0, 0.0));
        let w = c64(-9.0, 0.0).sqrt();
        assert!(w.approx_eq(c64(0.0, 3.0), TOL));
    }

    #[test]
    fn sqrt_squares_back() {
        for &z in &[
            c64(1.0, 2.0),
            c64(-3.0, 4.0),
            c64(0.5, -0.25),
            c64(-1.0, -1.0),
        ] {
            let s = z.sqrt();
            assert!((s * s).approx_eq(z, 1e-12), "sqrt({z}) = {s}");
            assert!(
                s.re >= 0.0,
                "principal branch must have non-negative real part"
            );
        }
    }

    #[test]
    fn integer_powers() {
        let z = c64(1.0, 1.0);
        assert!(z.powi(0).approx_eq(Complex64::ONE, TOL));
        assert!(z.powi(2).approx_eq(c64(0.0, 2.0), TOL));
        assert!(z.powi(8).approx_eq(c64(16.0, 0.0), 1e-12));
    }

    #[test]
    fn real_powers() {
        let z = c64(0.0, 4.0);
        assert!(z.powf(0.5).approx_eq(z.sqrt(), 1e-12));
        assert!(Complex64::ZERO.powf(0.0).approx_eq(Complex64::ONE, TOL));
        assert!(Complex64::ZERO.powf(3.0).approx_eq(Complex64::ZERO, TOL));
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = c64(1.5, -0.5);
        let b = c64(-2.0, 0.25);
        let c = c64(0.75, 3.0);
        assert!(a.mul_add(b, c).approx_eq(a * b + c, 1e-12));
    }

    #[test]
    fn sums_and_products() {
        let xs = [c64(1.0, 0.0), c64(0.0, 1.0), c64(2.0, -1.0)];
        let s: Complex64 = xs.iter().sum();
        assert_eq!(s, c64(3.0, 0.0));
        let p: Complex64 = xs.iter().copied().product();
        assert!(p.approx_eq(c64(1.0, 2.0), TOL));
    }

    #[test]
    fn display_formatting() {
        assert_eq!(format!("{}", c64(1.0, 2.0)), "1+2i");
        assert_eq!(format!("{}", c64(1.0, -2.0)), "1-2i");
        assert_eq!(format!("{:.2}", c64(1.0, -2.0)), "1.00-2.00i");
    }

    #[test]
    fn nan_and_finite_predicates() {
        assert!(c64(f64::NAN, 0.0).is_nan());
        assert!(!c64(1.0, 2.0).is_nan());
        assert!(c64(1.0, 2.0).is_finite());
        assert!(!c64(f64::INFINITY, 0.0).is_finite());
    }
}
