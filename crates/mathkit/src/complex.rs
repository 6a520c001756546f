//! Complex number arithmetic.
//!
//! The simulator crates in this workspace need a small, fast, dependency-free
//! complex type. [`Complex64`] is a `#[repr(C)]` pair of `f64`s with the full
//! arithmetic surface required by quantum state evolution: ring operations,
//! conjugation, modulus, polar form and the complex exponential. The
//! operations the trajectory simulator's lane sweeps use are
//! `#[inline(always)]`, so that each CPU-specific build of those sweeps
//! compiles them for its own vector unit.
//!
//! # Examples
//!
//! ```
//! use vaqem_mathkit::complex::Complex64;
//!
//! let i = Complex64::I;
//! assert_eq!(i * i, Complex64::new(-1.0, 0.0));
//! let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
//! assert!((z - Complex64::new(0.0, 2.0)).norm() < 1e-12);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number `re + i*im`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from its real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r * e^{i*theta}`.
    #[inline(always)]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64::new(r * theta.cos(), r * theta.sin())
    }

    /// Returns `e^{i*theta}`, a unit-modulus phase factor.
    #[inline(always)]
    pub fn cis(theta: f64) -> Self {
        Complex64::from_polar(1.0, theta)
    }

    /// Complex conjugate `re - i*im`.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Squared modulus `|z|^2 = re^2 + im^2`.
    ///
    /// For quantum amplitudes this is the Born-rule probability weight.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^z = e^re (cos im + i sin im)`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Complex64::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns non-finite components when `self` is zero, mirroring `f64`
    /// division semantics.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex64::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Complex64::new(self.re * s, self.im * s)
    }

    /// Returns `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality within an absolute tolerance on both components.
    #[inline]
    pub fn approx_eq(self, other: Self, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.inv()
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: f64) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + *b)
    }
}

/// Shorthand constructor used pervasively in gate definitions.
///
/// # Examples
///
/// ```
/// use vaqem_mathkit::complex::{c64, Complex64};
/// assert_eq!(c64(1.0, -2.0), Complex64::new(1.0, -2.0));
/// ```
#[inline]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64::new(re, im)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn ring_identities() {
        let z = c64(3.0, -4.0);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert_eq!(z - z, Complex64::ZERO);
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = c64(1.0, 2.0);
        let b = c64(3.0, -1.0);
        // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
        assert_eq!(a * b, c64(5.0, 5.0));
    }

    #[test]
    fn division_is_inverse_of_multiplication() {
        let a = c64(2.5, -1.25);
        let b = c64(-0.5, 3.0);
        let q = (a * b) / b;
        assert!(q.approx_eq(a, 1e-12));
    }

    #[test]
    fn norm_and_conjugate() {
        let z = c64(3.0, 4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.norm(), 5.0);
        assert_eq!(z.conj(), c64(3.0, -4.0));
        assert!((z * z.conj()).approx_eq(c64(25.0, 0.0), 1e-12));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.0, 0.7);
        assert!((z.norm() - 2.0).abs() < 1e-12);
        assert!((z.arg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cis_is_unit_modulus() {
        for k in 0..16 {
            let z = Complex64::cis(PI * k as f64 / 8.0);
            assert!((z.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn exp_of_imaginary_pi_is_minus_one() {
        let z = c64(0.0, PI).exp();
        assert!(z.approx_eq(c64(-1.0, 0.0), 1e-12));
    }

    #[test]
    fn inv_times_self_is_one() {
        let z = c64(0.3, -0.9);
        assert!((z * z.inv()).approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn sum_over_iterator() {
        let xs = [c64(1.0, 1.0), c64(2.0, -0.5), c64(-3.0, 0.0)];
        let s: Complex64 = xs.iter().sum();
        assert!(s.approx_eq(c64(0.0, 0.5), 1e-12));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(c64(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(c64(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn assign_ops() {
        let mut z = c64(1.0, 1.0);
        z += c64(1.0, 0.0);
        z -= c64(0.0, 1.0);
        z *= 2.0;
        assert_eq!(z, c64(4.0, 0.0));
        z *= Complex64::I;
        assert_eq!(z, c64(0.0, 4.0));
        z /= c64(0.0, 2.0);
        assert!(z.approx_eq(c64(2.0, 0.0), 1e-12));
    }
}
