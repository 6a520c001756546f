//! Stack-allocated 2x2 and 4x4 complex matrices for simulator hot paths.
//!
//! [`crate::matrix::CMatrix`] is the general-purpose dense type, but its
//! heap-backed storage and `(row, col)` indexing arithmetic are too heavy
//! for the innermost gate-application loops of the statevector and density
//! engines, which touch every amplitude once per gate. [`M2`] and [`M4`]
//! hold the unpacked matrix entries in fixed-size arrays so a gate's
//! coefficients live in registers across an entire sweep of the state, and
//! so chains of single-qubit gates can be fused into one product matrix
//! without allocating.
//!
//! # Examples
//!
//! ```
//! use vaqem_mathkit::matrix::gates2x2;
//! use vaqem_mathkit::smallmat::M2;
//!
//! let h = M2::from_cmatrix(&gates2x2::hadamard());
//! // H * H = I: fusing a self-inverse pair yields the identity.
//! assert!(h.mul(&h).approx_eq(&M2::identity(), 1e-12));
//! ```

use crate::complex::Complex64;
use crate::matrix::CMatrix;

/// An unpacked 2x2 complex matrix (row-major: `[m00, m01, m10, m11]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct M2 {
    /// Entries in row-major order.
    pub m: [Complex64; 4],
}

impl M2 {
    /// The 2x2 identity.
    pub const fn identity() -> Self {
        M2 {
            m: [
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ONE,
            ],
        }
    }

    /// Unpacks a 2x2 [`CMatrix`].
    ///
    /// # Panics
    ///
    /// Panics unless `u` is 2x2.
    pub fn from_cmatrix(u: &CMatrix) -> Self {
        assert!(u.rows() == 2 && u.cols() == 2, "expected 2x2");
        let d = u.as_slice();
        M2 {
            m: [d[0], d[1], d[2], d[3]],
        }
    }

    /// Repacks into a [`CMatrix`].
    pub fn to_cmatrix(&self) -> CMatrix {
        CMatrix::from_vec(2, 2, self.m.to_vec())
    }

    /// Matrix product `self * rhs` (apply `rhs` first, then `self`).
    #[inline(always)]
    pub fn mul(&self, rhs: &M2) -> M2 {
        let a = &self.m;
        let b = &rhs.m;
        M2 {
            m: [
                a[0] * b[0] + a[1] * b[2],
                a[0] * b[1] + a[1] * b[3],
                a[2] * b[0] + a[3] * b[2],
                a[2] * b[1] + a[3] * b[3],
            ],
        }
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> M2 {
        let a = &self.m;
        M2 {
            m: [a[0].conj(), a[2].conj(), a[1].conj(), a[3].conj()],
        }
    }

    /// Entry-wise comparison within `tol`.
    pub fn approx_eq(&self, other: &M2, tol: f64) -> bool {
        self.m
            .iter()
            .zip(other.m.iter())
            .all(|(a, b)| a.approx_eq(*b, tol))
    }
}

/// An unpacked 4x4 complex matrix (row-major, 16 entries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct M4 {
    /// Entries in row-major order.
    pub m: [Complex64; 16],
}

impl M4 {
    /// The 4x4 identity.
    pub fn identity() -> Self {
        let mut m = [Complex64::ZERO; 16];
        for i in 0..4 {
            m[i * 4 + i] = Complex64::ONE;
        }
        M4 { m }
    }

    /// Unpacks a 4x4 [`CMatrix`].
    ///
    /// # Panics
    ///
    /// Panics unless `u` is 4x4.
    pub fn from_cmatrix(u: &CMatrix) -> Self {
        assert!(u.rows() == 4 && u.cols() == 4, "expected 4x4");
        let mut m = [Complex64::ZERO; 16];
        m.copy_from_slice(u.as_slice());
        M4 { m }
    }

    /// Repacks into a [`CMatrix`].
    pub fn to_cmatrix(&self) -> CMatrix {
        CMatrix::from_vec(4, 4, self.m.to_vec())
    }

    /// Matrix product `self * rhs` (apply `rhs` first, then `self`).
    pub fn mul(&self, rhs: &M4) -> M4 {
        let mut out = [Complex64::ZERO; 16];
        for r in 0..4 {
            for c in 0..4 {
                let mut acc = Complex64::ZERO;
                for k in 0..4 {
                    acc += self.m[r * 4 + k] * rhs.m[k * 4 + c];
                }
                out[r * 4 + c] = acc;
            }
        }
        M4 { m: out }
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> M4 {
        let mut out = [Complex64::ZERO; 16];
        for r in 0..4 {
            for c in 0..4 {
                out[c * 4 + r] = self.m[r * 4 + c].conj();
            }
        }
        M4 { m: out }
    }

    /// Entry-wise comparison within `tol`.
    pub fn approx_eq(&self, other: &M4, tol: f64) -> bool {
        self.m
            .iter()
            .zip(other.m.iter())
            .all(|(a, b)| a.approx_eq(*b, tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::gates2x2;

    #[test]
    fn m2_round_trip_and_product_match_cmatrix() {
        let a = gates2x2::rx(0.7);
        let b = gates2x2::ry(-1.3);
        let pa = M2::from_cmatrix(&a);
        let pb = M2::from_cmatrix(&b);
        let prod = pa.mul(&pb).to_cmatrix();
        assert!(prod.max_abs_diff(&(&a * &b)) < 1e-15);
        assert!(M2::from_cmatrix(&a.adjoint()).approx_eq(&pa.adjoint(), 1e-15));
    }

    #[test]
    fn m4_round_trip_and_product_match_cmatrix() {
        let a = gates2x2::rx(0.4).kron(&gates2x2::hadamard());
        let b = gates2x2::rz(1.1).kron(&gates2x2::ry(0.2));
        let pa = M4::from_cmatrix(&a);
        let pb = M4::from_cmatrix(&b);
        assert!(pa.mul(&pb).to_cmatrix().max_abs_diff(&(&a * &b)) < 1e-14);
        assert!(M4::from_cmatrix(&a.adjoint()).approx_eq(&pa.adjoint(), 1e-15));
        assert!(
            M4::identity()
                .to_cmatrix()
                .max_abs_diff(&CMatrix::identity(4))
                < 1e-15
        );
    }

    #[test]
    fn identity_is_neutral() {
        let a = M2::from_cmatrix(&gates2x2::sx());
        assert!(a.mul(&M2::identity()).approx_eq(&a, 0.0));
        assert!(M2::identity().mul(&a).approx_eq(&a, 0.0));
    }
}
