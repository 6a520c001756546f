//! Dense complex matrices and vectors.
//!
//! [`CMatrix`] is a row-major dense complex matrix sized for quantum
//! simulation at NISQ scale (up to `2^n x 2^n` with `n <= ~12`). It provides
//! the operations the rest of the workspace needs: products, adjoints,
//! Kronecker products, traces, and structural predicates (unitarity,
//! Hermiticity, positivity via diagonal dominance checks).
//!
//! # Examples
//!
//! ```
//! use vaqem_mathkit::matrix::CMatrix;
//! use vaqem_mathkit::complex::c64;
//!
//! let x = CMatrix::from_rows(&[
//!     &[c64(0.0, 0.0), c64(1.0, 0.0)],
//!     &[c64(1.0, 0.0), c64(0.0, 0.0)],
//! ]);
//! assert!(x.is_unitary(1e-12));
//! assert!((&x * &x).is_identity(1e-12));
//! ```

use crate::complex::{c64, Complex64};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a `rows x cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates an `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or if `rows` is empty.
    pub fn from_rows(rows: &[&[Complex64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        CMatrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        CMatrix { rows, cols, data }
    }

    /// Builds a square diagonal matrix from its diagonal entries.
    pub fn from_diagonal(diag: &[Complex64]) -> Self {
        let n = diag.len();
        let mut m = CMatrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
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

    /// Returns `true` for a square matrix.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the row-major backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable view of the row-major backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Conjugate transpose (dagger).
    pub fn adjoint(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> CMatrix {
        let data = self.data.iter().map(|z| z.conj()).collect();
        CMatrix::from_vec(self.rows, self.cols, data)
    }

    /// Matrix trace.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, s: Complex64) -> CMatrix {
        let data = self.data.iter().map(|&z| z * s).collect();
        CMatrix::from_vec(self.rows, self.cols, data)
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    ///
    /// With qubit index conventions used across this workspace, the *left*
    /// factor acts on the more significant bits.
    pub fn kron(&self, other: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == Complex64::ZERO {
                    continue;
                }
                for k in 0..other.rows {
                    for l in 0..other.cols {
                        out[(i * other.rows + k, j * other.cols + l)] = a * other[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        let mut out = vec![Complex64::ZERO; self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = Complex64::ZERO;
            for (a, b) in row.iter().zip(v.iter()) {
                acc += *a * *b;
            }
            *slot = acc;
        }
        out
    }

    /// Maximum absolute deviation from another matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &CMatrix) -> f64 {
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.cols, other.cols, "col mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0, f64::max)
    }

    /// Returns `true` when `self` equals the identity within `tol`.
    pub fn is_identity(&self, tol: f64) -> bool {
        self.is_square() && self.max_abs_diff(&CMatrix::identity(self.rows)) <= tol
    }

    /// Returns `true` when `self† self = I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.is_square() && (&self.adjoint() * self).is_identity(tol)
    }

    /// Returns `true` when `self = self†` within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.is_square() && self.max_abs_diff(&self.adjoint()) <= tol
    }

    /// Returns `true` when trace is 1 within `tol` (density-matrix check).
    pub fn is_trace_one(&self, tol: f64) -> bool {
        (self.trace() - Complex64::ONE).norm() <= tol
    }

    /// Conjugation `U self U†`, the channel action of a unitary on a density
    /// matrix.
    pub fn conjugate_by(&self, u: &CMatrix) -> CMatrix {
        &(u * self) * &u.adjoint()
    }

    /// Extracts the diagonal.
    pub fn diagonal(&self) -> Vec<Complex64> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Two-norm of a state vector, provided as a free helper because state
    /// vectors are stored as `Vec<Complex64>` throughout the workspace.
    pub fn vec_norm(v: &[Complex64]) -> f64 {
        v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Inner product `<a|b>` with conjugation on the left argument.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn vec_inner(a: &[Complex64], b: &[Complex64]) -> Complex64 {
        assert_eq!(a.len(), b.len(), "vector length mismatch");
        a.iter().zip(b.iter()).map(|(x, y)| x.conj() * *y).sum()
    }

    /// Outer product `|a><b|` as a matrix.
    pub fn vec_outer(a: &[Complex64], b: &[Complex64]) -> CMatrix {
        let mut out = CMatrix::zeros(a.len(), b.len());
        for i in 0..a.len() {
            for j in 0..b.len() {
                out[(i, j)] = a[i] * b[j].conj();
            }
        }
        out
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows, "row mismatch");
        assert_eq!(self.cols, rhs.cols, "col mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| *a + *b)
            .collect();
        CMatrix::from_vec(self.rows, self.cols, data)
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows, "row mismatch");
        assert_eq!(self.cols, rhs.cols, "col mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| *a - *b)
            .collect();
        CMatrix::from_vec(self.rows, self.cols, data)
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == Complex64::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl Mul<&CMatrix> for Complex64 {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        rhs.scale(self)
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}{:+.4}i", self[(i, j)].re, self[(i, j)].im)?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// Standard single-qubit matrices used across gate synthesis and tests.
pub mod gates2x2 {
    use super::*;
    use std::f64::consts::FRAC_1_SQRT_2;

    /// Pauli X.
    pub fn pauli_x() -> CMatrix {
        CMatrix::from_rows(&[
            &[c64(0.0, 0.0), c64(1.0, 0.0)],
            &[c64(1.0, 0.0), c64(0.0, 0.0)],
        ])
    }

    /// Pauli Y.
    pub fn pauli_y() -> CMatrix {
        CMatrix::from_rows(&[
            &[c64(0.0, 0.0), c64(0.0, -1.0)],
            &[c64(0.0, 1.0), c64(0.0, 0.0)],
        ])
    }

    /// Pauli Z.
    pub fn pauli_z() -> CMatrix {
        CMatrix::from_rows(&[
            &[c64(1.0, 0.0), c64(0.0, 0.0)],
            &[c64(0.0, 0.0), c64(-1.0, 0.0)],
        ])
    }

    /// Hadamard.
    pub fn hadamard() -> CMatrix {
        let h = FRAC_1_SQRT_2;
        CMatrix::from_rows(&[&[c64(h, 0.0), c64(h, 0.0)], &[c64(h, 0.0), c64(-h, 0.0)]])
    }

    /// Rotation about X: `exp(-i theta X / 2)`.
    pub fn rx(theta: f64) -> CMatrix {
        let c = (theta / 2.0).cos();
        let s = (theta / 2.0).sin();
        CMatrix::from_rows(&[&[c64(c, 0.0), c64(0.0, -s)], &[c64(0.0, -s), c64(c, 0.0)]])
    }

    /// Rotation about Y: `exp(-i theta Y / 2)`.
    pub fn ry(theta: f64) -> CMatrix {
        let c = (theta / 2.0).cos();
        let s = (theta / 2.0).sin();
        CMatrix::from_rows(&[&[c64(c, 0.0), c64(-s, 0.0)], &[c64(s, 0.0), c64(c, 0.0)]])
    }

    /// Rotation about Z: `exp(-i theta Z / 2)`.
    pub fn rz(theta: f64) -> CMatrix {
        CMatrix::from_diagonal(&[Complex64::cis(-theta / 2.0), Complex64::cis(theta / 2.0)])
    }

    /// Sqrt-X gate (IBM basis `sx`).
    pub fn sx() -> CMatrix {
        CMatrix::from_rows(&[
            &[c64(0.5, 0.5), c64(0.5, -0.5)],
            &[c64(0.5, -0.5), c64(0.5, 0.5)],
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::gates2x2::*;
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn identity_is_multiplicative_unit() {
        let x = pauli_x();
        let i2 = CMatrix::identity(2);
        assert_eq!(&x * &i2, x);
        assert_eq!(&i2 * &x, x);
    }

    #[test]
    fn pauli_algebra() {
        let (x, y, z) = (pauli_x(), pauli_y(), pauli_z());
        // XY = iZ
        let xy = &x * &y;
        assert!(xy.max_abs_diff(&z.scale(Complex64::I)) < 1e-12);
        // X^2 = Y^2 = Z^2 = I
        assert!((&x * &x).is_identity(1e-12));
        assert!((&y * &y).is_identity(1e-12));
        assert!((&z * &z).is_identity(1e-12));
    }

    #[test]
    fn paulis_are_unitary_and_hermitian() {
        for m in [pauli_x(), pauli_y(), pauli_z(), hadamard()] {
            assert!(m.is_unitary(1e-12));
            assert!(m.is_hermitian(1e-12));
        }
    }

    #[test]
    fn rotations_are_unitary() {
        for k in 0..8 {
            let theta = k as f64 * PI / 4.0;
            assert!(rx(theta).is_unitary(1e-12));
            assert!(ry(theta).is_unitary(1e-12));
            assert!(rz(theta).is_unitary(1e-12));
        }
    }

    #[test]
    fn rx_pi_is_minus_i_x() {
        let m = rx(PI);
        let expect = pauli_x().scale(c64(0.0, -1.0));
        assert!(m.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn sx_squared_is_x_up_to_phase() {
        let s2 = &sx() * &sx();
        assert!(s2.max_abs_diff(&pauli_x()) < 1e-12);
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = pauli_x();
        let i2 = CMatrix::identity(2);
        let xi = x.kron(&i2);
        assert_eq!(xi.rows(), 4);
        assert_eq!(xi.cols(), 4);
        // X ⊗ I flips the high bit: |00> -> |10>
        let v = vec![
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::ZERO,
        ];
        let w = xi.mul_vec(&v);
        assert!(w[2].approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn kron_of_unitaries_is_unitary() {
        let u = hadamard().kron(&ry(0.3));
        assert!(u.is_unitary(1e-12));
    }

    #[test]
    fn trace_and_adjoint() {
        let z = pauli_z();
        assert!(z.trace().approx_eq(Complex64::ZERO, 1e-12));
        let h = hadamard();
        assert!(h.adjoint().max_abs_diff(&h) < 1e-12);
    }

    #[test]
    fn mul_vec_matches_matrix_mul() {
        let m = hadamard();
        let v = vec![c64(0.6, 0.0), c64(0.0, 0.8)];
        let col = CMatrix::from_vec(2, 1, v.clone());
        let prod = &m * &col;
        let mv = m.mul_vec(&v);
        assert!(prod[(0, 0)].approx_eq(mv[0], 1e-12));
        assert!(prod[(1, 0)].approx_eq(mv[1], 1e-12));
    }

    #[test]
    fn inner_outer_products() {
        let a = vec![Complex64::ONE, Complex64::ZERO];
        let b = vec![Complex64::ZERO, Complex64::ONE];
        assert!(CMatrix::vec_inner(&a, &a).approx_eq(Complex64::ONE, 1e-12));
        assert!(CMatrix::vec_inner(&a, &b).approx_eq(Complex64::ZERO, 1e-12));
        let proj = CMatrix::vec_outer(&a, &a);
        assert!(proj.trace().approx_eq(Complex64::ONE, 1e-12));
        assert!(proj.is_hermitian(1e-12));
    }

    #[test]
    fn conjugate_by_preserves_trace() {
        let rho = CMatrix::from_diagonal(&[c64(0.7, 0.0), c64(0.3, 0.0)]);
        let evolved = rho.conjugate_by(&hadamard());
        assert!(evolved.trace().approx_eq(Complex64::ONE, 1e-12));
        assert!(evolved.is_hermitian(1e-12));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_mul_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = &a * &b;
    }

    #[test]
    fn display_is_nonempty() {
        let s = CMatrix::identity(2).to_string();
        assert!(s.contains("1.0000"));
    }
}
