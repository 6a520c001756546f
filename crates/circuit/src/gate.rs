//! Gate set and gate unitaries.
//!
//! The gate vocabulary mirrors what the paper's experiments need: the IBM
//! basis (`sx`, `x`, `rz`, `cx`, `id`), the textbook gates used in ansatz
//! construction (`h`, `ry`, ...), DD pulse gates (`x`, `y`), `delay`,
//! `barrier`, and `measure`. Rotation gates carry an [`Angle`] which is
//! either a concrete value or a symbolic parameter index bound later — the
//! mechanism the variational tuning loop relies on.

use crate::error::CircuitError;
use std::fmt;
use vaqem_mathkit::complex::{c64, Complex64};
use vaqem_mathkit::matrix::{gates2x2, CMatrix};

/// A rotation angle: concrete or a reference to circuit parameter `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Angle {
    /// A fixed angle in radians.
    Fixed(f64),
    /// The `k`-th variational parameter of the circuit.
    Param(usize),
}

impl Angle {
    /// Resolves the angle against bound parameter values.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnboundParameter`] when `self` is symbolic and
    /// `params` is `None`, or [`CircuitError::ParameterCountMismatch`]-style
    /// out-of-range lookups as `UnboundParameter`.
    pub fn resolve(self, params: Option<&[f64]>) -> Result<f64, CircuitError> {
        match self {
            Angle::Fixed(v) => Ok(v),
            Angle::Param(k) => params
                .and_then(|p| p.get(k).copied())
                .ok_or(CircuitError::UnboundParameter { param: k }),
        }
    }
}

impl From<f64> for Angle {
    fn from(v: f64) -> Self {
        Angle::Fixed(v)
    }
}

/// A quantum operation.
///
/// `Delay` represents explicit idle time (used by the Fig. 6 micro-benchmark
/// which builds a window out of identity slots); `Barrier` constrains the
/// scheduler; `Measure` terminates a qubit's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Gate {
    /// Identity (explicit `id` instruction, one timing slot long).
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = diag(1, i).
    S,
    /// S-dagger.
    Sdg,
    /// T = diag(1, e^{i pi/4}).
    T,
    /// T-dagger.
    Tdg,
    /// Square-root of X (IBM basis gate).
    Sx,
    /// Inverse square-root of X.
    Sxdg,
    /// Rotation about X.
    Rx(Angle),
    /// Rotation about Y.
    Ry(Angle),
    /// Rotation about Z (virtual on IBM hardware: zero duration).
    Rz(Angle),
    /// Phase rotation diag(1, e^{i theta}).
    P(Angle),
    /// Controlled-X (control is the first operand).
    Cx,
    /// Controlled-Z.
    Cz,
    /// SWAP.
    Swap,
    /// Explicit idle period of the given duration in nanoseconds.
    Delay {
        /// Idle duration in nanoseconds.
        duration_ns: f64,
    },
    /// Scheduling barrier across its operand qubits (zero duration).
    Barrier,
    /// Computational-basis measurement.
    Measure,
}

impl Gate {
    /// Number of qubit operands the gate expects. `Barrier` is variadic and
    /// returns 0 here; callers treat 0 as "any arity".
    pub fn arity(&self) -> usize {
        match self {
            Gate::Cx | Gate::Cz | Gate::Swap => 2,
            Gate::Barrier => 0,
            _ => 1,
        }
    }

    /// Lowercase mnemonic, matching OpenQASM where a counterpart exists.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Sx => "sx",
            Gate::Sxdg => "sxdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::P(_) => "p",
            Gate::Cx => "cx",
            Gate::Cz => "cz",
            Gate::Swap => "swap",
            Gate::Delay { .. } => "delay",
            Gate::Barrier => "barrier",
            Gate::Measure => "measure",
        }
    }

    /// Returns `true` for gates that contribute unitary evolution (excludes
    /// delay, barrier, and measurement).
    pub fn is_unitary_gate(&self) -> bool {
        !matches!(self, Gate::Delay { .. } | Gate::Barrier | Gate::Measure)
    }

    /// Returns `true` if the gate still references a symbolic parameter.
    pub fn is_parameterized(&self) -> bool {
        matches!(
            self,
            Gate::Rx(Angle::Param(_))
                | Gate::Ry(Angle::Param(_))
                | Gate::Rz(Angle::Param(_))
                | Gate::P(Angle::Param(_))
        )
    }

    /// Highest parameter index referenced, if any.
    pub fn param_index(&self) -> Option<usize> {
        match self {
            Gate::Rx(Angle::Param(k))
            | Gate::Ry(Angle::Param(k))
            | Gate::Rz(Angle::Param(k))
            | Gate::P(Angle::Param(k)) => Some(*k),
            _ => None,
        }
    }

    /// The inverse gate (for reversibility-based tests and tuning circuits
    /// in the style of the gate-scheduling prior work \[42\]).
    ///
    /// # Panics
    ///
    /// Panics for `Measure`, which has no inverse.
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Sx => Gate::Sxdg,
            Gate::Sxdg => Gate::Sx,
            Gate::Rx(Angle::Fixed(t)) => Gate::Rx(Angle::Fixed(-t)),
            Gate::Ry(Angle::Fixed(t)) => Gate::Ry(Angle::Fixed(-t)),
            Gate::Rz(Angle::Fixed(t)) => Gate::Rz(Angle::Fixed(-t)),
            Gate::P(Angle::Fixed(t)) => Gate::P(Angle::Fixed(-t)),
            Gate::Rx(Angle::Param(_))
            | Gate::Ry(Angle::Param(_))
            | Gate::Rz(Angle::Param(_))
            | Gate::P(Angle::Param(_)) => {
                panic!("cannot invert a gate with unbound parameters")
            }
            Gate::Measure => panic!("measurement has no inverse"),
            g => g, // self-inverse: I, X, Y, Z, H, CX, CZ, SWAP, Delay, Barrier
        }
    }

    /// Rebinds symbolic angles using `params`, producing a concrete gate.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnboundParameter`] if a referenced parameter
    /// is missing from `params`.
    pub fn bind(&self, params: &[f64]) -> Result<Gate, CircuitError> {
        Ok(match *self {
            Gate::Rx(a) => Gate::Rx(Angle::Fixed(a.resolve(Some(params))?)),
            Gate::Ry(a) => Gate::Ry(Angle::Fixed(a.resolve(Some(params))?)),
            Gate::Rz(a) => Gate::Rz(Angle::Fixed(a.resolve(Some(params))?)),
            Gate::P(a) => Gate::P(Angle::Fixed(a.resolve(Some(params))?)),
            g => g,
        })
    }

    /// Dense unitary matrix of the gate (2x2 or 4x4).
    ///
    /// For two-qubit gates the first operand is the more significant bit,
    /// matching [`CMatrix::kron`] conventions.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnboundParameter`] for symbolic gates.
    ///
    /// # Panics
    ///
    /// Panics for non-unitary operations (`Delay`, `Barrier`, `Measure`).
    pub fn unitary(&self) -> Result<CMatrix, CircuitError> {
        let one = Complex64::ONE;
        let zero = Complex64::ZERO;
        Ok(match *self {
            Gate::I => CMatrix::identity(2),
            Gate::X => gates2x2::pauli_x(),
            Gate::Y => gates2x2::pauli_y(),
            Gate::Z => gates2x2::pauli_z(),
            Gate::H => gates2x2::hadamard(),
            Gate::S => CMatrix::from_diagonal(&[one, Complex64::I]),
            Gate::Sdg => CMatrix::from_diagonal(&[one, -Complex64::I]),
            Gate::T => CMatrix::from_diagonal(&[one, Complex64::cis(std::f64::consts::FRAC_PI_4)]),
            Gate::Tdg => {
                CMatrix::from_diagonal(&[one, Complex64::cis(-std::f64::consts::FRAC_PI_4)])
            }
            Gate::Sx => gates2x2::sx(),
            Gate::Sxdg => gates2x2::sx().adjoint(),
            Gate::Rx(a) => gates2x2::rx(a.resolve(None).map_err(|_| unbound(a))?),
            Gate::Ry(a) => gates2x2::ry(a.resolve(None).map_err(|_| unbound(a))?),
            Gate::Rz(a) => gates2x2::rz(a.resolve(None).map_err(|_| unbound(a))?),
            Gate::P(a) => {
                let t = a.resolve(None).map_err(|_| unbound(a))?;
                CMatrix::from_diagonal(&[one, Complex64::cis(t)])
            }
            Gate::Cx => CMatrix::from_rows(&[
                &[one, zero, zero, zero],
                &[zero, one, zero, zero],
                &[zero, zero, zero, one],
                &[zero, zero, one, zero],
            ]),
            Gate::Cz => CMatrix::from_diagonal(&[one, one, one, c64(-1.0, 0.0)]),
            Gate::Swap => CMatrix::from_rows(&[
                &[one, zero, zero, zero],
                &[zero, zero, one, zero],
                &[zero, one, zero, zero],
                &[zero, zero, zero, one],
            ]),
            Gate::Delay { .. } | Gate::Barrier | Gate::Measure => {
                panic!("{} has no unitary representation", self.name())
            }
        })
    }
}

fn unbound(a: Angle) -> CircuitError {
    match a {
        Angle::Param(k) => CircuitError::UnboundParameter { param: k },
        Angle::Fixed(_) => unreachable!("fixed angles always resolve"),
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Rx(Angle::Fixed(t)) => write!(f, "rx({t:.6})"),
            Gate::Ry(Angle::Fixed(t)) => write!(f, "ry({t:.6})"),
            Gate::Rz(Angle::Fixed(t)) => write!(f, "rz({t:.6})"),
            Gate::P(Angle::Fixed(t)) => write!(f, "p({t:.6})"),
            Gate::Rx(Angle::Param(k)) => write!(f, "rx(θ[{k}])"),
            Gate::Ry(Angle::Param(k)) => write!(f, "ry(θ[{k}])"),
            Gate::Rz(Angle::Param(k)) => write!(f, "rz(θ[{k}])"),
            Gate::P(Angle::Param(k)) => write!(f, "p(θ[{k}])"),
            Gate::Delay { duration_ns } => write!(f, "delay({duration_ns}ns)"),
            g => write!(f, "{}", g.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn all_unitary_gates_are_unitary() {
        let gates = [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Sxdg,
            Gate::Rx(Angle::Fixed(0.3)),
            Gate::Ry(Angle::Fixed(1.1)),
            Gate::Rz(Angle::Fixed(-0.7)),
            Gate::P(Angle::Fixed(2.0)),
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
        ];
        for g in gates {
            let u = g.unitary().expect("bound gate");
            assert!(u.is_unitary(1e-12), "{g} is not unitary");
        }
    }

    #[test]
    fn inverse_composes_to_identity() {
        let gates = [
            Gate::X,
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::Sx,
            Gate::Rx(Angle::Fixed(0.9)),
            Gate::Ry(Angle::Fixed(-2.2)),
            Gate::Rz(Angle::Fixed(0.4)),
            Gate::Cx,
            Gate::Swap,
        ];
        for g in gates {
            let u = g.unitary().unwrap();
            let v = g.inverse().unitary().unwrap();
            assert!((&u * &v).is_identity(1e-12), "{g} inverse failed");
        }
    }

    #[test]
    fn s_squared_is_z() {
        let s = Gate::S.unitary().unwrap();
        assert!((&s * &s).max_abs_diff(&Gate::Z.unitary().unwrap()) < 1e-12);
    }

    #[test]
    fn t_squared_is_s() {
        let t = Gate::T.unitary().unwrap();
        assert!((&t * &t).max_abs_diff(&Gate::S.unitary().unwrap()) < 1e-12);
    }

    #[test]
    fn rx_pi_equals_x_up_to_global_phase() {
        let rx = Gate::Rx(Angle::Fixed(PI)).unitary().unwrap();
        let x = Gate::X.unitary().unwrap().scale(c64(0.0, -1.0));
        assert!(rx.max_abs_diff(&x) < 1e-12);
    }

    #[test]
    fn cx_maps_basis_states_correctly() {
        let cx = Gate::Cx.unitary().unwrap();
        // |10> (control=1, target=0) -> |11>
        let v = vec![
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::ONE,
            Complex64::ZERO,
        ];
        let w = cx.mul_vec(&v);
        assert!(w[3].approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn param_binding() {
        let g = Gate::Ry(Angle::Param(2));
        assert!(g.is_parameterized());
        assert_eq!(g.param_index(), Some(2));
        let bound = g.bind(&[0.0, 0.0, 1.5]).unwrap();
        assert_eq!(bound, Gate::Ry(Angle::Fixed(1.5)));
        assert!(!bound.is_parameterized());
    }

    #[test]
    fn binding_missing_param_errors() {
        let g = Gate::Rz(Angle::Param(5));
        let err = g.bind(&[0.0]).unwrap_err();
        assert_eq!(err, CircuitError::UnboundParameter { param: 5 });
    }

    #[test]
    fn unitary_of_unbound_param_errors() {
        let g = Gate::Rx(Angle::Param(0));
        assert!(g.unitary().is_err());
    }

    #[test]
    #[should_panic(expected = "no unitary")]
    fn measure_has_no_unitary() {
        let _ = Gate::Measure.unitary();
    }

    #[test]
    fn arity_and_names() {
        assert_eq!(Gate::Cx.arity(), 2);
        assert_eq!(Gate::H.arity(), 1);
        assert_eq!(Gate::Cx.name(), "cx");
        assert_eq!(Gate::Delay { duration_ns: 10.0 }.name(), "delay");
        assert!(!Gate::Measure.is_unitary_gate());
        assert!(Gate::X.is_unitary_gate());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Gate::Rx(Angle::Fixed(0.5)).to_string(), "rx(0.500000)");
        assert_eq!(Gate::Ry(Angle::Param(3)).to_string(), "ry(θ[3])");
        assert_eq!(Gate::Cx.to_string(), "cx");
    }
}
