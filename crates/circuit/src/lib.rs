//! # vaqem-circuit
//!
//! Quantum circuit intermediate representation for the VAQEM (HPCA 2022)
//! reproduction: a Qiskit-shaped gate set with symbolic parameters, a
//! duration-aware ASAP/ALAP scheduler, idle-window extraction (the
//! substrate both mitigation techniques operate on), and full-circuit
//! unitary synthesis for semantics checks.
//!
//! # Examples
//!
//! ```
//! use vaqem_circuit::circuit::QuantumCircuit;
//! use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind};
//!
//! # fn main() -> Result<(), vaqem_circuit::error::CircuitError> {
//! let mut qc = QuantumCircuit::new(2);
//! qc.h(0)?;
//! qc.cx(0, 1)?;          // anchors qubit 0 early
//! for _ in 0..4 { qc.sx(1)?; }
//! qc.x(0)?;              // packs late under ALAP; idle window before it
//! qc.cx(0, 1)?;
//! let scheduled = schedule(&qc, &DurationModel::ibm_default(), ScheduleKind::Alap)?;
//! let windows = scheduled.idle_windows(35.56);
//! assert!(!windows.is_empty());
//! # Ok(())
//! # }
//! ```

pub mod circuit;
pub mod error;
pub mod gate;
pub mod schedule;
pub mod unitary;

pub use circuit::{Instruction, QuantumCircuit};
pub use error::CircuitError;
pub use gate::{Angle, Gate};
pub use schedule::{schedule, DurationModel, IdleWindow, ScheduleKind, ScheduledCircuit, TimedOp};
