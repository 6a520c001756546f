//! # vaqem-mathkit
//!
//! Numerical foundation for the VAQEM (HPCA 2022) reproduction: complex
//! arithmetic, dense complex linear algebra, Hermitian eigensolvers,
//! distribution statistics (Hellinger fidelity), and deterministic RNG
//! plumbing.
//!
//! The crate is dependency-light by design: the quantum simulator, Pauli
//! algebra, and evaluation harness in the sibling crates are all built on the
//! primitives here, so correctness of this layer is exercised heavily by unit
//! and property tests.
//!
//! # Examples
//!
//! ```
//! use vaqem_mathkit::matrix::gates2x2;
//! use vaqem_mathkit::eigen::ground_state_energy;
//!
//! // H = Z ⊗ Z has ground energy -1.
//! let zz = gates2x2::pauli_z().kron(&gates2x2::pauli_z());
//! assert!((ground_state_energy(&zz) + 1.0).abs() < 1e-9);
//! ```

pub mod complex;
pub mod eigen;
pub mod lanemath;
pub mod linalg;
pub mod matrix;
pub mod rng;
pub mod smallmat;
pub mod stats;

pub use complex::{c64, Complex64};
pub use matrix::CMatrix;
pub use rng::SeedStream;
pub use smallmat::{M2, M4};
