//! # vaqem-sim
//!
//! Quantum simulators for the VAQEM (HPCA 2022) reproduction, covering all
//! three execution substrates the paper uses:
//!
//! * [`statevector`] — ideal simulation (the angle-tuning substrate of the
//!   feasible flow, Fig. 11),
//! * [`density`] — a Markovian density-matrix engine standing in for a
//!   calibration-derived noisy simulator (the "Noisy Simulation" of Fig. 9),
//! * [`machine`] — a quantum-trajectory executor with quasi-static
//!   dephasing, telegraph noise, ZZ crosstalk, T1/T2 jumps, gate error and
//!   readout error, standing in for the real IBM backend.
//!
//! The deliberate asymmetry between [`density`] and [`machine`] (the former
//! misses correlated noise) reproduces the paper's core observation that
//! error-mitigation tuning must happen on the machine.
//!
//! [`exec`] wraps the statevector and density engines as execution
//! endpoints (scheduled circuit + shots + seed → counts) with the same
//! shape as [`machine`], so the core crate's `Executor` trait can drive
//! all three substrates interchangeably.
//!
//! The engines' hot paths run through shared infrastructure: [`kernels`]
//! (half/quarter-index-space amplitude sweeps of the statevector and
//! density engines), [`fusion`] (single-qubit gate fusion and unpacked gate
//! matrices, which all three use), and [`sampling`] (build-once CDF shot
//! sampling). The [`machine`] runs every trajectory, whatever the
//! register's width, in a lane-major state that holds
//! [`machine::LANES`] shots abreast. [`naive`] preserves the original
//! implementations as the parity oracle and the benchmark baseline.

pub mod channels;
pub mod counts;
pub mod density;
pub mod exec;
pub mod fusion;
pub mod kernels;
mod lanes;
pub mod machine;
pub mod naive;
pub mod sampling;
pub mod statevector;

pub use counts::Counts;
pub use density::DensityMatrix;
pub use exec::{DensityExecutor, StateVectorSampler};
pub use machine::MachineExecutor;
pub use sampling::CdfSampler;
pub use statevector::StateVector;
