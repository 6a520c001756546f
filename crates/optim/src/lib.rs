//! # vaqem-optim
//!
//! Classical optimizers for the VAQEM (HPCA 2022) reproduction:
//!
//! * [`spsa`] — Simultaneous Perturbation Stochastic Approximation, the
//!   paper's (and Qiskit Runtime's) angle tuner;
//! * [`sweep`] — the per-window 1-D exhaustive sweep used by the paper's
//!   independent-window error-mitigation tuner (§VI-C).

pub mod spsa;
pub mod sweep;

pub use spsa::{SpsaConfig, SpsaResult};
pub use sweep::{sweep_minimize, SweepResult};
