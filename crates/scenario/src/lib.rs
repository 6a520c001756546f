//! # vaqem-scenario
//!
//! The scenario-matrix verification harness: one declarative grid
//! crossing **workloads** (`vaqem::workloads::ScenarioWorkload` — TFIM
//! on SU2 at two depths, H2/UCCSD chemistry end-to-end, QAOA-style ring
//! ansätze) × **device classes** (`vaqem_device::classes::DeviceClass`
//! — fast- vs. slow-decoherence, fast- vs. slow-drift presets,
//! instantiated at each workload's width) × **tenant behaviors**
//! ([`tenant::TenantBehavior`] — uniform, bursty, quota-probing greedy,
//! churn with mid-stream disconnects).
//!
//! Every cell runs through the *real* reactor (`FleetService`) under a
//! pinned root seed — cold round, warm round, abrupt kill plus
//! journal-replay reopen, recovery round, then the cell's tenant
//! contention phase — and asserts the stack's cross-cutting invariants
//! per cell ([`invariant`]):
//!
//! * **starvation bound** on the contention device's completion
//!   order (every backlogged client keeps its weight share, minus one);
//! * **fair window** in the bursty cells: every light tenant completes
//!   inside the first rotation after a heavy backlog, which FIFO fails;
//! * **quota accounting**: reservations settle exactly once — the
//!   drained ledger holds zero in-flight sessions and zero reserved
//!   minutes, and `completed + rejected` matches what the harness
//!   submitted;
//! * **warm < cold** machine-minute cost;
//! * **kill-and-restart recovery** with the warm-hit rate preserved
//!   across the journal replay;
//! * **guard-accepted warm == cold parity**: a full warm hit adopts
//!   exactly the configuration the cold round tuned.
//!
//! The grid renders as a table ([`report::MatrixReport`]'s `Display`)
//! and as a machine-readable JSON document
//! ([`report::MatrixReport::to_json`]) embedding each cell's full
//! `metrics_report()` dump — the artifact CI uploads.
//!
//! Drive it via the root `tests/scenario_matrix.rs` driver (reduced
//! grid) or the `extension_scenario_matrix` replay binary (full grid,
//! ≥ 24 cells). The root seed is pinned per entry point and
//! overridable through `VAQEM_SEED`
//! (`vaqem_mathkit::rng::root_seed_from_env`).

#![deny(missing_docs)]

pub mod invariant;
pub mod matrix;
pub mod report;
pub mod tenant;

pub use invariant::InvariantOutcome;
pub use matrix::{run_matrix, MatrixConfig};
pub use report::{CellReport, MatrixReport};
pub use tenant::TenantBehavior;
