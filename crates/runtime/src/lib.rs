//! # vaqem-runtime
//!
//! The quantum-cloud *runtime* layer of the VAQEM reproduction: everything
//! about executing the feasible flow at fleet scale that is not quantum
//! mechanics.
//!
//! Eight modules:
//!
//! * [`cost`] — the execution-cost model standing in for the paper's
//!   Qiskit Runtime measurements (§VI-A, §VIII-D, Fig. 15): per-job
//!   latency for Runtime vs. the classic client loop, session caps,
//!   log-normal queue waits, the four-way wall-clock breakdown, and the
//!   batched/warm-start re-pricings of the EM-tuning stage.
//! * [`cache`] — the fleet-scale tuned-configuration store: a bounded LRU
//!   map from `(device, calibration epoch, window fingerprint)` to a
//!   tuned per-window choice, with hit/miss metrics and the drift
//!   invalidation contract. The concrete fingerprint lives in the core
//!   crate (`vaqem::window_tuner::WindowFingerprint`); this crate owns
//!   eviction and bookkeeping.
//! * [`store`] — the [`store::StoreBackend`] trait the warm-start tuner
//!   runs against, plus [`store::ShardedStore`]: one `ConfigStore` per
//!   shard behind its own mutex, routed by a stable hash of the device
//!   name, with per-shard hit/miss/contention metrics.
//! * [`persist`] — restart survival: a handwritten byte [`persist::Codec`],
//!   a versioned snapshot + append-only journal, and
//!   [`persist::DurableStore`] tying both to a sharded store.
//! * [`json`] — the handwritten JSON document builder the structured
//!   reports (`metrics_report()` dumps, the scenario-matrix grid) render
//!   through, with the key-path flattening golden-schema tests pin.
//! * [`wire`] — streaming length-prefixed framing for the RPC
//!   front-end: [`wire::FrameReader`] reassembles frames from
//!   arbitrarily-torn nonblocking-socket reads with the same torn-tail
//!   tolerance the journal applies on disk.
//! * [`latency`] — [`latency::LatencyHistogram`], the fixed-footprint
//!   log-bucketed histogram the load generator reads p50/p95/p99
//!   session latencies from.
//! * [`backoff`] — [`backoff::IdleBackoff`], the adaptive idle sleep
//!   the RPC pump's scan source paces on (floor-to-ceiling doubling,
//!   reset on activity).
//!
//! Together they answer the question the per-circuit crates cannot: what
//! does a *repeated, shared* workload cost, and how much of the paper's
//! dominant EM-tuning bill (Fig. 15) does the transfer result of §IX let
//! a fleet amortize?
//!
//! ```
//! use vaqem_runtime::{
//!     cache::ConfigStore, AngleTuningMode, BatchDispatch, CostModel, WorkloadProfile,
//! };
//!
//! let model = CostModel::ibm_cloud_2021();
//! let profile = WorkloadProfile {
//!     num_qubits: 6,
//!     circuit_ns: 12_000.0,
//!     iterations: 400,
//!     measurement_groups: 2,
//!     windows: 30,
//!     sweep_resolution: 8,
//!     shots: 2048,
//! };
//! let dispatch = BatchDispatch::local(8);
//!
//! // Cold vs. fully warm EM tuning for one client.
//! let cold = model.em_tuning_minutes_batched(&profile, &dispatch);
//! let warm = model.em_tuning_minutes_warm(&profile, &dispatch, 1.0, 4);
//! assert!(warm < cold);
//!
//! // The store that produces those warm hits.
//! let mut store: ConfigStore<u64, usize> = ConfigStore::new(1024);
//! store.insert("ibmq_casablanca", 3, 0xfeed, 2);
//! assert_eq!(store.get("ibmq_casablanca", 3, &0xfeed), Some(&2));
//! assert!(store.metrics().hit_rate() > 0.99);
//! let _ = model.angle_tuning_minutes(&profile, AngleTuningMode::IdealSimulation);
//! ```

#![deny(missing_docs)]

pub mod backoff;
pub mod cache;
pub mod cost;
pub mod json;
pub mod latency;
pub mod persist;
pub mod store;
pub mod wire;

pub use backoff::IdleBackoff;
pub use cache::{CacheMetrics, ConfigStore};
pub use cost::{
    AngleTuningMode, BatchDispatch, CostModel, ExecutionTimeBreakdown, WorkloadProfile,
};
pub use json::JsonValue;
pub use latency::LatencyHistogram;
pub use persist::{Codec, CompactionPolicy, DurableStore, RecoveryReport, ShipBatch, ShipCursor};
pub use store::{ShardMetrics, ShardedStore, StoreBackend};
pub use wire::{frame, FrameError, FrameReader};
