//! # vaqem-fleet-service
//!
//! The long-lived fleet daemon of the VAQEM reproduction: many concurrent
//! clients submit EM-tuning sessions against a few shared devices, backed
//! by a sharded, **persistent** mitigation-config store
//! (`vaqem_runtime::persist::DurableStore`) so the fleet's tuned-config
//! capital survives process restarts.
//!
//! The paper's §IX transfer result makes per-window EM tuning cacheable;
//! PR 2 built the cache; this crate makes it a *multi-tenant service*:
//! an **event-driven reactor** (one scheduler thread reacting to session
//! arrivals and completions) dispatches each device's sessions to that
//! device's worker thread. Per device, the next session is chosen by
//! **weighted round-robin across clients** ([`fairness`]) — no tenant
//! head-of-line-blocks another — and per-client **quotas** ([`quota`]:
//! in-flight caps, machine-minute budgets priced through the cost
//! model) reject greedy submissions with a typed error. Admission
//! stays queue-aware (fed by `CostModel::queuing_minutes`), drift
//! invalidation stays journaled, completions auto-compact the journal,
//! and stops are graceful ([`FleetService::shutdown`]) or abrupt
//! ([`FleetService::halt`]) with journal-replay recovery.
//! [`FleetService::metrics_report`] dumps the whole picture — event
//! counters, per-device queues and fairness lanes, per-client quota
//! usage and store traffic, per-shard metrics. Sessions cover every
//! tuning family the core tuner exposes — per-window DD/GS, the
//! coordinated GS+DD mode, and the §IX ZNE extension
//! ([`SessionKind::Zne`], [`SessionKind::CombinedZne`], whose composed
//! `(gs, dd, zne)` choices are cached and journaled as single units).
//!
//! The full daemon lifecycle — open, submit, await, shutdown — runs
//! in-process:
//!
//! ```
//! use vaqem_ansatz::su2::{EfficientSu2, Entanglement};
//! use vaqem_circuit::schedule::DurationModel;
//! use vaqem_device::{backend::DeviceModel, drift::DriftModel, noise::NoiseParameters};
//! use vaqem_fleet_service::{
//!     DeviceSpec, FleetService, FleetServiceConfig, SessionKind, SessionRequest,
//! };
//! use vaqem_mathkit::rng::SeedStream;
//! use vaqem_runtime::BatchDispatch;
//!
//! # fn main() -> std::io::Result<()> {
//! // A tiny 2-qubit TFIM problem and one device keep this example fast.
//! let problem = vaqem::vqe::VqeProblem::new(
//!     "doc_tfim_2q",
//!     vaqem_pauli::models::tfim_paper(2),
//!     EfficientSu2::new(2, 1, Entanglement::Linear).circuit().unwrap(),
//! )
//! .unwrap();
//! let noise = NoiseParameters::uniform(2);
//! let device = DeviceSpec {
//!     name: "doc-device".into(),
//!     model: DeviceModel::new(
//!         "doc-device", 2, vec![(0, 1)], DurationModel::ibm_default(), noise,
//!     ),
//!     drift: DriftModel::new(SeedStream::new(7).substream("drift")),
//! };
//! let store_dir = std::env::temp_dir().join(format!("vaqem-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&store_dir);
//! let config = FleetServiceConfig {
//!     store_dir: store_dir.clone(),
//!     shards: 2,
//!     capacity_per_shard: 64,
//!     shots: 64,
//!     tuner: vaqem::window_tuner::WindowTunerConfig {
//!         sweep_resolution: 2,
//!         max_repetitions: 2,
//!         guard_repeats: 1,
//!         ..Default::default()
//!     },
//!     // Pricing: circuit makespan, windows the estimate assumes.
//!     circuit_ns: 8_000.0,
//!     estimate_windows: 4,
//!     dispatch: BatchDispatch::local(2),
//!     // Default tenancy: equal weights, unlimited quotas,
//!     // auto-compaction at the default journal bound.
//!     tenancy: vaqem_fleet_service::TenancyConfig::default(),
//! };
//!
//! // Open (recovers any previous snapshot + journal), submit, await.
//! let service = FleetService::open(config, vec![device], problem.clone(), SeedStream::new(7))?;
//! let rx = service.submit(SessionRequest {
//!     client: "c0".into(),
//!     t_hours: 1.0,
//!     params: vec![0.3; problem.num_params()],
//!     device: None, // queue-aware admission picks
//!     kind: SessionKind::Dd,
//! });
//! let outcome = rx.recv().expect("worker alive").expect("tuning ok");
//! assert_eq!(outcome.client, "c0");
//! assert!(outcome.minutes >= 0.0);
//!
//! // Graceful shutdown: checkpoint (snapshot written, journal truncated).
//! service.shutdown()?;
//! # std::fs::remove_dir_all(&store_dir).ok();
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod codec;
pub mod daemon;
pub mod fairness;
pub mod quota;
pub mod reactor;
pub mod scheduler;
pub mod socket;

pub use daemon::{
    DeviceSpec, DriverHandle, DurableMitigationStore, FleetService, FleetServiceConfig,
    SessionError, SessionKind, SessionOutcome, SessionRequest, SessionResult, TenancyConfig,
};
pub use fairness::{FairQueue, FairnessConfig, LaneSnapshot};
pub use quota::{ClientQuota, QuotaError, QuotaUsage};
pub use reactor::{DeviceMetricsReport, EventCounters, FleetMetricsReport};
pub use socket::{DriverAction, RpcMetricsReport, SocketDriver};
