//! The fleet daemon: many concurrent clients, few devices, one durable
//! config store — scheduled by an event-driven reactor.
//!
//! # Architecture
//!
//! ```text
//!  client threads ──submit()──▶ event channel
//!                                    │
//!                                    ▼            (one scheduler thread)
//!                     ┌──────── REACTOR ────────────────────────────┐
//!                     │ unified event queue:                        │
//!                     │   arrival · completion · recalibration ·    │
//!                     │   checkpoint tick                           │
//!                     │ per-device DRR fair queues (fairness.rs)    │
//!                     │ per-client quotas (quota.rs)                │
//!                     │ queue-aware admission (scheduler.rs)        │
//!                     └──┬───────────┬──────────────┬───────────────┘
//!                        │ dispatch  │              │ ≤1 session per
//!                        ▼           ▼              ▼ device in flight
//!                    worker 0    worker 1  …   worker P-1   (bounded pool)
//!                        │ warm-start tuning (core crate)
//!                        ▼
//!               Arc<DurableMitigationStore>  (sharded; device → shard)
//!                        │ mutations journaled; reactor ticks
//!                        │ auto-compact past the journal bound
//!                        ▼
//!                 store_dir/store.snapshot + store.journal
//! ```
//!
//! The reactor owns *all* scheduling state — per-device deficit-
//! round-robin queues across clients, the quota ledger, the drift feed,
//! worker availability — and mutates it only while handling events, so
//! there is no admission lock and no per-device condvar parking (the
//! PR 3 design this replaced). Devices still serialize their own
//! sessions (a tuning session holds the machine), but *which* client's
//! session runs next is weighted fair queueing, not FIFO: one heavy
//! tenant can no longer head-of-line-block every other client on its
//! device, and per-client quotas (in-flight cap, machine-minute budget
//! per epoch priced through the cost model) bound what any tenant can
//! claim. See `crate::reactor`, `crate::fairness`, `crate::quota`.
//!
//! Each session: the reactor observes the device's drift clock at
//! arrival (crossing ⇒ a recalibration event that journal-invalidates
//! the device's stale epochs), then a pool worker rebuilds the
//! calibration snapshot, warm-start tunes through the core crate's
//! guard-gated cache path (ZNE and composed sessions ride the same path
//! via their circuit-level fingerprints), and prices the measured
//! evaluation count with the cost model — folded (ZNE) evaluations at
//! the folded-shot multiplier, the rest plain.
//!
//! # Determinism
//!
//! Per-device trajectory streams are derived from the root seed and the
//! device name — so a session's tuned result is independent of which
//! client submitted first, and N concurrent clients tuning identical
//! fingerprints converge to a single-threaded replay's configs
//! (`tests/fleet_service.rs` pins this). Scheduling itself is a pure
//! function of the event order: the DRR dispatch sequence and quota
//! verdicts contain no RNG and no wall clocks.

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use vaqem::backend::QuantumBackend;
use vaqem::vqe::VqeProblem;
use vaqem::window_tuner::{
    FleetCacheSession, StoredChoice, WindowFingerprint, WindowTuner, WindowTunerConfig,
};
use vaqem_device::backend::DeviceModel;
use vaqem_device::drift::DriftModel;
use vaqem_mathkit::rng::SeedStream;
use vaqem_mitigation::combined::MitigationConfig;
use vaqem_runtime::persist::{CompactionPolicy, DurableStore};
use vaqem_runtime::{BatchDispatch, CostModel, WorkloadProfile};

use crate::fairness::FairnessConfig;
use crate::quota::{ClientQuota, QuotaError};
use crate::reactor::{
    reactor_loop, worker_loop, Event, FleetMetricsReport, Inbox, Reply, WorkItem,
};
use crate::scheduler;
use crate::socket::SocketDriver;

/// The concrete durable fleet store: fingerprints to guard-validated
/// [`StoredChoice`]s — per-window picks and whole-circuit composed
/// `(gs, dd, zne)` configs side by side — sharded by device and
/// journaled to disk.
pub type DurableMitigationStore = DurableStore<WindowFingerprint, StoredChoice>;

/// One shared device: identity, hardware model, drift clock.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Device name — the cache key, shard-routing key, and seed label.
    pub name: String,
    /// The hardware model.
    pub model: DeviceModel,
    /// The device's drift/recalibration clock.
    pub drift: DriftModel,
}

/// Which warm-start tuning family a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SessionKind {
    /// DD repetition tuning (the paper's "VAQEM: XY/XX").
    #[default]
    Dd,
    /// Gate-position tuning ("VAQEM: GS").
    Gs,
    /// GS then DD ("VAQEM: GS+XY").
    Combined,
    /// ZNE protocol tuning (paper §IX: scale-factor set + extrapolation
    /// model swept under the guard).
    Zne,
    /// The full composition — GS, then DD, then ZNE — cached as one
    /// composed choice ("VAQEM: GS+XY+ZNE").
    CombinedZne,
}

/// Multi-tenancy policy: worker pool bound, fairness weights, quotas,
/// and the self-compaction policy. The default is the "no policy"
/// fleet — unlimited equal-weight tenants, a pool of one worker per
/// device, auto-compaction at the store's default journal bound — which
/// behaves like the pre-reactor daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyConfig {
    /// Worker pool size; `0` means one worker per device (each device
    /// runs at most one session at a time regardless, so a larger pool
    /// never helps).
    pub workers: usize,
    /// Deficit-round-robin weights (see `crate::fairness`).
    pub fairness: FairnessConfig,
    /// Quota for clients without an override.
    pub default_quota: ClientQuota,
    /// Per-client quota overrides.
    pub quotas: Vec<(String, ClientQuota)>,
    /// Length of the machine-minute budget accounting window, in the
    /// request clock's hours.
    pub quota_epoch_hours: f64,
    /// When checkpoint ticks (one after every completion) compact the
    /// journal into a snapshot.
    pub compaction: CompactionPolicy,
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig {
            workers: 0,
            fairness: FairnessConfig::default(),
            default_quota: ClientQuota::unlimited(),
            quotas: Vec::new(),
            quota_epoch_hours: 24.0,
            compaction: CompactionPolicy::default(),
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct FleetServiceConfig {
    /// Directory holding the persistent store (snapshot + journal).
    pub store_dir: PathBuf,
    /// Shard count for the config store (≥ device count keeps devices on
    /// distinct shards).
    pub shards: usize,
    /// LRU capacity per shard.
    pub capacity_per_shard: usize,
    /// Shots per machine execution.
    pub shots: u64,
    /// Per-window tuner settings (sweep resolution, DD sequence, guard).
    pub tuner: WindowTunerConfig,
    /// Workload template for cost pricing and queue-wait sampling; the
    /// per-session `windows` count is overridden by the measured value.
    pub profile: WorkloadProfile,
    /// The cost model pricing EM minutes and queue waits.
    pub cost: CostModel,
    /// Batched-dispatch shape for pricing.
    pub dispatch: BatchDispatch,
    /// Multi-tenancy policy (fairness, quotas, pool size, compaction).
    pub tenancy: TenancyConfig,
}

/// One client's tuning request.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// Client label — the fairness lane and quota account.
    pub client: String,
    /// Wall-clock hour of the request (drives the drift clock and the
    /// quota epoch).
    pub t_hours: f64,
    /// Tuned ansatz angles the mitigation is tuned under.
    pub params: Vec<f64>,
    /// Pin the session to a device, or let queue-aware admission choose.
    pub device: Option<usize>,
    /// Tuning family.
    pub kind: SessionKind,
}

/// What one completed session reports back to its client.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Client label, echoed.
    pub client: String,
    /// Device index the session ran on.
    pub device: usize,
    /// Device name.
    pub device_name: String,
    /// Calibration epoch the session tuned under.
    pub epoch: u64,
    /// Windows warm-started from the store.
    pub hits: usize,
    /// Windows swept in full.
    pub misses: usize,
    /// Whether any stage's acceptance guard rejected.
    pub guard_rejected: bool,
    /// Machine objective evaluations spent.
    pub evaluations: usize,
    /// Machine minutes, priced from the measured evaluation count.
    pub minutes: f64,
    /// Stale entries invalidated by a recalibration crossing this
    /// session observed (0 almost always).
    pub invalidated: usize,
    /// Global completion index across the service since open (the
    /// dispatch-order audit trail: restricted to one device it is the
    /// device's completion order, which the starvation-freedom replay
    /// asserts against).
    pub sequence: u64,
    /// The guard-validated mitigation configuration.
    pub config: MitigationConfig,
}

/// Why a session concluded without an outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// Rejected at admission by the client's quota (typed; nothing ran).
    Quota(QuotaError),
    /// The tuning run itself failed on the device.
    Tuning(String),
    /// Rejected before admission because the submitting connection's
    /// outbound queue is too deep — a reader too slow to drain its own
    /// results must not pile unbounded frames onto the server. Only
    /// RPC submissions can see this; nothing was charged or enqueued.
    Overloaded {
        /// Bytes already queued toward the connection.
        pending_out_bytes: usize,
        /// The soft bound the queue crossed.
        limit: usize,
    },
    /// The peer violated the wire protocol (e.g. submitted before
    /// binding an identity with an open frame, or pinned a device the
    /// fleet lacks). Only RPC submissions can see this.
    Protocol(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Quota(e) => write!(f, "quota rejection: {e}"),
            SessionError::Tuning(msg) => write!(f, "tuning failed: {msg}"),
            SessionError::Overloaded {
                pending_out_bytes,
                limit,
            } => write!(
                f,
                "connection overloaded: {pending_out_bytes} bytes pending (soft bound {limit})"
            ),
            SessionError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// How a session concludes: the outcome, or a typed error.
pub type SessionResult = Result<SessionOutcome, SessionError>;

/// State shared by the reactor, the worker pool, and the service
/// handle. Immutable after open except for the atomics.
pub(crate) struct ServiceShared {
    pub config: FleetServiceConfig,
    pub devices: Vec<DeviceSpec>,
    pub queue_wait_min: Vec<f64>,
    pub store: Arc<DurableMitigationStore>,
    pub problem: VqeProblem,
    pub seeds: SeedStream,
    /// The per-session cost estimate (uniform across sessions: the
    /// profile is per-service), used for admission, DRR costs, and
    /// quota reservations.
    pub estimate_min: f64,
    pub shutdown: AtomicBool,
    pub completed: AtomicUsize,
}

/// The long-lived fleet daemon. See the module docs for the
/// architecture.
pub struct FleetService {
    shared: Arc<ServiceShared>,
    inbox: Inbox,
    reactor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl FleetService {
    /// Opens the persistent store under `config.store_dir` (recovering
    /// any snapshot + journal left by a previous process), spawns the
    /// reactor thread and the bounded worker pool.
    ///
    /// # Errors
    ///
    /// Store recovery I/O or format errors.
    ///
    /// # Panics
    ///
    /// Panics when `devices` is empty.
    pub fn open(
        config: FleetServiceConfig,
        devices: Vec<DeviceSpec>,
        problem: VqeProblem,
        seeds: SeedStream,
    ) -> io::Result<Self> {
        assert!(!devices.is_empty(), "fleet needs at least one device");
        let store = Arc::new(DurableMitigationStore::open(
            &config.store_dir,
            config.shards,
            config.capacity_per_shard,
        )?);
        // Group commit by default: journal records buffer in memory and
        // the reactor flushes once per event-loop drain (replies stay
        // gated until their batch is durable, so the acknowledged ⇒
        // durable contract holds either way). `VAQEM_JOURNAL_MODE=
        // per_record` restores the one-flush-per-mutation seed behavior
        // — the loadgen sweep uses it as the comparison baseline.
        store.set_group_commit(
            std::env::var("VAQEM_JOURNAL_MODE")
                .map(|v| v != "per_record")
                .unwrap_or(true),
        );
        let names: Vec<String> = devices.iter().map(|d| d.name.clone()).collect();
        let queue_wait_min =
            scheduler::device_queue_minutes(&config.cost, &seeds, &config.profile, &names);
        let estimate_min = config
            .cost
            .em_tuning_minutes_batched(&config.profile, &config.dispatch);
        let pool = match config.tenancy.workers {
            0 => devices.len(),
            n => n,
        };
        let shared = Arc::new(ServiceShared {
            config,
            devices,
            queue_wait_min,
            store,
            problem,
            seeds,
            estimate_min,
            shutdown: AtomicBool::new(false),
            completed: AtomicUsize::new(0),
        });
        let (events, event_rx) = mpsc::channel();
        let inbox = Inbox {
            events,
            waker: Arc::default(),
        };
        let mut worker_txs = Vec::with_capacity(pool);
        let mut workers = Vec::with_capacity(pool);
        for _ in 0..pool {
            let (tx, rx) = mpsc::channel::<WorkItem>();
            worker_txs.push(tx);
            let shared = Arc::clone(&shared);
            let inbox = inbox.clone();
            workers.push(std::thread::spawn(move || worker_loop(shared, rx, inbox)));
        }
        let reactor = {
            let shared = Arc::clone(&shared);
            let waker = Arc::clone(&inbox.waker);
            std::thread::spawn(move || reactor_loop(shared, event_rx, waker, worker_txs))
        };
        Ok(FleetService {
            shared,
            inbox,
            reactor,
            workers,
        })
    }

    /// Submits a session and returns the channel its result arrives on.
    ///
    /// The reactor handles the arrival: queue-aware admission when the
    /// request does not pin a device (the device minimizing
    /// `queue wait + projected backlog`), then the quota gate — a breach
    /// answers the channel immediately with
    /// [`SessionError::Quota`] — then the device's deficit-round-robin
    /// fair queue decides when the session runs relative to other
    /// clients'.
    ///
    /// # Panics
    ///
    /// Panics when called after shutdown began, or when a pinned device
    /// index is out of range.
    pub fn submit(&self, request: SessionRequest) -> mpsc::Receiver<SessionResult> {
        assert!(
            !self.shared.shutdown.load(Ordering::SeqCst),
            "submit after shutdown"
        );
        if let Some(d) = request.device {
            assert!(d < self.shared.devices.len(), "device index out of range");
        }
        let (tx, rx) = mpsc::channel();
        self.inbox
            .send(Event::Arrive {
                request,
                reply: Reply::Channel(tx),
            })
            .expect("reactor alive");
        rx
    }

    /// Attaches a transport driver (see `crate::socket`): from the next
    /// event on, the reactor thread runs the driver's socket I/O and
    /// waits in its [`SocketDriver::poll`] instead of on the event
    /// channel. Remote submissions share the in-process admission,
    /// fairness, and quota path, and the driver's counters appear in
    /// every subsequent [`FleetService::metrics_report`].
    ///
    /// Attaching a second driver drops the first, closing its sockets.
    ///
    /// # Panics
    ///
    /// Panics when called after shutdown began.
    pub fn attach_socket_driver(&self, driver: Box<dyn SocketDriver>) -> DriverHandle {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.inbox
            .send(Event::AttachDriver(id, driver))
            .expect("reactor alive");
        DriverHandle {
            id,
            inbox: self.inbox.clone(),
        }
    }

    /// A structured dump of the live service: reactor event counters,
    /// per-device queue depth/backlog and fairness lanes, per-client
    /// quota usage and attributed store traffic, per-shard store
    /// metrics. Answered by the reactor between events, so the snapshot
    /// is internally consistent.
    ///
    /// # Panics
    ///
    /// Panics when the reactor is gone (after shutdown began).
    pub fn metrics_report(&self) -> FleetMetricsReport {
        let (tx, rx) = mpsc::channel();
        self.inbox.send(Event::Metrics(tx)).expect("reactor alive");
        rx.recv().expect("reactor answers metrics")
    }

    /// The shared store handle (metrics, checkpointing, diagnostics).
    pub fn store(&self) -> Arc<DurableMitigationStore> {
        Arc::clone(&self.shared.store)
    }

    /// Device names, in index order.
    pub fn device_names(&self) -> Vec<String> {
        self.shared.devices.iter().map(|d| d.name.clone()).collect()
    }

    /// The deterministic per-device queue-wait samples admission uses.
    pub fn queue_wait_min(&self) -> &[f64] {
        &self.shared.queue_wait_min
    }

    /// Sessions completed since open.
    pub fn sessions_completed(&self) -> usize {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// The uniform per-session machine-minute estimate used for
    /// admission backlogs, DRR costs, and quota reservations.
    pub fn session_estimate_min(&self) -> f64 {
        self.shared.estimate_min
    }

    fn stop(self) -> Arc<ServiceShared> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The reactor drains every queue (completions included) before
        // exiting; dropping its worker senders then ends the pool.
        let _ = self.inbox.send(Event::Shutdown);
        let _ = self.reactor.join();
        for w in self.workers {
            let _ = w.join();
        }
        self.shared
    }

    /// Graceful shutdown: drains every queue, joins the reactor and the
    /// worker pool, then checkpoints the store (snapshot written,
    /// journal truncated).
    ///
    /// # Errors
    ///
    /// Checkpoint I/O errors (the journal still holds the full history).
    pub fn shutdown(self) -> io::Result<()> {
        let shared = self.stop();
        shared.store.checkpoint()
    }

    /// Abrupt stop: drains queued work and joins the threads but writes
    /// **no checkpoint** — the append-only journal is the only durable
    /// record, exactly as after a process kill. The next
    /// [`FleetService::open`] on the same directory must rebuild the
    /// store by journal replay (the daemon tests and every scenario-grid
    /// cell exercise this).
    pub fn halt(self) {
        let _ = self.stop();
    }
}

/// A driver's attachment to a [`FleetService`], returned by
/// [`FleetService::attach_socket_driver`].
pub struct DriverHandle {
    id: u64,
    inbox: Inbox,
}

impl DriverHandle {
    /// Detaches the driver and waits until the reactor has dropped it,
    /// which closes its sockets and forgets its replication followers.
    /// Leaves alone a driver that replaced this one, and returns at once
    /// when the reactor is gone.
    pub fn detach(self) {
        let (done, dropped) = mpsc::channel();
        if self.inbox.send(Event::DetachDriver(self.id, done)).is_ok() {
            let _ = dropped.recv();
        }
    }
}

impl fmt::Debug for DriverHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DriverHandle")
            .field("id", &self.id)
            .finish()
    }
}

/// Executes one session on a pool worker. Scheduling decisions (device,
/// epoch, invalidation attribution) were made by the reactor and travel
/// in the [`WorkItem`].
pub(crate) fn run_session(shared: &ServiceShared, item: &WorkItem) -> SessionResult {
    let dev = item.device;
    let spec = &shared.devices[dev];
    let cfg = &shared.config;

    // The backend executes under the instantaneous drifted noise;
    // fingerprints classify the epoch's calibration snapshot — all a
    // real control stack would know.
    let num_qubits = shared.problem.ansatz().num_qubits();
    let layout: Vec<usize> = (0..num_qubits).collect();
    let noise_now = spec
        .drift
        .noise_at(&spec.model, item.request.t_hours)
        .subset(&layout);
    let calibration = spec
        .drift
        .noise_at(
            &spec.model,
            item.epoch as f64 * spec.drift.calibration_period_hours(),
        )
        .subset(&layout);
    // One trajectory stream per device: clients share the machine, so
    // identical jobs see identical noise realizations whichever client
    // queued first — the property that lets cached configs re-verify.
    let backend = QuantumBackend::new(
        noise_now,
        shared.seeds.substream(&format!("machine-{}", spec.name)),
    )
    .with_shots(cfg.shots);

    let tuner = WindowTuner::new(&shared.problem, &backend, cfg.tuner.clone());
    let mut handle = Arc::clone(&shared.store);
    let mut session = FleetCacheSession {
        store: &mut handle,
        device: &spec.name,
        epoch: item.epoch,
        calibration: &calibration,
    };
    let report = match item.request.kind {
        SessionKind::Dd => tuner.tune_dd_warm(&item.request.params, &mut session),
        SessionKind::Gs => tuner.tune_gs_warm(&item.request.params, &mut session),
        SessionKind::Combined => tuner.tune_combined_warm(&item.request.params, &mut session),
        SessionKind::Zne => tuner.tune_zne_warm(&item.request.params, &mut session),
        SessionKind::CombinedZne => {
            tuner.tune_combined_zne_warm(&item.request.params, &mut session)
        }
    }
    .map_err(|e| SessionError::Tuning(format!("on {}: {e:?}", spec.name)))?;

    let profile = WorkloadProfile {
        num_qubits,
        measurement_groups: shared.problem.groups().len(),
        windows: report.stats.hits + report.stats.misses,
        sweep_resolution: cfg.tuner.sweep_resolution,
        shots: cfg.shots,
        ..cfg.profile.clone()
    };
    // Split billing by what actually executed: the tuner reports how many
    // of its evaluations ran folded (ZNE) circuits; those pay the
    // folded-shot multiplier, the rest (per-window GS/DD sweeps, guard
    // base sides) are priced plain. The scale set is the session's tuned
    // protocol when one survived, else the standard protocol the sweep is
    // centered on.
    let zne_evals = report.tuned.zne_evaluations.min(report.tuned.evaluations);
    let plain_evals = report.tuned.evaluations - zne_evals;
    let mut minutes = cfg.cost.em_minutes_for_evaluations(
        &profile,
        &cfg.dispatch,
        plain_evals,
        report.stats.misses + 1,
    );
    if zne_evals > 0 {
        let scales = report
            .tuned
            .config
            .zne
            .as_ref()
            .map(|z| z.scale_factors())
            .unwrap_or_else(|| vaqem_mitigation::zne::ZneConfig::standard().scale_factors());
        minutes +=
            cfg.cost
                .em_minutes_for_zne_evaluations(&profile, &cfg.dispatch, zne_evals, 1, &scales);
    }

    Ok(SessionOutcome {
        client: item.request.client.clone(),
        device: dev,
        device_name: spec.name.clone(),
        epoch: item.epoch,
        hits: report.stats.hits,
        misses: report.stats.misses,
        guard_rejected: report.stats.guard_rejected,
        evaluations: report.tuned.evaluations,
        minutes,
        invalidated: item.invalidated,
        // Stamped by the worker loop at completion time (the counter is
        // shared across the pool).
        sequence: 0,
        config: report.tuned.config,
    })
}
