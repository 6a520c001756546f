//! The event-driven reactor: one scheduler loop over one event channel,
//! one worker thread per device.
//!
//! PR 3's daemon parked one thread per device on a condvar; scheduling
//! policy (FIFO) was implicit in the queue type and unobservable. The
//! reactor inverts that: **all** scheduling state — per-device fair
//! queues, the quota ledger, the drift feed, which devices are busy — is
//! owned by a single thread that reacts to what other threads send it:
//!
//! * `Arrive` — a client submitted a session: resolve the device
//!   (queue-aware admission), observe the drift clock (recording a
//!   pending recalibration on a crossing), check quotas (typed
//!   rejection straight to the client's channel), enqueue on the
//!   device's fair queue, and dispatch if the device is free.
//! * `Complete` — a device's worker finished a session: settle the
//!   quota reservation, credit the client's store traffic, free the
//!   device, dispatch more work, then let the durable store
//!   auto-compact under the configured `CompactionPolicy` (see
//!   `vaqem_runtime::persist`).
//! * `AttachDriver`, `DetachDriver`, `Metrics` and `Shutdown` — the
//!   transport driver's lifecycle, a metrics snapshot, and the drain.
//!
//! A recalibration crossing is applied in the device's dispatch order —
//! just before the next session runs, when no old-epoch session is still
//! in flight — by journal-invalidating the device's stale epochs, with
//! the dropped count attributed to that session's outcome.
//!
//! Handlers never block: tuning runs on the device workers, and every
//! mutation of scheduling state happens on the reactor thread — no
//! admission lock, no per-device condvars, no lock-ordering rules
//! beyond the store's own. The reactor waits on its event channel, or,
//! while a transport driver is attached, in the driver's readiness wait
//! ([`SocketDriver::poll`]), which every event sender rouses.
//!
//! Dispatch policy: devices are scanned in index order; a free device
//! with queued work hands the next session its fair queue picks
//! (weighted round-robin across clients — see `crate::fairness`) to its
//! own worker, so at most one session per device is in flight.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SendError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use vaqem_device::drift::EpochFeed;
use vaqem_runtime::cache::CacheMetrics;
use vaqem_runtime::json::JsonValue;
use vaqem_runtime::store::ShardMetrics;
use vaqem_runtime::ShipCursor;

use crate::daemon::{run_session, ServiceShared, SessionError, SessionRequest, SessionResult};
use crate::fairness::{FairQueue, LaneSnapshot};
use crate::quota::{quota_epoch, QuotaBook, QuotaUsage};
use crate::scheduler;
use crate::socket::{DriverAction, RpcMetricsReport, SocketDriver};

/// How long a caught-up follower's ack is held before the reactor
/// answers it with an empty batch. It keeps a quiet leader visibly
/// alive well inside a follower's read timeout, and bounds how long a
/// follower takes to notice its stop flag.
const HEARTBEAT: Duration = Duration::from_millis(100);

/// The longest a driver poll waits when no heartbeat is due: a safety
/// net, so a lost wakeup costs latency, never liveness.
const SAFETY_WAIT: Duration = Duration::from_millis(500);

/// Where the attached driver's waker is installed (empty while none is
/// attached).
pub(crate) type WakerSlot = Arc<Mutex<Option<Arc<dyn Fn() + Send + Sync>>>>;

/// The reactor's event channel as the other threads see it: every
/// cross-thread send rouses the reactor in case it waits in a driver's
/// poll.
#[derive(Clone)]
pub(crate) struct Inbox {
    pub events: Sender<Event>,
    pub waker: WakerSlot,
}

impl Inbox {
    /// Sends `event`, then calls the installed waker. Waking *after* the
    /// send means an event sent before a driver's waker was installed
    /// is already queued when the reactor first polls.
    pub fn send(&self, event: Event) -> Result<(), SendError<Event>> {
        self.events.send(event)?;
        // Panic-free, since `RpcServer`'s drop sends through here: the
        // slot is only ever assigned whole, so a poisoned one is valid.
        let slot = self.waker.lock();
        let waker = slot.unwrap_or_else(PoisonError::into_inner).clone();
        if let Some(wake) = waker {
            wake();
        }
        Ok(())
    }
}

/// Where a session's outcome (or typed rejection) is delivered.
pub(crate) enum Reply {
    /// An in-process client awaiting on its own channel.
    Channel(Sender<SessionResult>),
    /// A remote client behind the attached [`SocketDriver`]: the result
    /// is handed to the driver with its `(conn, token)` correlation.
    Rpc { conn: u64, token: u64 },
}

/// A message from another thread to the reactor.
pub(crate) enum Event {
    /// A client submitted a session.
    Arrive {
        /// The request as submitted.
        request: SessionRequest,
        /// Where the client awaits its outcome (or typed rejection).
        reply: Reply,
    },
    /// A worker finished a session (boxed: the report carries the
    /// full outcome and store delta, far larger than the other arms).
    Complete(Box<CompletionReport>),
    /// A transport front-end attached its driver under an id, replacing
    /// (and dropping) any earlier one.
    AttachDriver(u64, Box<dyn SocketDriver>),
    /// Drop the driver if it is still the one attached under this id,
    /// then answer the channel.
    DetachDriver(u64, Sender<()>),
    /// A metrics snapshot was requested.
    Metrics(Sender<FleetMetricsReport>),
    /// Drain the queues, then stop.
    Shutdown,
}

/// What a worker reports back to the reactor when a session finishes.
/// The client-facing outcome travels inside the report: the reactor
/// settles accounting first, then answers the reply — so by the time
/// any client observes its outcome, a follow-up metrics request sees
/// the session settled.
pub(crate) struct CompletionReport {
    pub device: usize,
    pub client: String,
    /// The session's store-traffic delta, measured on the device's
    /// shard (exact while devices keep distinct shards — the default
    /// layout the replay asserts).
    pub store_delta: CacheMetrics,
    /// Where the outcome goes.
    pub reply: Reply,
    /// The outcome itself.
    pub result: SessionResult,
}

/// A session dispatched to its device's worker.
pub(crate) struct WorkItem {
    pub device: usize,
    pub epoch: u64,
    /// Stale entries a recalibration crossing dropped, attributed to
    /// this session's outcome.
    pub invalidated: usize,
    pub request: SessionRequest,
    pub reply: Reply,
}

/// Counts of every event kind the reactor has handled — the "what has
/// the scheduler been doing" half of [`FleetMetricsReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounters {
    /// Sessions submitted.
    pub arrivals: u64,
    /// Sessions finished (successfully or not).
    pub completions: u64,
    /// Recalibration crossings observed.
    pub recalibrations: u64,
    /// Auto-compaction checks, one after every completion.
    pub checkpoint_ticks: u64,
    /// Checks that actually compacted the journal into a snapshot.
    pub compactions: u64,
    /// Compaction attempts that failed with an I/O error (the journal
    /// still holds the history; the daemon keeps running).
    pub compaction_errors: u64,
    /// Submissions rejected by quota with a typed error.
    pub quota_rejections: u64,
    /// Socket accepts, reads and hang-ups the attached driver's polls
    /// handled (0 without an attached front-end).
    pub socket_events: u64,
    /// Journal shipments produced for replication followers (0 without
    /// a subscribed follower).
    pub journal_ships: u64,
    /// Session replies held back until a follower's acked cursor
    /// covered their store mutations — the acknowledged-durable gate.
    pub replies_gated: u64,
}

/// One device's scheduling state as seen by the reactor.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceMetricsReport {
    /// Device index.
    pub device: usize,
    /// Device name.
    pub name: String,
    /// Whether a session is running on the device right now.
    pub busy: bool,
    /// Sessions queued (not yet dispatched).
    pub queue_depth: usize,
    /// Estimated minutes queued (excluding the in-flight session).
    pub backlog_min: f64,
    /// The deterministic cloud queue-wait sample admission uses.
    pub queue_wait_min: f64,
    /// Sessions completed on this device since open.
    pub completed: u64,
    /// Per-client fair-queue lanes: weight and queue depth.
    pub lanes: Vec<LaneSnapshot>,
}

/// A structured dump of the whole service: reactor event counters,
/// per-device queues and fairness lanes, per-client quota usage and
/// attributed store traffic, per-shard store metrics, durability state.
///
/// Render it with `Display` for a human, or walk the fields from a
/// test/replay. Produced by `FleetService::metrics_report`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetricsReport {
    /// Reactor event counts.
    pub events: EventCounters,
    /// Per-device queue depth/wait, busy flag, fairness lanes.
    pub devices: Vec<DeviceMetricsReport>,
    /// Per-client quota accounting (in-flight, reserved, spent, caps).
    pub quotas: Vec<QuotaUsage>,
    /// Per-client store traffic (hits/misses/insertions... summed over
    /// each session's shard delta), sorted by client.
    pub client_store_traffic: Vec<(String, CacheMetrics)>,
    /// Per-shard store metrics (entries, hit/miss, lock contention).
    pub shards: Vec<ShardMetrics>,
    /// Live entries in the store.
    pub store_entries: usize,
    /// Journal records since the last checkpoint.
    pub journal_records: u64,
    /// Journal appends that failed with I/O errors.
    pub journal_write_errors: u64,
    /// Device workers: one per device.
    pub workers_total: usize,
    /// Device workers idle at snapshot time (devices not running a
    /// session).
    pub workers_idle: usize,
    /// RPC front-end counters (all zero when no driver is attached).
    pub rpc: RpcMetricsReport,
}

fn cache_metrics_json(m: &CacheMetrics) -> JsonValue {
    JsonValue::object([
        ("hits", JsonValue::from(m.hits)),
        ("misses", JsonValue::from(m.misses)),
        ("insertions", JsonValue::from(m.insertions)),
        ("evictions", JsonValue::from(m.evictions)),
        ("invalidations", JsonValue::from(m.invalidations)),
    ])
}

/// Caps that mean "unlimited" (`usize::MAX` in-flight, `f64::INFINITY`
/// minutes) encode as JSON `null` — the conventional lossy mapping for
/// values JSON cannot carry, and unambiguous because real caps are
/// always finite.
fn in_flight_cap_json(cap: usize) -> JsonValue {
    if cap == usize::MAX {
        JsonValue::Null
    } else {
        JsonValue::from(cap)
    }
}

impl FleetMetricsReport {
    /// Renders the report as a JSON document — the machine-readable form
    /// external consumers (and the scenario-matrix grid report) build
    /// on. Field names match the struct fields; the structure is pinned
    /// by the golden-schema test in `tests/metrics_schema.rs`, so it
    /// cannot drift silently.
    pub fn to_json(&self) -> JsonValue {
        let e = &self.events;
        JsonValue::object([
            (
                "events",
                JsonValue::object([
                    ("arrivals", JsonValue::from(e.arrivals)),
                    ("completions", JsonValue::from(e.completions)),
                    ("recalibrations", JsonValue::from(e.recalibrations)),
                    ("checkpoint_ticks", JsonValue::from(e.checkpoint_ticks)),
                    ("compactions", JsonValue::from(e.compactions)),
                    ("compaction_errors", JsonValue::from(e.compaction_errors)),
                    ("quota_rejections", JsonValue::from(e.quota_rejections)),
                    ("socket_events", JsonValue::from(e.socket_events)),
                    ("journal_ships", JsonValue::from(e.journal_ships)),
                    ("replies_gated", JsonValue::from(e.replies_gated)),
                ]),
            ),
            (
                "devices",
                JsonValue::array(self.devices.iter().map(|d| {
                    JsonValue::object([
                        ("device", JsonValue::from(d.device)),
                        ("name", JsonValue::from(d.name.as_str())),
                        ("busy", JsonValue::from(d.busy)),
                        ("queue_depth", JsonValue::from(d.queue_depth)),
                        ("backlog_min", JsonValue::from(d.backlog_min)),
                        ("queue_wait_min", JsonValue::from(d.queue_wait_min)),
                        ("completed", JsonValue::from(d.completed)),
                        (
                            "lanes",
                            JsonValue::array(d.lanes.iter().map(|l| {
                                JsonValue::object([
                                    ("client", JsonValue::from(l.client.as_str())),
                                    ("weight", JsonValue::from(l.weight)),
                                    ("queued", JsonValue::from(l.queued)),
                                ])
                            })),
                        ),
                    ])
                })),
            ),
            (
                "quotas",
                JsonValue::array(self.quotas.iter().map(|q| {
                    JsonValue::object([
                        ("client", JsonValue::from(q.client.as_str())),
                        ("in_flight", JsonValue::from(q.in_flight)),
                        ("max_in_flight", in_flight_cap_json(q.max_in_flight)),
                        ("reserved_min", JsonValue::from(q.reserved_min)),
                        ("spent_min", JsonValue::from(q.spent_min)),
                        // Infinite budgets render as null (see
                        // `in_flight_cap_json`): JsonValue maps
                        // non-finite floats to null by construction.
                        ("budget_min", JsonValue::from(q.budget_min)),
                        ("epoch", JsonValue::from(q.epoch)),
                        ("completed", JsonValue::from(q.completed)),
                        ("rejected", JsonValue::from(q.rejected)),
                    ])
                })),
            ),
            (
                "client_store_traffic",
                JsonValue::array(self.client_store_traffic.iter().map(|(client, m)| {
                    JsonValue::object([
                        ("client", JsonValue::from(client.as_str())),
                        ("metrics", cache_metrics_json(m)),
                    ])
                })),
            ),
            (
                "shards",
                JsonValue::array(self.shards.iter().map(|s| {
                    JsonValue::object([
                        ("shard", JsonValue::from(s.shard)),
                        ("entries", JsonValue::from(s.entries)),
                        ("cache", cache_metrics_json(&s.cache)),
                        ("lock_acquisitions", JsonValue::from(s.lock_acquisitions)),
                        ("lock_contended", JsonValue::from(s.lock_contended)),
                    ])
                })),
            ),
            ("store_entries", JsonValue::from(self.store_entries)),
            ("journal_records", JsonValue::from(self.journal_records)),
            (
                "journal_write_errors",
                JsonValue::from(self.journal_write_errors),
            ),
            ("workers_total", JsonValue::from(self.workers_total)),
            ("workers_idle", JsonValue::from(self.workers_idle)),
            ("rpc", self.rpc.to_json()),
        ])
    }
}

impl fmt::Display for FleetMetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = &self.events;
        writeln!(f, "fleet metrics:")?;
        writeln!(
            f,
            "  events: {} arrivals, {} completions, {} recalibrations, {} ticks \
             ({} compactions, {} failed), {} quota rejections, {} socket events, \
             {} journal ships, {} replies gated",
            e.arrivals,
            e.completions,
            e.recalibrations,
            e.checkpoint_ticks,
            e.compactions,
            e.compaction_errors,
            e.quota_rejections,
            e.socket_events,
            e.journal_ships,
            e.replies_gated
        )?;
        let r = &self.rpc;
        writeln!(
            f,
            "  rpc: {} conns ({} open, {} closed) | {} frames in / {} out \
             ({} B in / {} B out) | {} decode errors, {} overload rejections, \
             {} overload closes, peak out {} B",
            r.connections_accepted,
            r.connections_open,
            r.connections_closed,
            r.frames_in,
            r.frames_out,
            r.bytes_in,
            r.bytes_out,
            r.decode_errors,
            r.overload_rejections,
            r.overload_closes,
            r.peak_pending_out_bytes
        )?;
        writeln!(
            f,
            "  workers: {}/{} idle; store: {} entries, {} journal records, {} journal errors",
            self.workers_idle,
            self.workers_total,
            self.store_entries,
            self.journal_records,
            self.journal_write_errors
        )?;
        for d in &self.devices {
            writeln!(
                f,
                "  device {} ({}): {} | depth {} | backlog {:.2} min | queue wait {:.1} min | {} done",
                d.device,
                d.name,
                if d.busy { "busy" } else { "idle" },
                d.queue_depth,
                d.backlog_min,
                d.queue_wait_min,
                d.completed
            )?;
            for l in &d.lanes {
                writeln!(
                    f,
                    "    lane {:<10} weight {}, {} queued",
                    l.client, l.weight, l.queued
                )?;
            }
        }
        for q in &self.quotas {
            let cap = if q.max_in_flight == usize::MAX {
                "inf".to_string()
            } else {
                q.max_in_flight.to_string()
            };
            let budget = if q.budget_min.is_finite() {
                format!("{:.2}", q.budget_min)
            } else {
                "inf".to_string()
            };
            writeln!(
                f,
                "  client {:<10} in-flight {}/{} | epoch {} spend {:.3}+{:.3} of {} min | {} done, {} rejected",
                q.client,
                q.in_flight,
                cap,
                q.epoch,
                q.spent_min,
                q.reserved_min,
                budget,
                q.completed,
                q.rejected
            )?;
        }
        for (client, m) in &self.client_store_traffic {
            writeln!(
                f,
                "  store traffic {:<10} {} hits / {} misses / {} inserts / {} evict / {} invalidated",
                client, m.hits, m.misses, m.insertions, m.evictions, m.invalidations
            )?;
        }
        for s in &self.shards {
            writeln!(
                f,
                "  shard {:>2}: {} entries | {} hits / {} misses | {} lock acq, {} contended",
                s.shard,
                s.entries,
                s.cache.hits,
                s.cache.misses,
                s.lock_acquisitions,
                s.lock_contended
            )?;
        }
        Ok(())
    }
}

struct DeviceLane {
    /// The device's fair session queue across clients.
    queue: FairQueue<Pending>,
    /// The device's own worker.
    worker: Sender<WorkItem>,
    busy: bool,
    completed: u64,
    /// A crossing observed at some arrival, applied (journaled
    /// invalidation) just before the device's next dispatch — the
    /// serialized point where no old-epoch session is in flight.
    pending_recalibration: Option<u64>,
}

struct Pending {
    request: SessionRequest,
    reply: Reply,
}

struct Reactor {
    shared: Arc<ServiceShared>,
    lanes: Vec<DeviceLane>,
    feed: EpochFeed,
    quota: QuotaBook,
    /// Store traffic per client: the sum of its sessions' shard deltas.
    store_traffic: BTreeMap<String, CacheMetrics>,
    counters: EventCounters,
    draining: bool,
    /// The attached transport driver and its attachment id, if any.
    driver: Option<(u64, Box<dyn SocketDriver>)>,
    /// Where the attached driver's waker is installed for the senders.
    waker: WakerSlot,
    /// Replication followers by connection id → the durable cursor each
    /// last acked (monotone max — reordered acks cannot regress it).
    followers: HashMap<u64, ShipCursor>,
    /// Followers whose ack found them caught up, by connection id → when
    /// the ack was parked. The commit boundary answers each once the
    /// journal moves past its cursor, or with an empty batch after one
    /// [`HEARTBEAT`].
    parked: HashMap<u64, Instant>,
    /// Replies held until the follower watermark (min acked cursor)
    /// covers the store cursor sampled at their completion. Cursors are
    /// monotone in completion order, so only the front can release.
    gated: VecDeque<(ShipCursor, Reply, SessionResult)>,
}

impl Reactor {
    fn idle(&self) -> bool {
        self.lanes.iter().all(|l| !l.busy && l.queue.is_empty())
    }

    /// Estimated minutes of admitted-but-unfinished work on a device —
    /// the projection queue-aware admission adds to the sampled wait.
    fn projected_backlog_min(&self, device: usize) -> f64 {
        let lane = &self.lanes[device];
        (lane.queue.len() + usize::from(lane.busy)) as f64 * self.shared.estimate_min
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Arrive { request, reply } => self.handle_arrive(request, reply),
            Event::Complete(report) => self.handle_complete(*report),
            Event::Metrics(tx) => {
                let _ = tx.send(self.report());
            }
            Event::AttachDriver(id, driver) => {
                self.drop_driver();
                *self.waker.lock().expect("waker slot healthy") = Some(driver.waker());
                self.driver = Some((id, driver));
            }
            Event::DetachDriver(id, done) => {
                if matches!(self.driver, Some((attached, _)) if attached == id) {
                    self.drop_driver();
                }
                let _ = done.send(());
            }
            Event::Shutdown => {
                self.draining = true;
                // Flush any buffered journal tail first — the gated
                // replies below must be locally durable before anyone
                // hears them — then release: shutdown checkpoints the
                // store before the process exits, and holding replies
                // for a follower watermark would deadlock the drain.
                let _ = self.shared.store.flush_journal();
                let gated: Vec<_> = self.gated.drain(..).collect();
                for (_, reply, result) in gated {
                    self.answer(reply, result);
                }
            }
        }
    }

    /// One pass of the attached driver: its socket I/O, waiting at most
    /// `timeout`, then the actions the pass decoded.
    fn poll_driver(&mut self, timeout: Duration) {
        let Some((_, driver)) = self.driver.as_mut() else {
            return;
        };
        let mut actions = Vec::new();
        self.counters.socket_events += driver.poll(timeout, &mut actions);
        for action in actions {
            match action {
                DriverAction::Submit {
                    conn,
                    token,
                    request,
                } => self.handle_arrive(request, Reply::Rpc { conn, token }),
                DriverAction::Metrics { conn, token } => {
                    let report = self.report();
                    if let Some((_, driver)) = self.driver.as_mut() {
                        driver.on_metrics(conn, token, &report);
                    }
                }
                DriverAction::ReplicaAck { conn, cursor } => {
                    self.handle_replica_ack(conn, cursor);
                }
                DriverAction::ReplicaGone { conn } => {
                    self.followers.remove(&conn);
                    self.parked.remove(&conn);
                    // Last follower gone: degrade to single-process
                    // durability — everything journaled locally is as
                    // durable as it gets.
                    self.release_covered();
                }
            }
        }
    }

    /// Drops the attached driver, which closes its listener and every
    /// connection. Its followers went with their connections and can
    /// never ack again, so they are forgotten and the replies they
    /// gated release, exactly as on `ReplicaGone`.
    fn drop_driver(&mut self) {
        self.driver = None;
        *self.waker.lock().expect("waker slot healthy") = None;
        self.followers.clear();
        self.parked.clear();
        self.release_covered();
    }

    /// Records a follower's durable cursor (monotone max — duplicate and
    /// reordered acks are no-ops), releases every gated reply the new
    /// follower watermark covers, and ships the follower its next batch
    /// — or, when it is already caught up, parks the ack for the commit
    /// boundary (a long poll). A second ack on a parked connection is
    /// answered at once, so every ack still gets exactly one batch.
    fn handle_replica_ack(&mut self, conn: u64, cursor: ShipCursor) {
        let entry = self.followers.entry(conn).or_default();
        if cursor > *entry {
            *entry = cursor;
        }
        let acked = *entry;
        self.release_covered();
        match self.parked.entry(conn) {
            Entry::Vacant(slot) if acked == self.shared.store.ship_cursor() => {
                slot.insert(Instant::now());
            }
            _ => self.ship(conn, acked),
        }
    }

    /// Sends a follower everything past `acked` (an empty batch at
    /// `acked` when nothing is new).
    fn ship(&mut self, conn: u64, acked: ShipCursor) {
        if let Ok(batch) = self.shared.store.ship_since(acked) {
            self.counters.journal_ships += 1;
            if let Some((_, driver)) = self.driver.as_mut() {
                driver.on_ship(conn, &batch);
            }
        }
    }

    /// Answers the parked followers that are due: those the journal has
    /// moved past get their next batch, and those parked for a full
    /// [`HEARTBEAT`] get an empty one.
    fn answer_parked(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        let head = self.shared.store.ship_cursor();
        let now = Instant::now();
        let due: Vec<u64> = self
            .parked
            .iter()
            .filter(|&(conn, &since)| self.followers[conn] != head || now - since >= HEARTBEAT)
            .map(|(&conn, _)| conn)
            .collect();
        for conn in due {
            self.parked.remove(&conn);
            self.ship(conn, self.followers[&conn]);
        }
    }

    /// Releases gated replies from the front while both halves of the
    /// durability contract cover them: the *local* flushed journal
    /// cursor (buffered group-commit bytes are not durable until the
    /// commit boundary writes them), and — when a replication follower
    /// is subscribed — the follower watermark (min acked cursor).
    fn release_covered(&mut self) {
        let local = self.shared.store.ship_cursor();
        let watermark = self.followers.values().copied().min();
        while let Some((point, _, _)) = self.gated.front() {
            let replicated = match watermark {
                Some(w) => w.covers(*point),
                None => true,
            };
            if !(local.covers(*point) && replicated) {
                break;
            }
            let (_, reply, result) = self.gated.pop_front().expect("front exists");
            self.answer(reply, result);
        }
    }

    /// The group-commit boundary, run once per event-loop drain: flush
    /// every journal record buffered while the burst of events was
    /// handled, release the replies the flush (and follower watermark)
    /// now covers, and answer the parked followers that are due. One
    /// `write + flush` pays for the whole burst instead of one per
    /// mutation, and a follower hears of the batch the moment it lands.
    fn commit_batch(&mut self) {
        if self.shared.store.flush_journal().is_ok() {
            self.release_covered();
        } else {
            // The batch was dropped and counted in journal_write_errors
            // — the same contract as a failed per-record append, which
            // also answered its client. Holding the replies would
            // deadlock every submitter behind a disk fault; the error
            // counter carries the evidence instead.
            let stuck: Vec<_> = self.gated.drain(..).collect();
            for (_, reply, result) in stuck {
                self.answer(reply, result);
            }
        }
        self.answer_parked();
    }

    /// Delivers a session's conclusion wherever the submitter awaits it:
    /// an in-process channel, or the socket driver's `(conn, token)`.
    fn answer(&mut self, reply: Reply, result: SessionResult) {
        match reply {
            Reply::Channel(tx) => {
                // A client that dropped its receiver just doesn't hear
                // back.
                let _ = tx.send(result);
            }
            Reply::Rpc { conn, token } => {
                if let Some((_, driver)) = self.driver.as_mut() {
                    driver.on_result(conn, token, &result);
                }
            }
        }
    }

    fn handle_arrive(&mut self, request: SessionRequest, reply: Reply) {
        self.counters.arrivals += 1;
        // A pinned device must exist before anything indexes by it. The
        // in-process `submit` asserts this; a wire frame can carry any
        // index, so the remote client gets a typed protocol error.
        if let Some(d) = request.device.filter(|&d| d >= self.lanes.len()) {
            let msg = format!(
                "device index {d} out of range ({} devices)",
                self.lanes.len()
            );
            self.answer(reply, Err(SessionError::Protocol(msg)));
            return;
        }
        // Queue-aware admission: the pinned device, or the one
        // minimizing sampled queue wait + projected backlog (ties to the
        // lowest index — see `scheduler::admit`).
        let device = match request.device {
            Some(d) => d,
            None => {
                let backlogs: Vec<f64> = (0..self.lanes.len())
                    .map(|d| self.projected_backlog_min(d))
                    .collect();
                scheduler::admit(&self.shared.queue_wait_min, &backlogs)
            }
        };
        // Drift clock: a crossing is recorded here but *applied* in the
        // device's dispatch order (see `pump`). Invalidating at arrival
        // would race the device's serialized sessions twice over: an
        // old-epoch session still in flight would publish entries
        // *after* the drop (stale squatters the crossing was meant to
        // remove), and a queued old-epoch session would re-publish at
        // the invalidated epoch. Deferring to the next dispatch
        // reproduces the pre-reactor semantics, where each session
        // observed the clock in-line.
        if let Some((_, epoch)) = self.feed.observe(device, request.t_hours) {
            self.lanes[device].pending_recalibration = Some(epoch);
        }
        // Quota gate: a breach answers the client immediately with the
        // typed error; nothing is enqueued.
        let tenancy = &self.shared.config.tenancy;
        let q_epoch = quota_epoch(request.t_hours, tenancy.quota_epoch_hours);
        if let Err(err) = self
            .quota
            .admit(&request.client, q_epoch, self.shared.estimate_min)
        {
            self.counters.quota_rejections += 1;
            self.answer(reply, Err(SessionError::Quota(err)));
            return;
        }
        let client = request.client.clone();
        let weight = tenancy.fairness.weight_of(&client);
        self.lanes[device]
            .queue
            .push(&client, weight, Pending { request, reply });
        self.pump();
    }

    fn handle_complete(&mut self, report: CompletionReport) {
        self.counters.completions += 1;
        let lane = &mut self.lanes[report.device];
        lane.busy = false;
        lane.completed += 1;
        // Every session reserved the same estimate; a failed one spent 0.
        let spent = report.result.as_ref().map_or(0.0, |o| o.minutes);
        self.quota
            .settle(&report.client, self.shared.estimate_min, spent);
        let traffic = self.store_traffic.entry(report.client).or_default();
        traffic.merge(&report.store_delta);
        // Accounting settled above; only now does the submitter hear —
        // and never before this session's store mutations are durable.
        // The gate point is the store's *pending* cursor (buffered
        // group-commit bytes included); the reply releases once the
        // local journal flush — and, with a replication follower
        // subscribed, the follower's acked watermark — covers it. In
        // per-record journal mode the cursors already match and the
        // `release_covered` below answers within this same event; in
        // group-commit mode the answer waits for the commit boundary at
        // the end of the event-loop drain. Either way an *acknowledged*
        // result survives a leader kill.
        let point = self.shared.store.pending_cursor();
        self.counters.replies_gated += 1;
        self.gated.push_back((point, report.reply, report.result));
        self.release_covered();
        self.pump();
        // Past the journal bound, compact it into a snapshot.
        self.counters.checkpoint_ticks += 1;
        match self
            .shared
            .store
            .maybe_compact(self.shared.config.tenancy.compaction)
        {
            Ok(true) => self.counters.compactions += 1,
            Ok(false) => {}
            Err(_) => self.counters.compaction_errors += 1,
        }
    }

    /// Applies a recalibration crossing on `device`: journal-invalidates
    /// its entries from epochs before `epoch` and returns how many were
    /// dropped.
    fn recalibrate(&mut self, device: usize, epoch: u64) -> usize {
        self.counters.recalibrations += 1;
        let name = &self.shared.devices[device].name;
        self.shared.store.invalidate_before(name, epoch)
    }

    /// Dispatches runnable sessions: devices in index order, each free
    /// device handing its next session to its own worker. A pending
    /// recalibration is applied just before the device's next dispatch
    /// — the serialized point where no old-epoch session can still be
    /// in flight or queued ahead on that device.
    fn pump(&mut self) {
        for device in 0..self.lanes.len() {
            if self.lanes[device].busy || self.lanes[device].queue.is_empty() {
                continue;
            }
            // The invalidation count is attributed to this session — the
            // first to run under the new epoch.
            let invalidated = match self.lanes[device].pending_recalibration.take() {
                Some(epoch) => self.recalibrate(device, epoch),
                None => 0,
            };
            // Epoch at dispatch: the device's serialized run order, same
            // semantics as the PR 3 worker observing the feed in-line —
            // a queued session that outlived a recalibration tunes (and
            // publishes) under the new epoch, never the invalidated one.
            let epoch = self
                .feed
                .epoch(device)
                .expect("observed at this session's arrival");
            let lane = &mut self.lanes[device];
            let pending = lane.queue.pop().expect("non-empty");
            lane.busy = true;
            let item = WorkItem {
                device,
                epoch,
                invalidated,
                request: pending.request,
                reply: pending.reply,
            };
            lane.worker.send(item).expect("device worker alive");
        }
    }

    fn report(&self) -> FleetMetricsReport {
        let store = &self.shared.store;
        let devices = self
            .lanes
            .iter()
            .enumerate()
            .map(|(d, lane)| DeviceMetricsReport {
                device: d,
                name: self.shared.devices[d].name.clone(),
                busy: lane.busy,
                queue_depth: lane.queue.len(),
                backlog_min: lane.queue.len() as f64 * self.shared.estimate_min,
                queue_wait_min: self.shared.queue_wait_min[d],
                completed: lane.completed,
                lanes: lane.queue.lanes(),
            })
            .collect();
        FleetMetricsReport {
            events: self.counters,
            devices,
            quotas: self.quota.usage(),
            client_store_traffic: self.store_traffic.clone().into_iter().collect(),
            shards: store.shard_metrics(),
            store_entries: store.len(),
            journal_records: store.journal_records(),
            journal_write_errors: store.journal_write_errors(),
            workers_total: self.lanes.len(),
            workers_idle: self.lanes.iter().filter(|l| !l.busy).count(),
            rpc: self
                .driver
                .as_ref()
                .map(|(_, d)| d.metrics())
                .unwrap_or_default(),
        }
    }
}

/// The reactor thread body: handles events until shutdown *and*
/// quiescence, then drops the device workers' senders (which ends the
/// worker loops) and the driver (which closes its sockets). `workers`
/// holds device `d`'s worker at index `d`.
pub(crate) fn reactor_loop(
    shared: Arc<ServiceShared>,
    events: Receiver<Event>,
    waker: WakerSlot,
    workers: Vec<Sender<WorkItem>>,
) {
    let tenancy = &shared.config.tenancy;
    let lanes = workers
        .into_iter()
        .map(|worker| DeviceLane {
            queue: FairQueue::default(),
            worker,
            busy: false,
            completed: 0,
            pending_recalibration: None,
        })
        .collect();
    let feed_pairs: Vec<(&str, &vaqem_device::drift::DriftModel)> = shared
        .devices
        .iter()
        .map(|d| (d.name.as_str(), &d.drift))
        .collect();
    let mut reactor = Reactor {
        lanes,
        feed: EpochFeed::new(&feed_pairs),
        quota: QuotaBook::new(tenancy.default_quota, &tenancy.quotas),
        store_traffic: BTreeMap::new(),
        counters: EventCounters::default(),
        draining: false,
        driver: None,
        waker,
        followers: HashMap::new(),
        parked: HashMap::new(),
        gated: VecDeque::new(),
        shared: Arc::clone(&shared),
    };
    loop {
        let event = match events.try_recv() {
            Ok(event) => event,
            // Every sender gone (service dropped mid-flight): nothing
            // more can arrive.
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                // The burst is drained: this is the group-commit
                // boundary. Flush the journal records the burst buffered
                // and release their gated replies before waiting for the
                // next event.
                reactor.commit_batch();
                if reactor.draining && reactor.idle() {
                    break;
                }
                if reactor.driver.is_some() {
                    // Wait in the driver's poll, which the senders rouse.
                    // Only a parked follower needs it to return without
                    // an event: when the longest-parked one's heartbeat
                    // falls due.
                    let timeout = match reactor.parked.values().min() {
                        Some(&since) => {
                            (since + HEARTBEAT).saturating_duration_since(Instant::now())
                        }
                        None => SAFETY_WAIT,
                    };
                    reactor.poll_driver(timeout);
                    continue;
                }
                match events.recv() {
                    Ok(event) => event,
                    Err(_) => break,
                }
            }
        };
        reactor.handle(event);
    }
    // Final commit: nothing buffered (or gated) outlives the reactor.
    // One more pass writes the replies it released; whatever that pass
    // reads is dropped with the driver.
    reactor.commit_batch();
    if let Some((_, driver)) = reactor.driver.as_mut() {
        driver.poll(Duration::ZERO, &mut Vec::new());
    }
    // Dropping the senders ends each worker's receive loop.
}

/// One device's worker: executes the sessions the reactor dispatches to
/// the device and reports each completion back to the reactor.
pub(crate) fn worker_loop(shared: Arc<ServiceShared>, items: Receiver<WorkItem>, inbox: Inbox) {
    while let Ok(item) = items.recv() {
        // Only the session's own shard is snapshotted: a full
        // shard_metrics() sweep would briefly hold every shard's lock
        // and register as contention against other devices' concurrent
        // tuning traffic.
        let shard = shared.store.shard_of(&shared.devices[item.device].name);
        let before = shared.store.shard_metrics_of(shard).cache;
        // A panicking session still completes, with a typed error:
        // otherwise its device stays busy for good and `shutdown()`
        // waits on it forever.
        let mut result = panic::catch_unwind(AssertUnwindSafe(|| run_session(&shared, &item)))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string panic payload");
                Err(SessionError::Tuning(format!(
                    "on {}: session panicked: {msg}",
                    shared.devices[item.device].name
                )))
            });
        let store_delta = shared
            .store
            .shard_metrics_of(shard)
            .cache
            .saturating_delta(&before);
        // The completion counter doubles as the global sequence stamp:
        // per-device sequences are monotone because a device's next
        // session dispatches only after this completion is processed.
        let sequence = shared.completed.fetch_add(1, Ordering::Relaxed) as u64;
        if let Ok(outcome) = result.as_mut() {
            outcome.sequence = sequence;
        }
        let report = Box::new(CompletionReport {
            device: item.device,
            client: item.request.client.clone(),
            store_delta,
            reply: item.reply,
            result,
        });
        // The outcome travels inside the completion report: the reactor
        // settles accounting and *then* answers the submitter, so by
        // the time any client observes its outcome, a follow-up metrics
        // request (a later event) sees the session settled. A send can
        // only fail during teardown; in-process clients still hear back
        // directly, RPC replies have no one left to encode them.
        if let Err(SendError(Event::Complete(report))) = inbox.send(Event::Complete(report)) {
            if let Reply::Channel(tx) = report.reply {
                let _ = tx.send(report.result);
            }
            return; // reactor gone: the service is tearing down
        }
    }
}
