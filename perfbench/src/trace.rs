//! Tracing from the benchmark's own code: spans around calls into each
//! layer's public API. `sim` is timed by an [`Executor`] wrapper around
//! `MachineExecutor`, handed to the tuner through
//! `QuantumBackend::from_executor`; `store` by a [`StoreBackend`]
//! wrapper. Both forward every call unchanged, and the traced replays
//! check their outcomes bit-for-bit against the untraced ones. Spans stay
//! in memory and are folded into per-layer samples after each session.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use vaqem::executor::{Executor, Job};
use vaqem::window_tuner::{StoredChoice, WindowFingerprint};
use vaqem_circuit::schedule::ScheduledCircuit;
use vaqem_runtime::cache::CacheMetrics;
use vaqem_runtime::store::StoreBackend;
use vaqem_sim::counts::Counts;
use vaqem_sim::machine::MachineExecutor;

use crate::stats::{self, mean_or_zero, median_or_zero, ratio_or_zero};

/// A per-layer metric: its name, its unit, and the end-to-end metric and
/// workload it should move.
pub struct LayerMetric {
    /// Metric name, `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// What it should move, on which workload.
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric { name, unit, moves }
}

/// Every per-layer metric a traced run reports, in report order. A layer
/// a workload does not run reads 0 there.
pub const LAYER_METRICS: &[LayerMetric] = &[
    m(
        "fleet_rpc.overhead_us",
        "us",
        "latency_p50_ms and the tail on serve_warm",
    ),
    m("fleet_rpc.codec_ns", "ns", "latency_p50_ms on serve_warm"),
    m(
        "fleet_rpc.pump_cpu_us_per_session",
        "us",
        "latency_p50_ms and the tail on serve_warm",
    ),
    m(
        "fleet_rpc.pump_wakeups_per_session",
        "count",
        "latency_p50_ms and the tail on serve_warm",
    ),
    m(
        "fleet_rpc.bytes_per_session",
        "bytes",
        "latency_p50_ms on serve_warm",
    ),
    m(
        "fleet_rpc.decode_errors",
        "count",
        "failed on serve_warm and serve_recal",
    ),
    m(
        "fleet_service.session_us_p50",
        "us",
        "the tail and slo_attainment on serve_warm and serve_recal",
    ),
    m(
        "fleet_service.wait_us_p50",
        "us",
        "the tail and slo_attainment on serve_warm and serve_recal",
    ),
    m(
        "fleet_service.queue_depth_max",
        "count",
        "the tail and slo_attainment on serve_warm and serve_recal",
    ),
    m(
        "fleet_service.replies_gated_per_session",
        "count",
        "the tail and slo_attainment on serve_recal",
    ),
    m(
        "fleet_service.quota_rejections",
        "count",
        "failed on serve_warm and serve_recal",
    ),
    m(
        "window_tuner.tune_us_p50",
        "us",
        "latency_p50_ms on serve_recal",
    ),
    m(
        "window_tuner.self_us_p50",
        "us",
        "latency_p50_ms on serve_recal (keep flat through the One tuner loop refactor)",
    ),
    m(
        "window_tuner.schedule_us_p50",
        "us",
        "latency_p50_ms on serve_recal",
    ),
    m(
        "window_tuner.evaluations_per_session",
        "count",
        "latency_p50_ms on serve_recal",
    ),
    m(
        "window_tuner.hit_rate",
        "share",
        "the latency_p50_ms gap between serve_warm and serve_recal",
    ),
    m(
        "window_tuner.guard_accept_rate",
        "share",
        "objective_gain on serve_recal",
    ),
    m(
        "sim.run_batch_us_per_session",
        "us",
        "latency_p50_ms and the tail on serve_warm and serve_recal",
    ),
    m(
        "sim.share",
        "share",
        "latency_p50_ms on serve_warm and serve_recal",
    ),
    m(
        "sim.batches_per_session",
        "count",
        "latency_p50_ms on serve_warm (per-batch dispatch cost)",
    ),
    m(
        "sim.jobs_per_session",
        "count",
        "latency_p50_ms on serve_recal",
    ),
    m(
        "sim.shots_per_session",
        "count",
        "latency_p50_ms on serve_recal",
    ),
    m(
        "sim.shots_per_s",
        "1/s",
        "latency_p50_ms on serve_recal (kernel work)",
    ),
    m("store.lookup_ns_p50", "ns", "latency_p50_ms on serve_warm"),
    m(
        "store.publish_ns_p50",
        "ns",
        "latency_p50_ms on serve_recal",
    ),
    m(
        "store.ops_per_session",
        "count",
        "latency_p50_ms on serve_warm and serve_recal",
    ),
    m("store.hit_rate", "share", "latency_p50_ms on serve_warm"),
    m(
        "store.lock_contended_share",
        "share",
        "the tail on serve_warm and serve_recal",
    ),
    m(
        "persist.flush_us_p50",
        "us",
        "latency_p50_ms and the tail on serve_recal",
    ),
    m(
        "persist.journal_records_per_session",
        "count",
        "latency_p50_ms on serve_recal",
    ),
    m(
        "persist.journal_bytes_per_session",
        "bytes",
        "latency_p50_ms on serve_recal",
    ),
    m(
        "persist.checkpoint_ms",
        "ms",
        "the tail on serve_recal (compaction ticks)",
    ),
    m(
        "persist.recovery_ms",
        "ms",
        "setup_s on serve_warm and serve_recal",
    ),
    m(
        "persist.write_errors",
        "count",
        "failed on serve_warm and serve_recal",
    ),
    m(
        "fleet_replica.ship_us_p50",
        "us",
        "latency_p50_ms and the tail on serve_recal",
    ),
    m(
        "fleet_replica.apply_us_p50",
        "us",
        "latency_p50_ms and the tail on serve_recal",
    ),
    m(
        "fleet_replica.ships_per_session",
        "count",
        "latency_p50_ms and the tail on serve_recal",
    ),
    m(
        "fleet_replica.records_applied_per_session",
        "count",
        "latency_p50_ms and the tail on serve_recal",
    ),
    m(
        "trace.overhead_share",
        "share",
        "none: what the spans themselves cost",
    ),
    m(
        "trace.unattributed_us",
        "us",
        "none: thread hand-offs and pump wake-ups",
    ),
];

/// What a span covered.
#[derive(Debug, Clone, Copy)]
enum SpanKind {
    /// One executor dispatch.
    Batch { jobs: usize, shots: u64 },
    /// A store lookup.
    Lookup,
    /// A store publish.
    Publish,
    /// Any other store call (discard, invalidation).
    OtherStore,
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    kind: SpanKind,
    start: Instant,
    end: Instant,
}

#[derive(Debug, Default)]
struct SpanLog(Mutex<Vec<Span>>);

impl SpanLog {
    fn record(&self, kind: SpanKind, start: Instant) {
        let end = Instant::now();
        self.0
            .lock()
            .expect("span log poisoned")
            .push(Span { kind, start, end });
    }

    fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.0.lock().expect("span log poisoned"))
    }
}

/// The `sim` layer under a span per dispatch: a `MachineExecutor` whose
/// every call is forwarded and timed.
#[derive(Debug)]
pub struct SpanExecutor {
    inner: MachineExecutor,
    log: SpanLog,
}

impl SpanExecutor {
    /// Wraps `inner`.
    pub fn new(inner: MachineExecutor) -> Self {
        SpanExecutor {
            inner,
            log: SpanLog::default(),
        }
    }

    /// The spans recorded since the last call.
    pub fn take(&self) -> Vec<Span> {
        self.log.take()
    }
}

impl Executor for SpanExecutor {
    fn substrate(&self) -> &'static str {
        Executor::substrate(&self.inner)
    }

    fn num_qubits(&self) -> usize {
        Executor::num_qubits(&self.inner)
    }

    fn run(&self, scheduled: &ScheduledCircuit, shots: u64, seed: u64) -> Counts {
        let start = Instant::now();
        let counts = Executor::run(&self.inner, scheduled, shots, seed);
        self.log.record(SpanKind::Batch { jobs: 1, shots }, start);
        counts
    }

    fn run_batch(&self, jobs: &[Job]) -> Vec<Counts> {
        let start = Instant::now();
        let counts = Executor::run_batch(&self.inner, jobs);
        let shots = jobs.iter().map(|j| j.shots).sum();
        self.log.record(
            SpanKind::Batch {
                jobs: jobs.len(),
                shots,
            },
            start,
        );
        counts
    }
}

/// The `store` layer under a span per call: any config-store backend,
/// forwarded and timed.
#[derive(Debug)]
pub struct SpanStore<S> {
    inner: S,
    log: SpanLog,
}

impl<S> SpanStore<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        SpanStore {
            inner,
            log: SpanLog::default(),
        }
    }

    /// The spans recorded since the last call.
    pub fn take(&self) -> Vec<Span> {
        self.log.take()
    }
}

impl<S: StoreBackend<WindowFingerprint, StoredChoice>> StoreBackend<WindowFingerprint, StoredChoice>
    for SpanStore<S>
{
    fn lookup(
        &mut self,
        device: &str,
        epoch: u64,
        fingerprint: &WindowFingerprint,
    ) -> Option<StoredChoice> {
        let start = Instant::now();
        let value = self.inner.lookup(device, epoch, fingerprint);
        self.log.record(SpanKind::Lookup, start);
        value
    }

    fn publish(
        &mut self,
        device: &str,
        epoch: u64,
        fingerprint: WindowFingerprint,
        value: StoredChoice,
    ) {
        let start = Instant::now();
        self.inner.publish(device, epoch, fingerprint, value);
        self.log.record(SpanKind::Publish, start);
    }

    fn discard(&mut self, device: &str, epoch: u64, fingerprint: &WindowFingerprint) -> bool {
        let start = Instant::now();
        let existed = self.inner.discard(device, epoch, fingerprint);
        self.log.record(SpanKind::OtherStore, start);
        existed
    }

    fn invalidate_device_before(&mut self, device: &str, epoch: u64) -> usize {
        let start = Instant::now();
        let dropped = self.inner.invalidate_device_before(device, epoch);
        self.log.record(SpanKind::OtherStore, start);
        dropped
    }

    fn metrics_snapshot(&self) -> CacheMetrics {
        self.inner.metrics_snapshot()
    }
}

/// Per-layer samples a traced run gathers, one entry per traced session
/// (or per call, for the `_ns` and `_us` call timings).
#[derive(Debug, Default)]
pub struct Layers {
    /// Tune spans of traced sessions, µs.
    pub tune_us: Vec<f64>,
    /// Tune spans of the same kind of session run without wrappers, µs.
    pub untraced_tune_us: Vec<f64>,
    /// Tune span minus its sim, store and schedule spans, µs.
    pub self_us: Vec<f64>,
    /// `VqeProblem::schedule_groups`, µs.
    pub schedule_us: Vec<f64>,
    /// Executor time per session, µs.
    pub sim_us: Vec<f64>,
    /// Executor dispatches, jobs and shots per session.
    pub batches: Vec<f64>,
    /// Jobs dispatched per session.
    pub jobs: Vec<f64>,
    /// Shots dispatched per session.
    pub shots: Vec<f64>,
    /// Store calls per session.
    pub store_ops: Vec<f64>,
    /// Store time per session, µs.
    pub store_us: Vec<f64>,
    /// Each store lookup, ns.
    pub lookup_ns: Vec<f64>,
    /// Each store publish, ns.
    pub publish_ns: Vec<f64>,
    /// `Frame::to_wire` + `Frame::decode` of a session's request and
    /// outcome frames, ns.
    pub codec_ns: Vec<f64>,
    /// `DurableStore::flush_journal` per session, µs.
    pub flush_us: Vec<f64>,
    /// Journal records and bytes a session's flush wrote.
    pub journal_records: Vec<f64>,
    /// Journal bytes a session's flush wrote.
    pub journal_bytes: Vec<f64>,
    /// `DurableStore::ship_since` per session, µs.
    pub ship_us: Vec<f64>,
    /// `ReplicaApplier::apply` per session, µs.
    pub apply_us: Vec<f64>,
}

impl Layers {
    /// Folds one traced tune into the samples: the tune span
    /// (`start..end`), the separately timed schedule build, and the spans
    /// the wrappers recorded inside it.
    pub fn add_tune(&mut self, start: Instant, end: Instant, schedule: Duration, spans: &[Span]) {
        let offset = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
        let tune = (end - start).as_secs_f64();
        let children: Vec<(f64, f64)> = spans
            .iter()
            .map(|s| (offset(s.start), offset(s.end)))
            .collect();
        // The tuner builds its schedules inside the span, where no
        // wrapper sees it; the separately timed build stands in for it.
        let schedule = schedule.as_secs_f64();
        self.tune_us.push(tune * 1e6);
        self.self_us
            .push((stats::self_time((0.0, tune), &children) - schedule) * 1e6);
        self.schedule_us.push(schedule * 1e6);
        let (mut sim, mut batches, mut jobs, mut shots) = (0.0, 0usize, 0usize, 0u64);
        let (mut store, mut ops) = (0.0, 0usize);
        for span in spans {
            let secs = (span.end - span.start).as_secs_f64();
            match span.kind {
                SpanKind::Batch { jobs: j, shots: s } => {
                    sim += secs;
                    batches += 1;
                    jobs += j;
                    shots += s;
                    continue;
                }
                SpanKind::Lookup => self.lookup_ns.push(secs * 1e9),
                SpanKind::Publish => self.publish_ns.push(secs * 1e9),
                SpanKind::OtherStore => {}
            }
            store += secs;
            ops += 1;
        }
        self.sim_us.push(sim * 1e6);
        self.batches.push(batches as f64);
        self.jobs.push(jobs as f64);
        self.shots.push(shots as f64);
        self.store_ops.push(ops as f64);
        self.store_us.push(store * 1e6);
    }
}

/// Per-layer figures that come from counters and untraced timings rather
/// than spans. Zero where the workload does not run the layer.
#[derive(Debug, Default)]
pub struct Counters {
    /// Untraced median session latency, µs.
    pub untraced_p50_us: f64,
    /// Median in-process `FleetService::submit` → result, µs.
    pub inprocess_p50_us: f64,
    /// Sessions the totals below cover.
    pub sessions: f64,
    /// Pump CPU time, µs.
    pub pump_cpu_us: f64,
    /// Pump wake-ups.
    pub pump_wakeups: f64,
    /// Payload bytes in and out.
    pub rpc_bytes: f64,
    /// Frames the server failed to decode.
    pub decode_errors: f64,
    /// Deepest per-device queue seen.
    pub queue_depth_max: f64,
    /// Replies held behind the durability gate.
    pub replies_gated: f64,
    /// Sessions refused by quota.
    pub quota_rejections: f64,
    /// Machine objective evaluations.
    pub evaluations: f64,
    /// Tuner cache hits.
    pub hits: f64,
    /// Tuner cache misses.
    pub misses: f64,
    /// Sessions whose every guard accepted.
    pub guard_accepted: f64,
    /// Store cache hits (shard counters).
    pub store_hits: f64,
    /// Store cache misses (shard counters).
    pub store_misses: f64,
    /// Store shard lock acquisitions.
    pub lock_acquisitions: f64,
    /// Store shard lock acquisitions that blocked.
    pub lock_contended: f64,
    /// An explicit checkpoint of the final store, ms.
    pub checkpoint_ms: f64,
    /// `DurableStore::open` of the final store directory, ms.
    pub recovery_ms: f64,
    /// Journal write errors.
    pub write_errors: f64,
    /// Journal shipments to the follower.
    pub ships: f64,
    /// Records the follower applied.
    pub records_applied: f64,
    /// Sessions the follower's records cover.
    pub follower_sessions: f64,
}

/// Every per-layer metric, in [`LAYER_METRICS`] order.
pub fn layer_metrics(l: &Layers, c: &Counters) -> Vec<(&'static str, f64)> {
    let per_session = |total: f64| ratio_or_zero(total, c.sessions);
    let tune = median_or_zero(&l.tune_us);
    let flush = median_or_zero(&l.flush_us);
    let ship = median_or_zero(&l.ship_us);
    let apply = median_or_zero(&l.apply_us);
    // Everything a session does after admission, per the spans.
    let downstream = tune + flush + ship + apply;
    let codec = median_or_zero(&l.codec_ns);

    let sim_total: f64 = l.sim_us.iter().sum();
    let untraced_tune = median_or_zero(&l.untraced_tune_us);
    vec![
        (
            "fleet_rpc.overhead_us",
            c.untraced_p50_us - c.inprocess_p50_us,
        ),
        ("fleet_rpc.codec_ns", codec),
        (
            "fleet_rpc.pump_cpu_us_per_session",
            per_session(c.pump_cpu_us),
        ),
        (
            "fleet_rpc.pump_wakeups_per_session",
            per_session(c.pump_wakeups),
        ),
        ("fleet_rpc.bytes_per_session", per_session(c.rpc_bytes)),
        ("fleet_rpc.decode_errors", c.decode_errors),
        ("fleet_service.session_us_p50", c.inprocess_p50_us),
        ("fleet_service.wait_us_p50", c.inprocess_p50_us - downstream),
        ("fleet_service.queue_depth_max", c.queue_depth_max),
        (
            "fleet_service.replies_gated_per_session",
            per_session(c.replies_gated),
        ),
        ("fleet_service.quota_rejections", c.quota_rejections),
        ("window_tuner.tune_us_p50", tune),
        ("window_tuner.self_us_p50", median_or_zero(&l.self_us)),
        (
            "window_tuner.schedule_us_p50",
            median_or_zero(&l.schedule_us),
        ),
        (
            "window_tuner.evaluations_per_session",
            per_session(c.evaluations),
        ),
        (
            "window_tuner.hit_rate",
            ratio_or_zero(c.hits, c.hits + c.misses),
        ),
        (
            "window_tuner.guard_accept_rate",
            per_session(c.guard_accepted),
        ),
        ("sim.run_batch_us_per_session", mean_or_zero(&l.sim_us)),
        (
            "sim.share",
            ratio_or_zero(sim_total, l.tune_us.iter().sum()),
        ),
        ("sim.batches_per_session", mean_or_zero(&l.batches)),
        ("sim.jobs_per_session", mean_or_zero(&l.jobs)),
        ("sim.shots_per_session", mean_or_zero(&l.shots)),
        (
            "sim.shots_per_s",
            ratio_or_zero(l.shots.iter().sum(), sim_total / 1e6),
        ),
        ("store.lookup_ns_p50", median_or_zero(&l.lookup_ns)),
        ("store.publish_ns_p50", median_or_zero(&l.publish_ns)),
        ("store.ops_per_session", mean_or_zero(&l.store_ops)),
        (
            "store.hit_rate",
            ratio_or_zero(c.store_hits, c.store_hits + c.store_misses),
        ),
        (
            "store.lock_contended_share",
            ratio_or_zero(c.lock_contended, c.lock_acquisitions),
        ),
        ("persist.flush_us_p50", flush),
        (
            "persist.journal_records_per_session",
            mean_or_zero(&l.journal_records),
        ),
        (
            "persist.journal_bytes_per_session",
            mean_or_zero(&l.journal_bytes),
        ),
        ("persist.checkpoint_ms", c.checkpoint_ms),
        ("persist.recovery_ms", c.recovery_ms),
        ("persist.write_errors", c.write_errors),
        ("fleet_replica.ship_us_p50", ship),
        ("fleet_replica.apply_us_p50", apply),
        ("fleet_replica.ships_per_session", per_session(c.ships)),
        (
            "fleet_replica.records_applied_per_session",
            ratio_or_zero(c.records_applied, c.follower_sessions),
        ),
        (
            "trace.overhead_share",
            if untraced_tune > 0.0 {
                tune / untraced_tune - 1.0
            } else {
                0.0
            },
        ),
        (
            "trace.unattributed_us",
            c.untraced_p50_us - codec / 1e3 - downstream,
        ),
    ]
}

/// Prints the per-layer metrics with what each should move, then the
/// answer to "where did this session's time go?".
pub fn print_layers(metrics: &[(&'static str, f64)], l: &Layers, c: &Counters) {
    let value = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    println!("per-layer metrics (traced run):");
    for (name, v) in metrics {
        let (unit, moves) = LAYER_METRICS
            .iter()
            .find(|lm| lm.name == *name)
            .map(|lm| (lm.unit, lm.moves))
            .unwrap_or(("?", "?"));
        println!("  {name:<44} {v:>14.4} {unit:<6} moves: {moves}");
    }
    println!("where a session's time goes (medians in us; differences of medians are estimates):");
    println!(
        "  served over RPC, untraced          {:>10.1}",
        c.untraced_p50_us
    );
    println!(
        "  fleet_rpc     RPC path over in-process {:>10.1}  (codec {:.1})",
        value("fleet_rpc.overhead_us"),
        value("fleet_rpc.codec_ns") / 1e3
    );
    println!(
        "  fleet_service admission, DRR queue, hand-off, reply gate {:>10.1}",
        value("fleet_service.wait_us_p50")
    );
    let tune = value("window_tuner.tune_us_p50");
    println!("  window_tuner  tune span {tune:>10.1}, of which:");
    println!(
        "    self                             {:>10.1}",
        value("window_tuner.self_us_p50")
    );
    println!(
        "    schedule                         {:>10.1}",
        value("window_tuner.schedule_us_p50")
    );
    println!(
        "    sim run_batch                    {:>10.1}  ({:.1}% of tune time)",
        value("sim.run_batch_us_per_session"),
        100.0 * value("sim.share")
    );
    println!(
        "    store ({:.1} calls)               {:>10.1}",
        value("store.ops_per_session"),
        mean_or_zero(&l.store_us)
    );
    println!(
        "  persist       journal flush        {:>10.1}",
        value("persist.flush_us_p50")
    );
    println!(
        "  fleet_replica ship + apply         {:>10.1}",
        value("fleet_replica.ship_us_p50") + value("fleet_replica.apply_us_p50")
    );
    println!(
        "  unattributed (hand-offs, wake-ups) {:>10.1}",
        value("trace.unattributed_us")
    );
    println!(
        "  tracing overhead on the tune span  {:>9.2}%",
        100.0 * value("trace.overhead_share")
    );
}
