//! The serving workloads: a fleet daemon booted in-process
//! (`FleetService::open` + `RpcServer::serve` on a private Unix socket,
//! the `loadgen --sweep-cores` fixture: the light 3-qubit windowed
//! problem on two workers) and driven open-loop by two tenants over two
//! connections, each tenant alternating between two pinned devices.
//!
//! * `serve_warm`: every request to a device carries the clock of the
//!   device's warm-up, so every window hits the config store and nothing
//!   is journaled.
//! * `serve_recal`: every request moves its device's clock on by one
//!   calibration period, so every session invalidates, sweeps and
//!   publishes; the journal ships to an in-process `Follower` and replies
//!   wait for its acknowledgement.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::Rng;
use vaqem::backend::QuantumBackend;
use vaqem::executor::Executor;
use vaqem::metrics::improvement_rel_baseline_adjusted;
use vaqem::vqe::VqeProblem;
use vaqem::window_tuner::{FleetCacheSession, MitigationStoreBackend, WarmTuneReport, WindowTuner};
use vaqem::VaqemError;
use vaqem_bench::rpcload;
use vaqem_fleet_replica::{Follower, FollowerExit, MitigationReplica, ReplicaConfig};
use vaqem_fleet_rpc::server::{RpcListener, RpcServer, RpcServerConfig};
use vaqem_fleet_rpc::{FailoverTarget, Frame};
use vaqem_fleet_service::{
    DeviceSpec, DurableMitigationStore, FleetMetricsReport, FleetService, FleetServiceConfig,
    SessionKind, SessionOutcome, SessionRequest, SessionResult,
};
use vaqem_mathkit::rng::SeedStream;
use vaqem_mitigation::combined::MitigationConfig;
use vaqem_runtime::ShipCursor;
use vaqem_sim::machine::MachineExecutor;

use crate::client::Conn;
use crate::stats::{self, Attempt};
use crate::trace::{self, Counters, Layers, SpanExecutor, SpanStore};
use crate::RunResult;

/// Client labels: one tenant per connection, each a DRR lane on both
/// devices.
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Devices in the fleet.
const DEVICES: usize = 2;
/// Reactor worker-pool width: the sweep fixture's width-2 point.
const WORKERS: usize = 2;
/// The hour of each device's first warm-up session.
const T0_HOURS: f64 = 1.0;
/// Calibration epochs a device's warm-up may try for a tune its guard
/// accepts (a rejected one caches nothing, so every later session would
/// re-sweep).
const WARMUP_EPOCHS: u64 = 8;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;
/// How long the tail of a run may take to drain before sessions still
/// unanswered count as failed.
const DRAIN: Duration = Duration::from_secs(10);
/// Served configs per device whose quality `objective_gain` averages on
/// the recalibrating fleet (the warm fleet serves one config per device).
const GAIN_CONFIGS_PER_DEVICE: usize = 4;
/// Paired evaluations (shared job indices) per config and side.
const GAIN_REPEATS: u64 = 2;
/// Shots per evaluation behind `objective_gain`.
const GAIN_SHOTS: u64 = 512;
/// First job index of the quality evaluations, clear of every index the
/// tuner uses.
const GAIN_JOB_BASE: u64 = 9_000_000;
/// Equal slices of the measured span behind `latency_p50_ms` and
/// `slo_attainment`: each is the median of the slices' values. On a host
/// whose CPUs are shared, a burst of steal that spans a few seconds would
/// otherwise move a whole run's median and, more still, its tail.
const LATENCY_WINDOWS: usize = 10;
/// How often the traced run samples the reactor's queue depths.
const QUEUE_SAMPLE_PERIOD: Duration = Duration::from_millis(10);

/// Traffic and latency limits of one serving workload.
#[derive(Debug, Clone, Copy)]
struct Spec {
    recal: bool,
    /// Offered sessions per second, over both tenants.
    rate: f64,
    /// The SLO limit.
    limit_s: f64,
    /// The median generator lag a run may show. Past it the load
    /// generator, not the fleet, set the pace, and the run is rejected;
    /// a stall that delays a few sends is charged to their latencies.
    max_lag_p50_s: f64,
}

impl Spec {
    fn new(recal: bool) -> Spec {
        // Rates: about a third of the fixture's closed-loop capacity on a
        // 2-core host (~1,270/s warm, ~400/s with a follower): enough
        // headroom that a host whose CPUs are shared does not push the
        // fleet toward saturation, where queueing multiplies every stall.
        // Limits: a shared host stalls a session for a few milliseconds
        // now and then (a time slice, a burst of steal), so a limit must
        // sit well past such stalls or the share measures the host. At
        // 5 ms, five times the warm p50, 8% of warm sessions missed on a
        // busy host and the share spread by 10 to 12% between runs.
        if recal {
            Spec {
                recal,
                rate: 150.0,
                limit_s: 0.015,
                max_lag_p50_s: 0.0015,
            }
        } else {
            Spec {
                recal,
                rate: 400.0,
                limit_s: 0.010,
                max_lag_p50_s: 0.0005,
            }
        }
    }

    fn name(&self) -> &'static str {
        if self.recal {
            "serve_recal"
        } else {
            "serve_warm"
        }
    }
}

/// The fleet is fixed hardware: its devices, their drift and their
/// trajectory streams derive from this seed, so every run serves the
/// same fleet. The run's `--seed` draws the traffic.
const FLEET_SEED: u64 = 7077;

fn devices() -> Vec<DeviceSpec> {
    (0..DEVICES)
        .map(|i| rpcload::windowed_device(i, FLEET_SEED))
        .collect()
}

/// The devices' calibration period, in hours.
fn calibration_period() -> f64 {
    devices()[0].drift.calibration_period_hours()
}

/// One scheduled session: which tenant sends it, when it is due (seconds
/// from the start of the run) and what it asks.
#[derive(Debug, Clone)]
struct Scheduled {
    tenant: usize,
    due: f64,
    request: SessionRequest,
}

/// The seeded session stream: Poisson arrivals at `spec.rate`, split
/// evenly over the tenants, each tenant alternating between the devices.
/// Requests to a device carry its warm-up hour; on the recalibrating
/// fleet each moves the device's clock one calibration period further
/// (`periods` counts them, so a later stream continues from there).
fn schedule(
    seed: u64,
    spec: Spec,
    seconds: f64,
    warm_hours: [f64; DEVICES],
    periods: &mut [u64; DEVICES],
    template: &SessionRequest,
) -> Vec<Scheduled> {
    let seeds = SeedStream::new(seed).substream("perfbench-arrivals");
    let per_tenant = spec.rate / TENANTS.len() as f64;
    let mut stream = Vec::new();
    for (tenant, client) in TENANTS.iter().enumerate() {
        let mut rng = seeds.rng_indexed("tenant", tenant as u64);
        let mut due = 0.0;
        for k in 0usize.. {
            due += -(1.0 - rng.gen::<f64>()).ln() / per_tenant;
            if due >= seconds {
                break;
            }
            stream.push(Scheduled {
                tenant,
                due,
                request: SessionRequest {
                    client: client.to_string(),
                    device: Some((k + tenant) % DEVICES),
                    ..template.clone()
                },
            });
        }
    }
    stream.sort_by(|a, b| a.due.total_cmp(&b.due));
    let period = calibration_period();
    for s in &mut stream {
        let d = s.request.device.expect("pinned");
        if spec.recal {
            periods[d] += 1;
        }
        s.request.t_hours = warm_hours[d] + period * periods[d] as f64;
    }
    stream
}

/// The in-process follower's thread; it hands the follower back when
/// stopped.
type FollowerThread = JoinHandle<(Follower, FollowerExit)>;

/// A booted fleet.
struct Fleet {
    service: FleetService,
    server: RpcServer,
    /// The in-process follower's stop flag and thread (recalibrating
    /// fleet only).
    follower: Option<(Arc<AtomicBool>, FollowerThread)>,
    conns: Vec<Conn>,
    store_dir: PathBuf,
    shards: usize,
    capacity: usize,
    /// The cold warm-up sessions, in completion order.
    warmup: Vec<(SessionRequest, SessionOutcome)>,
}

/// Each device's last warm-up session: its hour and served config are
/// what the warm fleet serves.
fn last_warmups(
    warmup: &[(SessionRequest, SessionOutcome)],
) -> Vec<&(SessionRequest, SessionOutcome)> {
    (0..DEVICES)
        .map(|d| {
            warmup
                .iter()
                .rfind(|(_, o)| o.device == d)
                .expect("every device warmed up")
        })
        .collect()
}

/// The set-up a run pays: open the service, serve it, attach the
/// follower, warm each device up (cold sessions, one calibration epoch
/// after another, until its guard accepts a tune) and connect the
/// tenants.
fn boot(dir: &Path, recal: bool, template: &SessionRequest) -> io::Result<Fleet> {
    std::fs::create_dir_all(dir)?;
    let store_dir = dir.join("store");
    let config = rpcload::sweep_service_config(store_dir.clone(), WORKERS);
    let (shards, capacity) = (config.shards, config.capacity_per_shard);
    let service = FleetService::open(
        config,
        devices(),
        rpcload::windowed_problem(),
        SeedStream::new(FLEET_SEED),
    )?;
    let socket = dir.join("s.sock");
    let server = RpcServer::serve(
        &service,
        RpcListener::bind_unix(&socket)?,
        RpcServerConfig::default(),
    )?;
    let follower = if recal {
        let mut follower = Follower::connect(ReplicaConfig {
            shards,
            capacity_per_shard: capacity,
            ..ReplicaConfig::new(FailoverTarget::Unix(socket.clone()), dir.join("follower"))
        })?;
        // Subscribe before any session, so every reply waits for it.
        follower.sync_once()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let exit = follower.run(&flag);
            (follower, exit)
        });
        Some((stop, thread))
    } else {
        None
    };
    let mut warmup = Vec::new();
    let period = calibration_period();
    for device in 0..DEVICES {
        for epoch in 0..WARMUP_EPOCHS {
            let request = SessionRequest {
                client: "warmup".into(),
                device: Some(device),
                t_hours: T0_HOURS + period * epoch as f64,
                ..template.clone()
            };
            let outcome = service
                .submit(request.clone())
                .recv()
                .map_err(|_| io::Error::other("reactor gone"))?
                .map_err(|e| io::Error::other(format!("warm-up session: {e}")))?;
            let accepted = !outcome.guard_rejected;
            warmup.push((request, outcome));
            if accepted {
                break;
            }
        }
    }
    let conns = TENANTS
        .iter()
        .map(|tenant| Conn::connect(&socket, tenant))
        .collect::<io::Result<_>>()?;
    Ok(Fleet {
        service,
        server,
        follower,
        conns,
        store_dir,
        shards,
        capacity,
        warmup,
    })
}

/// What tearing a fleet down measured.
#[derive(Debug, Default)]
struct Teardown {
    records_applied: f64,
    sessions: f64,
    checkpoint_ms: f64,
    recovery_ms: f64,
}

impl Fleet {
    /// Stops everything. The follower first syncs until caught up, and
    /// must then hold exactly the leader's journal position and entries.
    /// With `measure`, also times an explicit checkpoint and the recovery
    /// (`DurableStore::open`) of the final store directory.
    fn teardown(self, measure: bool, result: &mut RunResult) -> Teardown {
        let Fleet {
            service,
            server,
            follower,
            conns,
            store_dir,
            shards,
            capacity,
            ..
        } = self;
        for conn in conns {
            conn.close();
        }
        let mut out = Teardown {
            sessions: service.sessions_completed() as f64,
            ..Teardown::default()
        };
        if let Some((stop, thread)) = follower {
            stop.store(true, Ordering::SeqCst);
            match thread.join() {
                Ok((mut follower, FollowerExit::Stopped)) => {
                    let caught_up = loop {
                        match follower.sync_once() {
                            Ok(true) => continue,
                            Ok(false) => break Ok(()),
                            Err(e) => break Err(e),
                        }
                    };
                    let leader = service.store();
                    let (cursor, entries) = (follower.cursor(), follower.applier().store().len());
                    result.check(
                        caught_up.is_ok() && cursor == leader.ship_cursor() && entries == leader.len(),
                        || {
                            format!(
                                "the follower had not applied every shipped record by teardown: \
                                 cursor {cursor:?} vs leader {:?}, {entries} vs {} entries ({caught_up:?})",
                                leader.ship_cursor(),
                                leader.len()
                            )
                        },
                    );
                    out.records_applied = follower.applier().records_applied() as f64;
                }
                Ok((_, FollowerExit::LeaderDied(e))) => result
                    .failures
                    .push(format!("the follower lost the leader: {e}")),
                Err(_) => result.failures.push("the follower thread panicked".into()),
            }
        }
        if measure {
            let start = Instant::now();
            let checkpoint = service.store().checkpoint();
            out.checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
            result.check(checkpoint.is_ok(), || {
                format!("checkpoint failed: {checkpoint:?}")
            });
        }
        server.stop();
        if let Err(e) = service.shutdown() {
            result
                .failures
                .push(format!("shutdown checkpoint failed: {e}"));
        }
        if measure {
            let start = Instant::now();
            match DurableMitigationStore::open(&store_dir, shards, capacity) {
                Ok(_) => out.recovery_ms = start.elapsed().as_secs_f64() * 1e3,
                Err(e) => result.failures.push(format!("recovery failed: {e}")),
            }
        }
        out
    }
}

/// What the open-loop load saw, index-aligned with the stream.
struct Served {
    attempts: Vec<Attempt>,
    outcomes: Vec<Option<SessionOutcome>>,
    errors: Vec<String>,
    /// Deepest per-device queue sampled (traced runs only).
    queue_depth_max: usize,
}

/// One load thread's log, by stream index.
#[derive(Default)]
struct TenantLog {
    sent: Vec<(usize, f64)>,
    replies: Vec<(usize, f64, Result<SessionOutcome, String>)>,
    errors: Vec<String>,
}

impl TenantLog {
    /// Records one reply frame; returns how many sessions it answered.
    fn reply(&mut self, frame: Frame, start: Instant) -> usize {
        let at = start.elapsed().as_secs_f64();
        match frame {
            Frame::Outcome { token, outcome } => {
                self.replies.push((token as usize, at, Ok(outcome)));
                1
            }
            Frame::Error { token, error } => {
                self.replies
                    .push((token as usize, at, Err(error.to_string())));
                1
            }
            other => {
                self.errors.push(format!("unexpected frame {other:?}"));
                0
            }
        }
    }
}

/// One load thread: sends each of its sessions when due and timestamps
/// every reply as it is read.
fn tenant_loop(conn: &mut Conn, frames: &[(usize, f64, Vec<u8>)], start: Instant) -> TenantLog {
    let mut log = TenantLog::default();
    let mut open = 0usize;
    let mut drive = || -> io::Result<()> {
        for (index, due, wire) in frames {
            let due_at = start + Duration::from_secs_f64(*due);
            while let Some(frame) = conn.recv_until(due_at)? {
                open -= log.reply(frame, start);
            }
            log.sent.push((*index, start.elapsed().as_secs_f64()));
            conn.send_wire(wire)?;
            open += 1;
        }
        let deadline = Instant::now() + DRAIN;
        while open > 0 {
            match conn.recv_until(deadline)? {
                Some(frame) => open -= log.reply(frame, start),
                None => break,
            }
        }
        Ok(())
    };
    if let Err(e) = drive() {
        log.errors.push(format!("connection failed: {e}"));
    }
    log
}

/// Drives `stream` open-loop over the fleet's connections, one load
/// thread per connection. With `sample`, the calling thread samples the
/// reactor's queue depths meanwhile.
fn drive_rpc(conns: &mut [Conn], stream: &[Scheduled], sample: Option<&FleetService>) -> Served {
    let per_tenant: Vec<Vec<(usize, f64, Vec<u8>)>> = (0..TENANTS.len())
        .map(|tenant| {
            stream
                .iter()
                .enumerate()
                .filter(|(_, s)| s.tenant == tenant)
                .map(|(i, s)| {
                    let frame = Frame::Submit {
                        token: i as u64,
                        request: s.request.clone(),
                    };
                    (i, s.due, frame.to_wire())
                })
                .collect()
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let mut queue_depth_max = 0;
    let logs: Vec<TenantLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&per_tenant)
            .map(|(conn, frames)| scope.spawn(move || tenant_loop(conn, frames, start)))
            .collect();
        if let Some(service) = sample {
            while !handles.iter().all(|h| h.is_finished()) {
                let report = service.metrics_report();
                let deepest = report.devices.iter().map(|d| d.queue_depth).max();
                queue_depth_max = queue_depth_max.max(deepest.unwrap_or(0));
                std::thread::sleep(QUEUE_SAMPLE_PERIOD);
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut served = Served {
        attempts: stream.iter().map(|s| Attempt::due_at(s.due)).collect(),
        outcomes: vec![None; stream.len()],
        errors: Vec::new(),
        queue_depth_max,
    };
    for log in logs {
        served.errors.extend(log.errors);
        for (i, at) in log.sent {
            served.attempts[i].sent = Some(at);
        }
        for (i, at, reply) in log.replies {
            let Some(attempt) = served.attempts.get_mut(i) else {
                served.errors.push(format!("reply for unknown token {i}"));
                continue;
            };
            attempt.done = Some(at);
            attempt.ok = reply.is_ok();
            match reply {
                Ok(outcome) => served.outcomes[i] = Some(outcome),
                Err(e) => served.errors.push(format!("session {i}: {e}")),
            }
        }
    }
    served
}

/// Replays `stream` through `FleetService::submit` at the same due
/// times, from one thread. Each wait for the oldest open session ends at
/// the next due time, so a session that finishes before an older one is
/// stamped when the older one is collected: close at this load, where
/// sessions rarely overlap.
fn drive_inprocess(service: &FleetService, stream: &[Scheduled]) -> Vec<Attempt> {
    /// Collects open sessions, oldest first, until `until`.
    fn collect(
        attempts: &mut [Attempt],
        open: &mut VecDeque<(usize, Receiver<SessionResult>)>,
        start: Instant,
        until: Instant,
    ) {
        while let Some((i, rx)) = open.front() {
            let now = Instant::now();
            if now >= until {
                break;
            }
            let ok = match rx.recv_timeout(until - now) {
                Ok(result) => result.is_ok(),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => false,
            };
            attempts[*i].done = Some(start.elapsed().as_secs_f64());
            attempts[*i].ok = ok;
            open.pop_front();
        }
    }

    let start = Instant::now() + Duration::from_millis(5);
    let mut attempts: Vec<Attempt> = stream.iter().map(|s| Attempt::due_at(s.due)).collect();
    let mut open = VecDeque::new();
    for (i, s) in stream.iter().enumerate() {
        let due = start + Duration::from_secs_f64(s.due);
        collect(&mut attempts, &mut open, start, due);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        attempts[i].sent = Some(start.elapsed().as_secs_f64());
        open.push_back((i, service.submit(s.request.clone())));
    }
    collect(&mut attempts, &mut open, start, Instant::now() + DRAIN);
    attempts
}

/// Fig. 12 improvement of `config` over the unmitigated baseline, on
/// fresh paired evaluations (the two sides share job indices, so an
/// unchanged config scores exactly 1). Runs outside any timed span.
fn objective_gain(
    problem: &VqeProblem,
    params: &[f64],
    executor: MachineExecutor,
    config: &MitigationConfig,
) -> f64 {
    let backend = QuantumBackend::from_executor(executor).with_shots(GAIN_SHOTS);
    let cache = problem
        .schedule_groups(&backend, params)
        .expect("bound circuits");
    let evals: Vec<(MitigationConfig, u64)> = (0..GAIN_REPEATS)
        .flat_map(|r| {
            [
                (config.clone(), GAIN_JOB_BASE + r),
                (MitigationConfig::baseline(), GAIN_JOB_BASE + r),
            ]
        })
        .collect();
    let energies = problem.machine_energy_batch(&backend, &cache, &evals);
    let (tuned, base) = energies
        .chunks(2)
        .fold((0.0, 0.0), |(t, b), pair| (t + pair[0], b + pair[1]));
    let n = GAIN_REPEATS as f64;
    improvement_rel_baseline_adjusted(
        tuned / n,
        base / n,
        problem.exact_ground_energy(),
        problem.hamiltonian().identity_offset(),
    )
}

/// Mean `objective_gain` of served configs, each evaluated on its
/// device's noise at its request's hour, on the fleet's own trajectory
/// stream for that device.
fn served_gain(served: &[(&SessionRequest, &SessionOutcome)]) -> f64 {
    let devices = devices();
    let problem = rpcload::windowed_problem();
    let seeds = SeedStream::new(FLEET_SEED);
    let layout: Vec<usize> = (0..problem.ansatz().num_qubits()).collect();
    let gains: Vec<f64> = served
        .iter()
        .map(|(request, outcome)| {
            let spec = &devices[outcome.device];
            let machine = MachineExecutor::new(
                spec.drift
                    .noise_at(&spec.model, request.t_hours)
                    .subset(&layout),
                seeds.substream(&format!("machine-{}", spec.name)),
            );
            objective_gain(&problem, &request.params, machine, &outcome.config)
        })
        .collect();
    stats::mean_or_zero(&gains)
}

/// Runs one tuning session the way `daemon::run_session` does, on the
/// given executor and store: the device's drifted noise at the request's
/// hour, the epoch's calibration snapshot, the device's trajectory
/// stream.
fn tune_like_the_daemon<E: Executor, S: MitigationStoreBackend>(
    problem: &VqeProblem,
    config: &FleetServiceConfig,
    backend: &QuantumBackend<E>,
    spec: &DeviceSpec,
    request: &SessionRequest,
    epoch: u64,
    store: &mut S,
) -> Result<WarmTuneReport, VaqemError> {
    let layout: Vec<usize> = (0..problem.ansatz().num_qubits()).collect();
    let calibration = spec
        .drift
        .noise_at(
            &spec.model,
            epoch as f64 * spec.drift.calibration_period_hours(),
        )
        .subset(&layout);
    let tuner = WindowTuner::new(problem, backend, config.tuner.clone());
    let mut session = FleetCacheSession {
        store,
        device: &spec.name,
        epoch,
        calibration: &calibration,
    };
    match request.kind {
        SessionKind::Dd => tuner.tune_dd_warm(&request.params, &mut session),
        SessionKind::Gs => tuner.tune_gs_warm(&request.params, &mut session),
        SessionKind::Combined => tuner.tune_combined_warm(&request.params, &mut session),
        SessionKind::Zne => tuner.tune_zne_warm(&request.params, &mut session),
        SessionKind::CombinedZne => tuner.tune_combined_zne_warm(&request.params, &mut session),
    }
}

/// Replays served sessions through the layers' public APIs in each
/// device's dispatch order (the outcomes' sequence stamps) — the tune as
/// `daemon::run_session` runs it, the journal flush at the group-commit
/// boundary, and with a follower the ship and apply — on a fresh store,
/// checking each outcome bit-for-bit against the served one. Every other
/// session of a device runs under the span wrappers and the rest bare:
/// their tune spans give the tracing overhead.
fn replay(
    recal: bool,
    dir: &Path,
    sessions: &[(&SessionRequest, &SessionOutcome)],
    layers: &mut Layers,
    result: &mut RunResult,
) -> io::Result<()> {
    let config = rpcload::sweep_service_config(dir.join("store"), WORKERS);
    let store = Arc::new(DurableMitigationStore::open(
        &config.store_dir,
        config.shards,
        config.capacity_per_shard,
    )?);
    store.set_group_commit(true);
    let mut replica = if recal {
        let mut replica = MitigationReplica::open(
            &dir.join("follower"),
            config.shards,
            config.capacity_per_shard,
        )?;
        replica.apply(&store.ship_since(ShipCursor::default())?)?;
        Some(replica)
    } else {
        None
    };
    let devices = devices();
    let problem = rpcload::windowed_problem();
    let seeds = SeedStream::new(FLEET_SEED);
    let layout: Vec<usize> = (0..problem.ansatz().num_qubits()).collect();
    let mut epochs = [None; DEVICES];
    let mut replayed = [0usize; DEVICES];
    let mut diverged = 0usize;
    for (request, served) in sessions {
        let spec = &devices[served.device];
        // Alternate per device: the devices' sessions can cost different
        // amounts (one may hit while the other re-sweeps).
        let traced = replayed[served.device] % 2 == 0;
        replayed[served.device] += 1;
        // The reactor invalidates stale epochs just before the first
        // dispatch under a new one.
        if epochs[served.device] != Some(served.epoch) {
            store.invalidate_before(&spec.name, served.epoch);
            epochs[served.device] = Some(served.epoch);
        }
        let machine = MachineExecutor::new(
            spec.drift
                .noise_at(&spec.model, request.t_hours)
                .subset(&layout),
            seeds.substream(&format!("machine-{}", spec.name)),
        );
        let report = if traced {
            let backend =
                QuantumBackend::from_executor(SpanExecutor::new(machine)).with_shots(config.shots);
            let start = Instant::now();
            problem
                .schedule_groups(&backend, &request.params)
                .map_err(|e| io::Error::other(format!("{e:?}")))?;
            let schedule = start.elapsed();
            let mut span_store = SpanStore::new(Arc::clone(&store));
            let start = Instant::now();
            let report = tune_like_the_daemon(
                &problem,
                &config,
                &backend,
                spec,
                request,
                served.epoch,
                &mut span_store,
            );
            let end = Instant::now();
            let mut spans = backend.executor().take();
            spans.extend(span_store.take());
            layers.add_tune(start, end, schedule, &spans);
            report
        } else {
            let backend = QuantumBackend::from_executor(machine).with_shots(config.shots);
            let mut handle = Arc::clone(&store);
            let start = Instant::now();
            let report = tune_like_the_daemon(
                &problem,
                &config,
                &backend,
                spec,
                request,
                served.epoch,
                &mut handle,
            );
            layers
                .untraced_tune_us
                .push(start.elapsed().as_secs_f64() * 1e6);
            report
        };
        let same = report.as_ref().is_ok_and(|r| {
            r.tuned.config == served.config
                && r.stats.hits == served.hits
                && r.stats.misses == served.misses
                && r.tuned.evaluations == served.evaluations
        });
        if !same {
            diverged += 1;
        }

        let (records, bytes) = (store.journal_records(), store.ship_cursor().offset);
        let start = Instant::now();
        store.flush_journal()?;
        layers.flush_us.push(start.elapsed().as_secs_f64() * 1e6);
        layers
            .journal_records
            .push(store.journal_records().saturating_sub(records) as f64);
        layers
            .journal_bytes
            .push(store.ship_cursor().offset.saturating_sub(bytes) as f64);
        if let Some(replica) = replica.as_mut() {
            let start = Instant::now();
            let batch = store.ship_since(replica.cursor())?;
            layers.ship_us.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            replica.apply(&batch)?;
            layers.apply_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    result.check(diverged == 0, || {
        format!(
            "the traced replay diverged from {diverged} of {} served outcomes (config, hits, misses, evaluations)",
            sessions.len()
        )
    });
    Ok(())
}

/// Counter deltas between two metrics reports, summed over shards.
fn store_deltas(before: &FleetMetricsReport, after: &FleetMetricsReport) -> (f64, f64, f64, f64) {
    let sum = |r: &FleetMetricsReport| {
        r.shards.iter().fold((0u64, 0u64, 0u64, 0u64), |acc, s| {
            (
                acc.0 + s.cache.hits,
                acc.1 + s.cache.misses,
                acc.2 + s.lock_acquisitions,
                acc.3 + s.lock_contended,
            )
        })
    };
    let (b, a) = (sum(before), sum(after));
    (
        a.0.saturating_sub(b.0) as f64,
        a.1.saturating_sub(b.1) as f64,
        a.2.saturating_sub(b.2) as f64,
        a.3.saturating_sub(b.3) as f64,
    )
}

/// Runs one serving workload. See the module docs.
pub fn run(recal: bool, seed: u64, seconds: f64, traced: bool, work: &Path) -> RunResult {
    let spec = Spec::new(recal);
    let mut result = RunResult::default();
    let template = rpcload::sweep_request(T0_HOURS);

    let mut setups = Vec::new();
    let mut fleet: Option<Fleet> = None;
    for r in 0..if traced { 1 } else { SETUP_REPEATS } {
        if let Some(previous) = fleet.take() {
            previous.teardown(false, &mut result);
        }
        let start = Instant::now();
        match boot(&work.join(format!("boot{r}")), recal, &template) {
            Ok(f) => {
                setups.push(start.elapsed().as_secs_f64());
                fleet = Some(f);
            }
            Err(e) => {
                result.failures.push(format!("set-up failed: {e}"));
                return result;
            }
        }
    }
    let mut fleet = fleet.expect("booted at least once");

    // The measured span. The traced run serves half of it, then replays
    // a quarter in-process and the served sessions layer by layer.
    let measured = if traced { seconds / 2.0 } else { seconds };
    let warm_hours: [f64; DEVICES] =
        std::array::from_fn(|d| last_warmups(&fleet.warmup)[d].0.t_hours);
    // The recalibrating fleet's clocks start at a seeded epoch, so each
    // seed re-tunes under its own run of calibrations.
    let first = if recal {
        SeedStream::new(seed)
            .rng("perfbench-first-epoch")
            .gen_range(0..10_000u64)
    } else {
        0
    };
    let mut periods = [first; DEVICES];
    let stream = schedule(seed, spec, measured, warm_hours, &mut periods, &template);
    let before = fleet.service.metrics_report();
    let served = drive_rpc(&mut fleet.conns, &stream, traced.then_some(&fleet.service));
    let after = fleet.service.metrics_report();
    let warmup = std::mem::take(&mut fleet.warmup);

    // Output checks.
    let attempted = stream.len();
    let completed = served.attempts.iter().filter(|a| a.ok).count();
    result.attempted = attempted as u64;
    result.failed = (attempted - completed) as u64;
    for e in served.errors.iter().take(5) {
        println!("session error: {e}");
    }
    let arrivals = after.events.arrivals - before.events.arrivals;
    let concluded = (after.events.completions - before.events.completions)
        + (after.events.quota_rejections - before.events.quota_rejections);
    result.check(
        arrivals == attempted as u64
            && concluded == attempted as u64
            && served.errors.len() == attempted - completed,
        || {
            format!(
                "attempted != completed + failed: {attempted} attempted, {completed} completed, \
                 {} errors; the server saw {arrivals} arrivals and concluded {concluded}",
                served.errors.len()
            )
        },
    );
    result.check(after.rpc.decode_errors == 0, || {
        format!("{} rpc decode errors", after.rpc.decode_errors)
    });
    result.check(after.journal_write_errors == 0, || {
        format!("{} journal write errors", after.journal_write_errors)
    });
    let mut misrouted = 0;
    let mut config_drift = 0;
    for (s, outcome) in stream.iter().zip(&served.outcomes) {
        let Some(outcome) = outcome else { continue };
        if Some(outcome.device) != s.request.device || outcome.client != s.request.client {
            misrouted += 1;
        }
        if !recal && outcome.config != last_warmups(&warmup)[outcome.device].1.config {
            config_drift += 1;
        }
    }
    result.check(misrouted == 0, || {
        format!("{misrouted} outcomes came back for another device or tenant")
    });
    result.check(config_drift == 0, || {
        format!("{config_drift} warm outcomes differ from their device's warm-up config")
    });
    let lags = stats::lags(&served.attempts);
    let lag_p50 = lags.median().unwrap_or(0.0);
    result.check(lag_p50 <= spec.max_lag_p50_s, || {
        format!(
            "the generator fell behind: median send lag {:.3} ms over the {:.3} ms allowed",
            lag_p50 * 1e3,
            spec.max_lag_p50_s * 1e3
        )
    });

    let (hits, misses, rejected) = served
        .outcomes
        .iter()
        .flatten()
        .fold((0, 0, 0), |(h, m, r), o| {
            (h + o.hits, m + o.misses, r + usize::from(o.guard_rejected))
        });
    println!(
        "tuner: {hits} window hits, {misses} misses, {rejected} guard rejections; \
         warm-up sessions per device: {:?}",
        (0..DEVICES)
            .map(|d| warmup.iter().filter(|(_, o)| o.device == d).count())
            .collect::<Vec<_>>()
    );
    let latencies = stats::ok_latencies(&served.attempts);
    let last_done = served
        .attempts
        .iter()
        .filter_map(|a| a.done)
        .fold(measured, f64::max);
    let attainment = stats::slo_attainment(&served.attempts, spec.limit_s);
    let windowed_attainment =
        stats::windowed_attainment(&served.attempts, measured, LATENCY_WINDOWS, spec.limit_s);
    println!(
        "workload {}: open loop, Poisson arrivals at {} sessions/s over {} tenants x {DEVICES} devices \
         ({} connections, {} load threads), {WORKERS} workers, {}{measured} s measured",
        spec.name(),
        spec.rate,
        TENANTS.len(),
        TENANTS.len(),
        TENANTS.len(),
        if recal { "an in-process follower, " } else { "" },
    );
    crate::print_latencies("session latency (from due time)", &latencies);
    let windowed_p50 = stats::windowed_median(&served.attempts, measured, LATENCY_WINDOWS);
    println!(
        "  median of {LATENCY_WINDOWS} windows' p50s = {:.4} ms",
        windowed_p50.unwrap_or(0.0) * 1e3
    );
    println!(
        "failed_share = {:.6} share ({} of {attempted} attempted failed or were refused)",
        stats::ratio_or_zero((attempted - completed) as f64, attempted as f64),
        attempted - completed
    );
    println!(
        "generator_lag_ms: p50 {:.4} / p99 {:.4} / max {:.4} (n={}; a median over {:.1} ms rejects the run)",
        lag_p50 * 1e3,
        lags.percentile(0.99).unwrap_or(0.0) * 1e3,
        lags.percentile(1.0).unwrap_or(0.0) * 1e3,
        lags.len(),
        spec.max_lag_p50_s * 1e3
    );

    if !traced {
        // The configs the fleet served, evaluated outside the timed span.
        let mut by_sequence: Vec<(&SessionRequest, &SessionOutcome)> = stream
            .iter()
            .zip(&served.outcomes)
            .filter_map(|(s, o)| o.as_ref().map(|o| (&s.request, o)))
            .collect();
        by_sequence.sort_by_key(|(_, o)| o.sequence);
        let sample: Vec<(&SessionRequest, &SessionOutcome)> = if recal {
            (0..DEVICES)
                .flat_map(|d| {
                    by_sequence
                        .iter()
                        .filter(move |(_, o)| o.device == d)
                        .take(GAIN_CONFIGS_PER_DEVICE)
                        .copied()
                })
                .collect()
        } else {
            last_warmups(&warmup)
                .into_iter()
                .map(|(r, o)| (r, o))
                .collect()
        };
        let gain = served_gain(&sample);
        fleet.teardown(false, &mut result);
        let setup = stats::median_or_zero(&setups);
        println!(
            "sessions_per_s = {:.4} 1/s ({completed} completed in {last_done:.3} s; offered {} /s)",
            completed as f64 / last_done,
            spec.rate
        );
        println!(
            "slo_attainment = {:.5} share (median of {LATENCY_WINDOWS} windows; whole run {attainment:.5}; \
             limit {} ms; failures count as misses; {attempted} attempted)",
            windowed_attainment.unwrap_or(0.0),
            spec.limit_s * 1e3
        );
        println!(
            "objective_gain = {gain:.4} ratio (mean over {} served configs vs unmitigated)",
            sample.len()
        );
        println!("setup_s = {setup:.4} s (median of {SETUP_REPEATS} set-ups: {setups:.4?})");
        result.metrics = vec![
            ("latency_p50_ms", windowed_p50.unwrap_or(0.0) * 1e3),
            ("sessions_per_s", completed as f64 / last_done),
            ("slo_attainment", windowed_attainment.unwrap_or(0.0)),
            ("objective_gain", gain),
            ("setup_s", setup),
        ];
        return result;
    }

    // Traced run: the same stream's first quarter in-process, at the same
    // rate (clocks continue, so recalibrating sessions still
    // recalibrate).
    let inprocess_stream = schedule(
        seed,
        spec,
        seconds / 4.0,
        warm_hours,
        &mut periods,
        &template,
    );
    let inprocess = drive_inprocess(&fleet.service, &inprocess_stream);
    let inprocess_ok = inprocess.iter().filter(|a| a.ok).count();
    result.check(inprocess_ok == inprocess.len(), || {
        format!(
            "{} of {} in-process sessions failed",
            inprocess.len() - inprocess_ok,
            inprocess.len()
        )
    });
    let inprocess_latencies = stats::ok_latencies(&inprocess);
    crate::print_latencies(
        "in-process session latency (from due time)",
        &inprocess_latencies,
    );

    let (store_hits, store_misses, lock_acquisitions, lock_contended) =
        store_deltas(&before, &after);
    let teardown = fleet.teardown(true, &mut result);

    let mut ordered: Vec<(&SessionRequest, &SessionOutcome)> = warmup
        .iter()
        .map(|(r, o)| (r, o))
        .chain(
            stream
                .iter()
                .zip(&served.outcomes)
                .filter_map(|(s, o)| o.as_ref().map(|o| (&s.request, o))),
        )
        .collect();
    ordered.sort_by_key(|(_, o)| o.sequence);
    let mut layers = Layers::default();
    if let Err(e) = replay(
        recal,
        &work.join("replay"),
        &ordered,
        &mut layers,
        &mut result,
    ) {
        result.failures.push(format!("replay failed: {e}"));
    }
    for (s, outcome) in stream.iter().zip(&served.outcomes) {
        if let Some(outcome) = outcome {
            let frames = [
                Frame::Submit {
                    token: 1,
                    request: s.request.clone(),
                },
                Frame::Outcome {
                    token: 1,
                    outcome: outcome.clone(),
                },
            ];
            layers.codec_ns.push(crate::codec_ns(&frames));
        }
    }
    let outcomes: Vec<&SessionOutcome> = served.outcomes.iter().flatten().collect();
    let sum = |f: fn(&SessionOutcome) -> f64| outcomes.iter().map(|o| f(o)).sum::<f64>();
    let counters = Counters {
        untraced_p50_us: latencies.median().unwrap_or(0.0) * 1e6,
        inprocess_p50_us: inprocess_latencies.median().unwrap_or(0.0) * 1e6,
        sessions: completed as f64,
        pump_cpu_us: (after.rpc.pump_cpu_micros - before.rpc.pump_cpu_micros) as f64,
        pump_wakeups: (after.rpc.pump_wakeups - before.rpc.pump_wakeups) as f64,
        rpc_bytes: ((after.rpc.bytes_in + after.rpc.bytes_out)
            - (before.rpc.bytes_in + before.rpc.bytes_out)) as f64,
        decode_errors: after.rpc.decode_errors as f64,
        queue_depth_max: served.queue_depth_max as f64,
        replies_gated: (after.events.replies_gated - before.events.replies_gated) as f64,
        quota_rejections: (after.events.quota_rejections - before.events.quota_rejections) as f64,
        evaluations: sum(|o| o.evaluations as f64),
        hits: sum(|o| o.hits as f64),
        misses: sum(|o| o.misses as f64),
        guard_accepted: sum(|o| if o.guard_rejected { 0.0 } else { 1.0 }),
        store_hits,
        store_misses,
        lock_acquisitions,
        lock_contended,
        checkpoint_ms: teardown.checkpoint_ms,
        recovery_ms: teardown.recovery_ms,
        write_errors: after.journal_write_errors as f64,
        ships: (after.events.journal_ships - before.events.journal_ships) as f64,
        records_applied: teardown.records_applied,
        follower_sessions: if recal { teardown.sessions } else { 0.0 },
    };
    let metrics = trace::layer_metrics(&layers, &counters);
    trace::print_layers(&metrics, &layers, &counters);
    result.metrics = metrics;
    result
}
