//! `loadgen` — multi-client load generation against a running `fleetd`:
//! hundreds of concurrent synthetic tenants hammering the VQRP wire
//! protocol with open/submit/poll churn, slow readers, mid-stream
//! disconnects, and greedy quota-probers, then a machine-readable
//! latency/throughput report.
//!
//! ```text
//! loadgen (--unix PATH | --tcp ADDR) [--clients N] [--out FILE] [--quick]
//!         [--failover [--expect-failover]]
//! loadgen --sweep-cores [--out FILE] [--quick]
//! ```
//!
//! With `--sweep-cores` the harness is self-contained: for each
//! worker-pool width (powers of two up to the machine's cores; `[1, 2]`
//! in quick mode) it boots an in-process fleet daemon on a private Unix
//! socket — `width` workers, `width` windowed devices, the light sweep
//! tuner — and drives one closed-loop client per worker through it
//! twice: once in the
//! **current** configuration (epoll readiness + journal group commit)
//! and once in the **legacy** one (`VAQEM_RPC_PUMP=poll` +
//! `VAQEM_JOURNAL_MODE=per_record`, the pre-campaign polling and flush
//! discipline). Each point records sessions/hour (total and per core),
//! the serving thread's CPU fraction under load (the `pump_*` keys:
//! socket I/O runs on the reactor thread), and — from a quiet window
//! after the load — its *idle* CPU fraction. The curves land in `BENCH_fleet.json`
//! (or `--out`/`$BENCH_FLEET_OUT`). In-binary gates: zero errors
//! everywhere; in full mode, ≥1.3x sessions/hour for current-vs-legacy
//! at the widest point and (on Linux) lower idle CPU for the epoll
//! source than the scan fallback; and when
//! `$BENCH_FLEET_BASELINE` names the committed `BENCH_fleet.json` (the
//! CI smoke does), the run's best width ratio must stay within 25% of
//! the committed `gate_improvement_ratio` — current-vs-legacy ratios
//! measured on the same machine in the same run, so the gate is
//! portable across runner hardware the way raw sessions/hour would not
//! be (the same discipline as the simulator kernel gate).
//!
//! With `--failover` the harness instead drives `FailoverClient`s
//! against a replica pair: every client submits sessions in a loop and
//! rides reconnect-with-backoff through a leader death. The run stops
//! once each client has completed a floor of sessions and — under
//! `--expect-failover`, the CI kill-the-leader smoke — at least one
//! session has completed *after* a reconnect. In-binary gates: zero
//! errors (no acknowledged session lost), nonzero completions, and
//! under `--expect-failover` at least one reconnect and one
//! post-failover completion. The summary lands in `BENCH_failover.json`
//! (or `--out`/`$BENCH_FAILOVER_OUT`).
//!
//! Each client thread owns one connection and plays one of the
//! `vaqem-scenario` tenant behaviors, cycled round-robin:
//!
//! * **uniform** — two sequential sessions with a poll between;
//! * **bursty** — three pipelined submissions, then a drain;
//! * **greedy** — a quota-prober: three pipelined submissions under the
//!   daemon's one-in-flight `greedy-*` cap, so the surplus must bounce
//!   with the typed `SessionError::Quota` — the same rejection an
//!   in-process caller gets;
//! * **churn** — submits a session, writes half a frame, and vanishes;
//!   the daemon must complete (and discard) the orphan without
//!   stalling anyone.
//!
//! Every 11th thread is additionally a **slow reader**: it sleeps
//! before draining replies, exercising the outbound backpressure path.
//!
//! Completed-session latency lands in a merged `LatencyHistogram`
//! (p50/p95/p99), throughput in sessions/hour, and the whole summary —
//! including the daemon's own RPC counters fetched over the wire — is
//! written to `BENCH_rpc.json` (or `--out`/`$BENCH_RPC_OUT`).
//!
//! Asserted in-binary (CI smoke-runs `--quick` against a background
//! `fleetd`): zero decode errors at the server, nonzero completed
//! sessions, at least one typed greedy rejection, every well-behaved
//! session completed, and a post-churn probe session succeeds — the
//! daemon is quiescent, not stalled.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vaqem_bench::rpcload;
use vaqem_fleet_rpc::client::RpcClient;
use vaqem_fleet_rpc::{FailoverClient, FailoverTarget};
use vaqem_fleet_service::SessionError;
use vaqem_mathkit::rng::root_seed_from_env;
use vaqem_runtime::latency::LatencyHistogram;
use vaqem_runtime::JsonValue;
use vaqem_scenario::tenant::TenantBehavior;

const DEFAULT_ROOT_SEED: u64 = 7077;

#[derive(Clone)]
enum Target {
    Unix(PathBuf),
    Tcp(String),
}

impl Target {
    fn connect(&self) -> std::io::Result<RpcClient> {
        match self {
            Target::Unix(path) => RpcClient::connect_unix(path),
            Target::Tcp(addr) => RpcClient::connect_tcp(addr.as_str()),
        }
    }

    /// Connects with retries — a connect storm can outrun the accept
    /// backlog, which is load the harness creates on purpose.
    fn connect_patiently(&self) -> RpcClient {
        let mut delay = Duration::from_millis(20);
        for _ in 0..7 {
            match self.connect() {
                Ok(client) => return client,
                Err(_) => {
                    std::thread::sleep(delay);
                    delay *= 2;
                }
            }
        }
        self.connect().expect("daemon reachable")
    }

    fn label(&self) -> String {
        match self {
            Target::Unix(p) => format!("unix:{}", p.display()),
            Target::Tcp(a) => format!("tcp:{a}"),
        }
    }
}

struct Args {
    target: Option<Target>,
    clients: usize,
    out: PathBuf,
    quick: bool,
    failover: bool,
    expect_failover: bool,
    sweep: bool,
}

impl Args {
    /// The connect target (every mode but `--sweep-cores` has one).
    fn target(&self) -> &Target {
        self.target.as_ref().expect("target parsed")
    }
}

fn parse_args() -> Args {
    let mut unix: Option<PathBuf> = None;
    let mut tcp: Option<String> = None;
    let mut clients: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut quick = vaqem_bench::quick_mode();
    let mut failover = false;
    let mut expect_failover = false;
    let mut sweep = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--unix" => unix = Some(PathBuf::from(value("--unix"))),
            "--tcp" => tcp = Some(value("--tcp")),
            "--clients" => clients = Some(value("--clients").parse().expect("--clients: integer")),
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--quick" => quick = true,
            "--failover" => failover = true,
            "--expect-failover" => expect_failover = true,
            "--sweep-cores" => sweep = true,
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }
    assert!(
        failover || !expect_failover,
        "--expect-failover requires --failover"
    );
    assert!(
        !(sweep && failover),
        "--sweep-cores and --failover are mutually exclusive"
    );
    let target = match (unix, tcp) {
        (Some(path), None) => Some(Target::Unix(path)),
        (None, Some(addr)) => Some(Target::Tcp(addr)),
        (None, None) if sweep => None,
        _ if sweep => panic!("--sweep-cores boots its own daemons; drop --unix/--tcp"),
        _ => panic!("exactly one of --unix PATH or --tcp ADDR is required"),
    };
    // Full mode drives the acceptance floor of ≥500 concurrent clients;
    // quick mode is the CI smoke size. Failover clients are long-lived
    // session loops, so that mode runs far fewer of them.
    let clients = clients.unwrap_or(match (failover, quick) {
        (true, true) => 6,
        (true, false) => 24,
        (false, true) => 48,
        (false, false) => 600,
    });
    let out = out.unwrap_or_else(|| {
        if failover {
            PathBuf::from(
                std::env::var("BENCH_FAILOVER_OUT")
                    .unwrap_or_else(|_| "BENCH_failover.json".into()),
            )
        } else if sweep {
            PathBuf::from(
                std::env::var("BENCH_FLEET_OUT").unwrap_or_else(|_| "BENCH_fleet.json".into()),
            )
        } else {
            PathBuf::from(
                std::env::var("BENCH_RPC_OUT").unwrap_or_else(|_| "BENCH_rpc.json".into()),
            )
        }
    });
    Args {
        target,
        clients,
        out,
        quick,
        failover,
        expect_failover,
        sweep,
    }
}

/// What one client thread did.
#[derive(Default)]
struct TenantStats {
    completed: u64,
    quota_rejected: u64,
    errors: u64,
    hist: LatencyHistogram,
}

fn await_and_record(client: &mut RpcClient, token: u64, started: Instant, stats: &mut TenantStats) {
    match client.await_result(token) {
        Ok(Ok(_outcome)) => {
            stats.completed += 1;
            stats.hist.record_us(started.elapsed().as_secs_f64() * 1e6);
        }
        Ok(Err(SessionError::Quota(_))) => stats.quota_rejected += 1,
        Ok(Err(_)) | Err(_) => stats.errors += 1,
    }
}

fn run_tenant(target: &Target, index: usize, behavior: TenantBehavior) -> TenantStats {
    let mut stats = TenantStats::default();
    let slow_reader = index % 11 == 3;
    let mut client = target.connect_patiently();
    client
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("timeout set");
    let name = format!("{}-{index}", behavior.label());
    if client.open(&name).is_err() {
        stats.errors += 1;
        return stats;
    }
    let drain_delay = if slow_reader {
        // A slow reader: replies pile up server-side before this thread
        // gets around to draining them.
        Some(Duration::from_millis(150))
    } else {
        None
    };
    match behavior {
        TenantBehavior::Uniform => {
            for _ in 0..2 {
                let started = Instant::now();
                match client.submit(rpcload::request(1.0)) {
                    Ok(token) => {
                        if let Some(delay) = drain_delay {
                            std::thread::sleep(delay);
                        }
                        await_and_record(&mut client, token, started, &mut stats);
                    }
                    Err(_) => stats.errors += 1,
                }
                if client.poll().is_err() {
                    stats.errors += 1;
                }
            }
            let _ = client.shutdown();
        }
        TenantBehavior::Bursty | TenantBehavior::Greedy => {
            let mut tokens: Vec<(u64, Instant)> = Vec::new();
            for _ in 0..3 {
                match client.submit(rpcload::request(1.0)) {
                    Ok(token) => tokens.push((token, Instant::now())),
                    Err(_) => stats.errors += 1,
                }
            }
            if let Some(delay) = drain_delay {
                std::thread::sleep(delay);
            }
            for (token, started) in tokens {
                await_and_record(&mut client, token, started, &mut stats);
            }
            let _ = client.shutdown();
        }
        TenantBehavior::Churn => {
            // Submit, then vanish mid-frame: half a length-prefixed
            // frame followed by a hangup, with the session in flight.
            if client.submit(rpcload::request(1.0)).is_err() {
                stats.errors += 1;
            }
            let mut torn = 64u32.to_le_bytes().to_vec();
            torn.extend_from_slice(&[0x5A; 9]);
            let _ = client.send_raw(&torn);
            drop(client);
        }
    }
    stats
}

/// What one failover client thread did.
#[derive(Default)]
struct FailoverStats {
    completed: u64,
    completed_after_reconnect: u64,
    errors: u64,
    reconnects: u64,
    hist: LatencyHistogram,
}

/// One failover client: a session loop over a [`FailoverClient`],
/// riding through leader death. Runs until `stop` is raised (and a
/// floor of sessions is met) or the session cap is hit.
fn run_failover_tenant(
    target: FailoverTarget,
    index: usize,
    stop: &std::sync::atomic::AtomicBool,
    reconnects_seen: &std::sync::atomic::AtomicU64,
    after_reconnect: &std::sync::atomic::AtomicU64,
) -> FailoverStats {
    use std::sync::atomic::Ordering;

    const SESSION_FLOOR: u64 = 2;
    const SESSION_CAP: u64 = 500;

    let mut stats = FailoverStats::default();
    let mut client = match FailoverClient::connect(target, &format!("failover-{index}")) {
        Ok(client) => client,
        Err(_) => {
            stats.errors += 1;
            return stats;
        }
    };
    if client
        .set_read_timeout(Some(Duration::from_secs(600)))
        .is_err()
    {
        stats.errors += 1;
        return stats;
    }
    let mut sessions = 0u64;
    while sessions < SESSION_CAP {
        if stop.load(Ordering::Relaxed) && sessions >= SESSION_FLOOR {
            break;
        }
        let started = Instant::now();
        // Failover runs target a fleetd serving the *windowed* fixture
        // (the one with journal traffic for shipping); the request must
        // match its 3-qubit problem.
        let result = client
            .submit(rpcload::windowed_request(1.0))
            .and_then(|token| client.await_result(token));
        sessions += 1;
        match result {
            Ok(Ok(_outcome)) => {
                stats.completed += 1;
                stats.hist.record_us(started.elapsed().as_secs_f64() * 1e6);
                if client.reconnects() > 0 {
                    stats.completed_after_reconnect += 1;
                    after_reconnect.fetch_add(1, Ordering::Relaxed);
                }
            }
            // Quota rejections cannot happen here (identities are not
            // greedy-*), so any session error is a real failure.
            Ok(Err(_)) | Err(_) => stats.errors += 1,
        }
        let delta = client.reconnects().saturating_sub(stats.reconnects);
        if delta > 0 {
            stats.reconnects = client.reconnects();
            reconnects_seen.fetch_add(delta, Ordering::Relaxed);
        }
    }
    stats
}

/// The `--failover` mode: drive a replica pair through a leader death
/// (inflicted externally — the CI step `kill -9`s the leader) and gate
/// on lossless ride-through.
fn run_failover(args: &Args) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let seed = root_seed_from_env(DEFAULT_ROOT_SEED);
    println!(
        "loadgen: failover mode, {} clients against {}{}{} (seed {seed})",
        args.clients,
        args.target().label(),
        if args.quick { ", quick" } else { "" },
        if args.expect_failover {
            ", expecting a leader death"
        } else {
            ""
        },
    );
    let failover_target = match args.target() {
        Target::Unix(path) => FailoverTarget::Unix(path.clone()),
        Target::Tcp(addr) => FailoverTarget::Tcp(addr.clone()),
    };

    let stop = Arc::new(AtomicBool::new(false));
    let reconnects_seen = Arc::new(AtomicU64::new(0));
    let after_reconnect = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut handles = Vec::with_capacity(args.clients);
    for i in 0..args.clients {
        let target = failover_target.clone();
        let stop = Arc::clone(&stop);
        let reconnects_seen = Arc::clone(&reconnects_seen);
        let after_reconnect = Arc::clone(&after_reconnect);
        handles.push(std::thread::spawn(move || {
            run_failover_tenant(target, i, &stop, &reconnects_seen, &after_reconnect)
        }));
    }

    // Run until the gate condition is observable (or a hard cap): when
    // expecting a failover, keep the load on until at least one session
    // completed against the promoted leader; otherwise just let every
    // client clear its floor.
    let hard_cap = Duration::from_secs(180);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let satisfied = !args.expect_failover || after_reconnect.load(Ordering::Relaxed) > 0;
        if (started.elapsed() >= Duration::from_secs(2) && satisfied)
            || started.elapsed() >= hard_cap
        {
            stop.store(true, Ordering::Relaxed);
            break;
        }
    }

    let mut total = FailoverStats::default();
    for handle in handles {
        let stats = handle.join().expect("failover tenant thread");
        total.completed += stats.completed;
        total.completed_after_reconnect += stats.completed_after_reconnect;
        total.errors += stats.errors;
        total.reconnects += stats.reconnects;
        total.hist.merge(&stats.hist);
    }
    let elapsed = started.elapsed();

    let report = JsonValue::object([
        (
            "config",
            JsonValue::object([
                ("clients", JsonValue::Int(args.clients as i128)),
                ("target", JsonValue::Str(args.target().label())),
                ("quick", JsonValue::Bool(args.quick)),
                ("expect_failover", JsonValue::Bool(args.expect_failover)),
                ("seed", JsonValue::Int(seed as i128)),
            ]),
        ),
        ("latency", quantiles_json(&total.hist)),
        (
            "failover",
            JsonValue::object([
                (
                    "completed_sessions",
                    JsonValue::Int(total.completed as i128),
                ),
                (
                    "completed_after_reconnect",
                    JsonValue::Int(total.completed_after_reconnect as i128),
                ),
                ("reconnects", JsonValue::Int(total.reconnects as i128)),
                ("errors", JsonValue::Int(total.errors as i128)),
                ("elapsed_secs", JsonValue::Num(elapsed.as_secs_f64())),
            ]),
        ),
    ]);
    std::fs::write(&args.out, report.render_pretty(2)).expect("write BENCH_failover.json");

    println!(
        "loadgen: failover — {} sessions ({} after reconnect) in {:.1}s, \
         {} reconnects, {} errors, p50 {:.0}us p95 {:.0}us",
        total.completed,
        total.completed_after_reconnect,
        elapsed.as_secs_f64(),
        total.reconnects,
        total.errors,
        total.hist.quantile_us(0.50),
        total.hist.quantile_us(0.95),
    );
    println!("wrote {}", args.out.display());

    // The failover acceptance gate, asserted in-binary so the CI smoke
    // step cannot silently pass a broken replica pair.
    assert!(total.completed > 0, "sessions completed");
    assert_eq!(
        total.errors, 0,
        "no session lost: every submit was answered, across the failover"
    );
    if args.expect_failover {
        assert!(
            total.reconnects >= 1,
            "clients reconnected after the leader death"
        );
        assert!(
            total.completed_after_reconnect >= 1,
            "sessions completed against the promoted leader"
        );
    }
    println!("loadgen: all failover assertions passed");
}

/// One measured `--sweep-cores` point: a fresh in-process daemon at a
/// fixed worker-pool width, one pump/journal configuration.
struct SweepPoint {
    pump: &'static str,
    journal: &'static str,
    completed: u64,
    errors: u64,
    elapsed_secs: f64,
    sessions_per_hour: f64,
    pump_cpu_fraction: f64,
    idle_cpu_fraction: f64,
    pump_passes: u64,
    pump_wakeups: u64,
    hist: LatencyHistogram,
}

impl SweepPoint {
    fn to_json(&self, width: usize) -> JsonValue {
        JsonValue::object([
            ("pump", JsonValue::Str(self.pump.into())),
            ("journal", JsonValue::Str(self.journal.into())),
            ("completed_sessions", JsonValue::Int(self.completed as i128)),
            ("errors", JsonValue::Int(self.errors as i128)),
            ("elapsed_secs", JsonValue::Num(self.elapsed_secs)),
            ("sessions_per_hour", JsonValue::Num(self.sessions_per_hour)),
            (
                "sessions_per_hour_per_core",
                JsonValue::Num(self.sessions_per_hour / width as f64),
            ),
            ("pump_cpu_fraction", JsonValue::Num(self.pump_cpu_fraction)),
            (
                "idle_pump_cpu_fraction",
                JsonValue::Num(self.idle_cpu_fraction),
            ),
            ("pump_passes", JsonValue::Int(self.pump_passes as i128)),
            ("pump_wakeups", JsonValue::Int(self.pump_wakeups as i128)),
            ("latency", quantiles_json(&self.hist)),
        ])
    }
}

/// One closed-loop sweep client: submit/await as fast as the daemon
/// answers, until the point's measurement window closes.
fn run_sweep_tenant(
    target: &Target,
    index: usize,
    stop: &std::sync::atomic::AtomicBool,
) -> TenantStats {
    use std::sync::atomic::Ordering;

    let mut stats = TenantStats::default();
    let mut client = target.connect_patiently();
    client
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("timeout set");
    if client.open(&format!("sweep-{index}")).is_err() {
        stats.errors += 1;
        return stats;
    }
    while !stop.load(Ordering::Relaxed) {
        let started = Instant::now();
        match client.submit(rpcload::sweep_request(1.0)) {
            Ok(token) => await_and_record(&mut client, token, started, &mut stats),
            Err(_) => {
                stats.errors += 1;
                break;
            }
        }
    }
    let _ = client.shutdown();
    stats
}

/// Boots a daemon at `width` workers/devices under the given
/// pump/journal selection, drives closed-loop clients through the load
/// window, then measures an idle window, and tears everything down.
fn run_sweep_point(
    width: usize,
    pump: &'static str,
    journal: &'static str,
    seed: u64,
    load_window: Duration,
    idle_window: Duration,
) -> SweepPoint {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use vaqem_fleet_rpc::server::{RpcListener, RpcServer, RpcServerConfig};
    use vaqem_fleet_service::FleetService;
    use vaqem_mathkit::rng::SeedStream;

    // The selection knobs both layers read at open/serve time. The
    // sweep is single-threaded between points, so process-global env is
    // a safe way to reach them.
    std::env::set_var("VAQEM_RPC_PUMP", pump);
    std::env::set_var("VAQEM_JOURNAL_MODE", journal);
    let dir = std::env::temp_dir().join(format!(
        "vaqem-sweep-{}-w{width}-{pump}-{journal}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("sweep dir");
    let devices = (0..width)
        .map(|i| rpcload::windowed_device(i, seed))
        .collect();
    let service = FleetService::open(
        rpcload::sweep_service_config(dir.join("store"), width),
        devices,
        rpcload::windowed_problem(),
        SeedStream::new(seed),
    )
    .expect("sweep service opens");
    let socket = dir.join("sweep.sock");
    let listener = RpcListener::bind_unix(&socket).expect("unix socket binds");
    let server = RpcServer::serve(&service, listener, RpcServerConfig::default()).expect("serves");
    let serve_started = Instant::now();
    let target = Target::Unix(socket);

    // One closed-loop client per worker: each round trip crosses the
    // serving thread twice, so the serving stack's per-hop latency — not
    // queueing depth — is what the sessions/hour curve measures.
    let stop = Arc::new(AtomicBool::new(false));
    let clients = width;
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let target = target.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run_sweep_tenant(&target, i, &stop))
        })
        .collect();
    std::thread::sleep(load_window);
    stop.store(true, Ordering::Relaxed);
    let mut completed = 0u64;
    let mut errors = 0u64;
    let mut hist = LatencyHistogram::new();
    for handle in handles {
        let stats = handle.join().expect("sweep tenant thread");
        completed += stats.completed;
        errors += stats.errors + stats.quota_rejected; // no quotas here: any rejection is an error
        hist.merge(&stats.hist);
    }
    let elapsed = started.elapsed();

    // Serving-thread CPU under load (cumulative), then the idle window:
    // with no traffic, the epoll source blocks in the kernel while the
    // scan source keeps taking backoff-paced passes — the delta between
    // two quiet metrics fetches is the idle burn.
    let mut probe = target.connect_patiently();
    probe
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("timeout set");
    probe.open("sweep-probe").expect("daemon still accepting");
    let (loaded, _) = probe.metrics().expect("metrics over the wire");
    let idle_started = Instant::now();
    std::thread::sleep(idle_window);
    let (idle, _) = probe.metrics().expect("metrics over the wire");
    let idle_elapsed = idle_started.elapsed();
    let _ = probe.shutdown();
    server.stop();
    service.shutdown().expect("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);

    let pump_cpu_fraction =
        loaded.pump_cpu_micros as f64 / (serve_started.elapsed().as_secs_f64() * 1e6);
    let idle_cpu_fraction = idle.pump_cpu_micros.saturating_sub(loaded.pump_cpu_micros) as f64
        / (idle_elapsed.as_secs_f64() * 1e6);
    SweepPoint {
        pump,
        journal,
        completed,
        errors,
        elapsed_secs: elapsed.as_secs_f64(),
        sessions_per_hour: completed as f64 / elapsed.as_secs_f64() * 3600.0,
        pump_cpu_fraction,
        idle_cpu_fraction,
        pump_passes: idle.pump_passes,
        pump_wakeups: idle.pump_wakeups,
        hist,
    }
}

/// The host's core count, recorded in every report.
fn machine_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
}

/// The `--sweep-cores` mode: per-core scaling curves for the current
/// configuration against the legacy (scan source, per-record flush)
/// one, with in-binary gates. See the module docs.
fn run_sweep(args: &Args) {
    let seed = root_seed_from_env(DEFAULT_ROOT_SEED);
    let max_cores = machine_cores();
    let widths: Vec<usize> = if args.quick {
        vec![1, 2]
    } else {
        // Powers of two up to the core count — floored at 4 so a small
        // machine still draws a curve (the oversubscribed tail is flat
        // but informative), capped at 8 so a many-core one finishes in
        // minutes.
        let mut widths = Vec::new();
        let mut w = 1;
        while w <= max_cores.clamp(4, 8) {
            widths.push(w);
            w *= 2;
        }
        widths
    };
    let (load_window, idle_window) = if args.quick {
        (Duration::from_millis(1500), Duration::from_millis(600))
    } else {
        (Duration::from_secs(6), Duration::from_millis(2500))
    };
    println!(
        "loadgen: core sweep over widths {widths:?}{} (seed {seed}, {max_cores} cores)",
        if args.quick { ", quick" } else { "" },
    );

    // The current configuration matches the daemon defaults; naming
    // both ends of each axis keeps the points self-describing.
    let current = ("epoll", "group");
    let legacy = ("poll", "per_record");
    let mut rows = Vec::new();
    for &width in &widths {
        let cur = run_sweep_point(width, current.0, current.1, seed, load_window, idle_window);
        let leg = run_sweep_point(width, legacy.0, legacy.1, seed, load_window, idle_window);
        let ratio = cur.sessions_per_hour / leg.sessions_per_hour.max(1e-9);
        println!(
            "loadgen: width {width} — current {:.0}/h (pump {:.1}% busy, {:.2}% idle), \
             legacy {:.0}/h (pump {:.1}% busy, {:.2}% idle), ratio {ratio:.2}x",
            cur.sessions_per_hour,
            cur.pump_cpu_fraction * 100.0,
            cur.idle_cpu_fraction * 100.0,
            leg.sessions_per_hour,
            leg.pump_cpu_fraction * 100.0,
            leg.idle_cpu_fraction * 100.0,
        );
        rows.push((width, cur, leg, ratio));
    }

    // The gate point: the widest width that still fits in physical
    // cores. Beyond that the comparison stops isolating the serving
    // stack — an oversubscribed scan source's backoff sleeps double as
    // involuntary yields to the starved workers, flattering legacy.
    let gate_idx = rows
        .iter()
        .rposition(|(w, _, _, _)| *w <= max_cores)
        .unwrap_or(0);
    let (gate_width, cur_at_gate, leg_at_gate, gate_ratio) = &rows[gate_idx];
    let (gate_width, gate_ratio) = (*gate_width, *gate_ratio);
    let report = JsonValue::object([
        (
            "config",
            JsonValue::object([
                ("quick", JsonValue::Bool(args.quick)),
                ("seed", JsonValue::Int(seed as i128)),
                ("machine_cores", JsonValue::Int(max_cores as i128)),
                (
                    "widths",
                    JsonValue::array(widths.iter().map(|&w| JsonValue::Int(w as i128))),
                ),
                ("clients_per_worker", JsonValue::Int(1)),
                (
                    "load_window_secs",
                    JsonValue::Num(load_window.as_secs_f64()),
                ),
                (
                    "idle_window_secs",
                    JsonValue::Num(idle_window.as_secs_f64()),
                ),
                ("fixture", JsonValue::Str("sweep_3q_windowed_light".into())),
            ]),
        ),
        (
            "sweep",
            JsonValue::array(rows.iter().map(|(width, cur, leg, ratio)| {
                JsonValue::object([
                    ("workers", JsonValue::Int(*width as i128)),
                    ("current", cur.to_json(*width)),
                    ("legacy", leg.to_json(*width)),
                    ("improvement_ratio", JsonValue::Num(*ratio)),
                ])
            })),
        ),
        (
            "summary",
            JsonValue::object([
                ("gate_width", JsonValue::Int(gate_width as i128)),
                ("gate_improvement_ratio", JsonValue::Num(gate_ratio)),
                (
                    "current_idle_pump_cpu_fraction",
                    JsonValue::Num(cur_at_gate.idle_cpu_fraction),
                ),
                (
                    "legacy_idle_pump_cpu_fraction",
                    JsonValue::Num(leg_at_gate.idle_cpu_fraction),
                ),
            ]),
        ),
    ]);
    std::fs::write(&args.out, report.render_pretty(2)).expect("write BENCH_fleet.json");
    println!("wrote {}", args.out.display());

    // The in-binary gates (see the module docs).
    for (width, cur, leg, _) in &rows {
        assert!(
            cur.completed > 0,
            "width {width}: current point completed sessions"
        );
        assert!(
            leg.completed > 0,
            "width {width}: legacy point completed sessions"
        );
        assert_eq!(
            cur.errors + leg.errors,
            0,
            "width {width}: no errors in either point"
        );
    }
    if !args.quick {
        assert!(
            gate_ratio >= 1.3,
            "current configuration is ≥1.3x legacy at width {gate_width} (got {gate_ratio:.2}x)"
        );
        if cfg!(target_os = "linux") {
            assert!(
                cur_at_gate.idle_cpu_fraction < leg_at_gate.idle_cpu_fraction,
                "readiness pump idles cheaper than the polling fallback \
                 ({:.4} vs {:.4})",
                cur_at_gate.idle_cpu_fraction,
                leg_at_gate.idle_cpu_fraction
            );
        }
    }
    if let Ok(baseline_path) = std::env::var("BENCH_FLEET_BASELINE") {
        // The committed baseline's gate ratio, extracted the same way
        // the simulator gate reads its baseline file. Compared against
        // this run's *best* width ratio: runners differ in core count,
        // so the width the committed gate landed on may not be the
        // width where this machine shows the effect most cleanly.
        let baseline = std::fs::read_to_string(&baseline_path).expect("read fleet baseline");
        let base_ratio: f64 = baseline
            .lines()
            .find_map(|line| line.trim().strip_prefix("\"gate_improvement_ratio\": "))
            .expect("gate_improvement_ratio in baseline")
            .trim_end_matches(',')
            .parse()
            .expect("baseline ratio parses");
        let best_ratio = rows.iter().map(|(_, _, _, r)| *r).fold(0.0, f64::max);
        assert!(
            best_ratio >= 0.75 * base_ratio,
            "sessions/hour improvement ratio regressed >25% vs the committed \
             baseline ({best_ratio:.2}x measured, {base_ratio:.2}x committed)"
        );
        println!(
            "loadgen: baseline gate — best ratio {best_ratio:.2}x vs committed \
             {base_ratio:.2}x (floor {:.2}x)",
            0.75 * base_ratio
        );
    }
    println!("loadgen: all sweep assertions passed");
}

fn quantiles_json(hist: &LatencyHistogram) -> JsonValue {
    JsonValue::object([
        ("count", JsonValue::Int(hist.count() as i128)),
        ("p50_us", JsonValue::Num(hist.quantile_us(0.50))),
        ("p95_us", JsonValue::Num(hist.quantile_us(0.95))),
        ("p99_us", JsonValue::Num(hist.quantile_us(0.99))),
        ("mean_us", JsonValue::Num(hist.mean_us())),
        ("min_us", JsonValue::Num(hist.min_us())),
        ("max_us", JsonValue::Num(hist.max_us())),
    ])
}

fn main() {
    let args = parse_args();
    if args.sweep {
        run_sweep(&args);
        return;
    }
    if args.failover {
        run_failover(&args);
        return;
    }
    let seed = root_seed_from_env(DEFAULT_ROOT_SEED);
    println!(
        "loadgen: {} clients against {}{} (seed {seed})",
        args.clients,
        args.target().label(),
        if args.quick { ", quick" } else { "" },
    );

    let started = Instant::now();
    let mut handles = Vec::with_capacity(args.clients);
    for i in 0..args.clients {
        let target = args.target().clone();
        let behavior = TenantBehavior::ALL[i % TenantBehavior::ALL.len()];
        handles.push(std::thread::spawn(move || {
            (behavior, run_tenant(&target, i, behavior))
        }));
        if i % 32 == 31 {
            // Soften the connect storm just enough that the kernel's
            // accept backlog is pressure, not a brick wall.
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let mut hist = LatencyHistogram::new();
    let mut by_behavior: HashMap<&'static str, TenantStats> = HashMap::new();
    let (mut completed, mut quota_rejected, mut errors) = (0u64, 0u64, 0u64);
    for handle in handles {
        let (behavior, stats) = handle.join().expect("tenant thread");
        completed += stats.completed;
        quota_rejected += stats.quota_rejected;
        errors += stats.errors;
        hist.merge(&stats.hist);
        let entry = by_behavior.entry(behavior.label()).or_default();
        entry.completed += stats.completed;
        entry.quota_rejected += stats.quota_rejected;
        entry.errors += stats.errors;
        entry.hist.merge(&stats.hist);
    }
    let elapsed = started.elapsed();

    // The quiescence probe: after all the churn, a fresh tenant must
    // still get a session through promptly — the daemon survived its
    // slow readers and mid-stream disconnects without stalling.
    let mut probe = args.target().connect_patiently();
    probe
        .set_read_timeout(Some(Duration::from_secs(600)))
        .expect("timeout set");
    probe.open("probe").expect("daemon still accepting");
    let probe_started = Instant::now();
    let token = probe.submit(rpcload::request(2.0)).expect("probe submits");
    probe
        .await_result(token)
        .expect("probe reply")
        .expect("probe session completes");
    let probe_us = probe_started.elapsed().as_secs_f64() * 1e6;
    let (rpc, _report_json) = probe.metrics().expect("metrics over the wire");
    let _ = probe.shutdown();

    let sessions_per_hour = completed as f64 / elapsed.as_secs_f64() * 3600.0;
    let report = JsonValue::object([
        (
            "config",
            JsonValue::object([
                ("clients", JsonValue::Int(args.clients as i128)),
                ("target", JsonValue::Str(args.target().label())),
                ("quick", JsonValue::Bool(args.quick)),
                ("seed", JsonValue::Int(seed as i128)),
                ("machine_cores", JsonValue::Int(machine_cores() as i128)),
            ]),
        ),
        ("latency", quantiles_json(&hist)),
        (
            "throughput",
            JsonValue::object([
                ("completed_sessions", JsonValue::Int(completed as i128)),
                ("quota_rejections", JsonValue::Int(quota_rejected as i128)),
                ("errors", JsonValue::Int(errors as i128)),
                ("elapsed_secs", JsonValue::Num(elapsed.as_secs_f64())),
                ("sessions_per_hour", JsonValue::Num(sessions_per_hour)),
                ("probe_latency_us", JsonValue::Num(probe_us)),
            ]),
        ),
        (
            "tenants",
            JsonValue::object(TenantBehavior::ALL.map(|b| {
                let stats = by_behavior.remove(b.label()).unwrap_or_default();
                (
                    b.label(),
                    JsonValue::object([
                        ("completed", JsonValue::Int(stats.completed as i128)),
                        (
                            "quota_rejections",
                            JsonValue::Int(stats.quota_rejected as i128),
                        ),
                        ("errors", JsonValue::Int(stats.errors as i128)),
                        ("latency", quantiles_json(&stats.hist)),
                    ]),
                )
            })),
        ),
        ("rpc", rpc.to_json()),
    ]);
    std::fs::write(&args.out, report.render_pretty(2)).expect("write BENCH_rpc.json");

    println!(
        "loadgen: {completed} sessions in {:.1}s ({sessions_per_hour:.0}/hour), \
         p50 {:.0}us p95 {:.0}us p99 {:.0}us, {quota_rejected} quota rejections, \
         {errors} errors, probe {probe_us:.0}us",
        elapsed.as_secs_f64(),
        hist.quantile_us(0.50),
        hist.quantile_us(0.95),
        hist.quantile_us(0.99),
    );
    println!(
        "loadgen: server counters — {} frames in / {} out, {} decode errors, \
         {} overload rejections, {} connections accepted",
        rpc.frames_in,
        rpc.frames_out,
        rpc.decode_errors,
        rpc.overload_rejections,
        rpc.connections_accepted
    );
    println!("wrote {}", args.out.display());

    // The acceptance gate, asserted in-binary so the CI smoke step
    // cannot silently pass a broken front-end.
    assert_eq!(rpc.decode_errors, 0, "server decoded every frame we sent");
    assert!(completed > 0, "sessions completed under load");
    assert!(
        quota_rejected > 0,
        "greedy probers bounced off the typed quota"
    );
    assert_eq!(errors, 0, "no untyped failures anywhere");
    let n = |label: &str| {
        (0..args.clients)
            .filter(|i| i % 4 == label_index(label))
            .count() as u64
    };
    fn label_index(label: &str) -> usize {
        TenantBehavior::ALL
            .iter()
            .position(|b| b.label() == label)
            .expect("known label")
    }
    assert_eq!(
        by_behavior_total(&report, "uniform"),
        2 * n("uniform"),
        "every uniform session completed"
    );
    assert_eq!(
        by_behavior_total(&report, "bursty"),
        3 * n("bursty"),
        "every bursty session completed"
    );
    println!("loadgen: all in-binary assertions passed");
}

/// Reads `tenants.<label>.completed` back out of the report document.
fn by_behavior_total(report: &JsonValue, label: &str) -> u64 {
    let JsonValue::Object(fields) = report else {
        unreachable!("report is an object")
    };
    let tenants = &fields
        .iter()
        .find(|(k, _)| k == "tenants")
        .expect("tenants section")
        .1;
    let JsonValue::Object(tenants) = tenants else {
        unreachable!("tenants is an object")
    };
    let entry = &tenants
        .iter()
        .find(|(k, _)| k == label)
        .expect("behavior entry")
        .1;
    let JsonValue::Object(entry) = entry else {
        unreachable!("behavior entry is an object")
    };
    match entry.iter().find(|(k, _)| k == "completed") {
        Some((_, JsonValue::Int(n))) => *n as u64,
        _ => 0,
    }
}
