//! The grid engine: cell construction, the per-cell daemon lifecycle,
//! and the tenant-phase drivers.
//!
//! One cell = one fresh daemon over two devices of the cell's class at
//! the workload's width, driven through the canonical lifecycle:
//!
//! 1. **cold round** — every round client tunes from an empty store;
//! 2. **warm round** — the same clients at the same request clock, so
//!    every fingerprint can warm-start (asserts warm < cold, and full
//!    warm hits must adopt the cold configs exactly);
//! 3. **kill** — `halt()` leaves the journal as the only record —
//!    then a reopen replays it;
//! 4. **recovery round** — the warm-hit rate must survive the restart;
//! 5. **tenant phase** — the cell's [`TenantBehavior`] contends on
//!    device 0 (asserts the fair queue's starvation bound, plus the
//!    behavior's own contract: typed quota rejection, churn quiescence);
//! 6. **final audit** — `metrics_report()` must show a fully drained
//!    quota ledger whose per-client `completed + rejected` matches the
//!    harness's submission log.
//!
//! Every request uses the same `t_hours = 1.0` clock, pinning all
//! rounds inside one calibration epoch of both device classes: the
//! matrix verifies the *service* invariants; drift-epoch invalidation
//! has its own dedicated replays and tests.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use crate::invariant::{
    fair_window, quota_accounting, restart_recovery, starvation_bound, warm_cheaper_than_cold,
    warm_cold_parity, InvariantOutcome,
};
use crate::report::{CellReport, MatrixReport};
use crate::tenant::TenantBehavior;
use vaqem::pipeline::tune_angles;
use vaqem::vqe::VqeProblem;
use vaqem::window_tuner::WindowTunerConfig;
use vaqem::workloads::ScenarioWorkload;
use vaqem_device::classes::DeviceClass;
use vaqem_fleet_service::{
    ClientQuota, DeviceSpec, FleetService, FleetServiceConfig, QuotaError, SessionError,
    SessionKind, SessionOutcome, SessionRequest, SessionResult, TenancyConfig,
};
use vaqem_mathkit::rng::SeedStream;
use vaqem_optim::spsa::SpsaConfig;
use vaqem_runtime::BatchDispatch;

/// The declarative grid: axes plus the per-cell tuner/simulator sizing.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Workload axis.
    pub workloads: Vec<ScenarioWorkload>,
    /// Device-class axis (each cell instantiates two devices of its
    /// class at the workload's width).
    pub classes: Vec<DeviceClass>,
    /// Tenant-behavior axis.
    pub tenants: Vec<TenantBehavior>,
    /// Shots per objective evaluation.
    pub shots: u64,
    /// Tuner sweep resolution (candidates per window knob).
    pub sweep_resolution: usize,
    /// Tuner DD-repetition ceiling.
    pub max_repetitions: usize,
    /// Guard re-evaluations per acceptance decision.
    pub guard_repeats: usize,
    /// SPSA iterations for the once-per-workload angle tuning (the
    /// Fig. 8 transfer: guard verdicts only reflect physics at tuned
    /// angles, so every cell tunes mitigation under them).
    pub spsa_iterations: usize,
    /// Root seed every stream (devices, trajectories, drift) derives
    /// from. Scanned per entry point; override via `VAQEM_SEED`.
    pub root_seed: u64,
    /// Directory the per-cell stores are created under (each cell uses
    /// and then removes its own subdirectory).
    pub store_root: PathBuf,
    /// Grid-shape label for the report (`full` / `quick`).
    pub mode: String,
    /// Print one progress line per completed cell to stderr (for the
    /// long-running replay binary; tests leave it off).
    pub progress: bool,
}

impl MatrixConfig {
    /// The full acceptance grid: 4 workloads x 2 device classes x 4
    /// tenant behaviors = 32 cells, from 3-qubit rings to the 6-qubit
    /// TFIM and the deep 4-qubit ansatz.
    pub fn full(root_seed: u64, store_root: PathBuf) -> Self {
        MatrixConfig {
            workloads: vec![
                ScenarioWorkload::TfimSu2 { qubits: 6, reps: 2 },
                ScenarioWorkload::H2Ucc,
                ScenarioWorkload::TfimSu2 { qubits: 4, reps: 4 },
                ScenarioWorkload::QaoaRing {
                    qubits: 4,
                    layers: 2,
                },
            ],
            classes: DeviceClass::ALL.to_vec(),
            tenants: TenantBehavior::ALL.to_vec(),
            shots: 192,
            sweep_resolution: 3,
            max_repetitions: 4,
            guard_repeats: 2,
            spsa_iterations: 50,
            root_seed,
            store_root,
            mode: "full".to_string(),
            progress: false,
        }
    }

    /// The reduced CI/test grid: 2 small workloads x 2 classes x all 4
    /// tenant behaviors = 16 cells at smoke-test sizes.
    pub fn quick(root_seed: u64, store_root: PathBuf) -> Self {
        MatrixConfig {
            workloads: vec![
                ScenarioWorkload::TfimSu2 { qubits: 3, reps: 1 },
                ScenarioWorkload::QaoaRing {
                    qubits: 3,
                    layers: 1,
                },
            ],
            classes: DeviceClass::ALL.to_vec(),
            tenants: TenantBehavior::ALL.to_vec(),
            shots: 128,
            sweep_resolution: 2,
            max_repetitions: 4,
            guard_repeats: 2,
            spsa_iterations: 30,
            root_seed,
            store_root,
            mode: "quick".to_string(),
            progress: false,
        }
    }

    /// Number of grid cells.
    pub fn cells(&self) -> usize {
        self.workloads.len() * self.classes.len() * self.tenants.len()
    }
}

/// Runs the whole grid, workload-major. Always completes every cell —
/// invariant violations are recorded in the report, not panicked — so a
/// red grid still yields the full artifact.
///
/// # Errors
///
/// Returns an error only on harness-level failures: an unbuildable
/// workload, store I/O, or a dead daemon.
pub fn run_matrix(config: &MatrixConfig) -> io::Result<MatrixReport> {
    let mut cells = Vec::with_capacity(config.cells());
    for workload in &config.workloads {
        let problem = workload
            .problem()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        // Angles are tuned once per workload against the ideal
        // objective and shared by every client in every cell (the
        // paper's Fig. 8 transfer): the mitigation stage is the
        // recurring per-client cost the daemon amortizes, and guard
        // verdicts only reflect physics at tuned angles.
        let spsa = SpsaConfig::paper_default().with_iterations(config.spsa_iterations);
        let (params, _) = tune_angles(&problem, &spsa, &SeedStream::new(config.root_seed))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        for class in &config.classes {
            for tenant in &config.tenants {
                let started = Instant::now();
                let cell = run_cell(config, *workload, &problem, &params, *class, *tenant)?;
                if config.progress {
                    eprintln!(
                        "  [{:>2}/{}] {} {} ({:.1}s)",
                        cells.len() + 1,
                        config.cells(),
                        cell.key(),
                        if cell.pass() { "ok" } else { "FAIL" },
                        started.elapsed().as_secs_f64(),
                    );
                    for i in cell.invariants.iter().filter(|i| !i.pass) {
                        eprintln!("         !! {}: {}", i.name, i.detail);
                    }
                }
                cells.push(cell);
            }
        }
    }
    Ok(MatrixReport {
        root_seed: config.root_seed,
        mode: config.mode.clone(),
        cells,
    })
}

/// The per-round client labels: one per device, pinned.
const ROUND_CLIENTS: [&str; 2] = ["round-a", "round-b"];
/// Sessions the churn phase leaves unobserved (the disconnected
/// tenant's) must still complete within this window.
const CHURN_QUIESCE_TIMEOUT: Duration = Duration::from_secs(120);

struct Round {
    outcomes: Vec<SessionOutcome>,
}

impl Round {
    fn minutes(&self) -> f64 {
        self.outcomes.iter().map(|o| o.minutes).sum()
    }
    fn hits(&self) -> usize {
        self.outcomes.iter().map(|o| o.hits).sum()
    }
    fn misses(&self) -> usize {
        self.outcomes.iter().map(|o| o.misses).sum()
    }
    fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// The harness's submission log, audited against the quota ledger at
/// the end of the cell.
#[derive(Default)]
struct SubmissionLog {
    counts: HashMap<String, u64>,
}

impl SubmissionLog {
    fn note(&mut self, client: &str) {
        *self.counts.entry(client.to_string()).or_insert(0) += 1;
    }
    fn sorted(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self.counts.iter().map(|(c, n)| (c.clone(), *n)).collect();
        v.sort();
        v
    }
}

fn submit(
    service: &FleetService,
    log: &mut SubmissionLog,
    client: &str,
    device: usize,
    params: &[f64],
) -> Receiver<SessionResult> {
    log.note(client);
    service.submit(SessionRequest {
        client: client.to_string(),
        t_hours: 1.0,
        params: params.to_vec(),
        device: Some(device),
        kind: SessionKind::Dd,
    })
}

fn recv_outcome(rx: Receiver<SessionResult>) -> io::Result<SessionOutcome> {
    rx.recv()
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "fleet worker died"))?
        .map_err(|e| io::Error::other(format!("session failed: {e}")))
}

/// One uniform round: each round client submits once, pinned to its own
/// device, so the two sessions run concurrently but deterministically.
fn run_round(service: &FleetService, log: &mut SubmissionLog, params: &[f64]) -> io::Result<Round> {
    let rxs: Vec<_> = ROUND_CLIENTS
        .iter()
        .enumerate()
        .map(|(i, c)| submit(service, log, c, i, params))
        .collect();
    let outcomes = rxs
        .into_iter()
        .map(recv_outcome)
        .collect::<io::Result<Vec<_>>>()?;
    Ok(Round { outcomes })
}

fn fleet_config(
    config: &MatrixConfig,
    workload: &ScenarioWorkload,
    tenant: TenantBehavior,
    store_dir: PathBuf,
) -> FleetServiceConfig {
    let tenancy = TenancyConfig {
        // The greedy cell's probing tenant is capped at two in-flight
        // sessions; every other client in every cell is unlimited.
        quotas: match tenant {
            TenantBehavior::Greedy => vec![(
                "greedy".to_string(),
                ClientQuota {
                    max_in_flight: 2,
                    minutes_per_epoch: f64::INFINITY,
                },
            )],
            _ => Vec::new(),
        },
        ..TenancyConfig::default()
    };
    FleetServiceConfig {
        store_dir,
        shards: 4,
        capacity_per_shard: 256,
        shots: config.shots,
        tuner: WindowTunerConfig {
            sweep_resolution: config.sweep_resolution,
            max_repetitions: config.max_repetitions,
            guard_repeats: config.guard_repeats,
            ..WindowTunerConfig::default()
        },
        circuit_ns: 12_000.0,
        estimate_windows: workload.windows_hint(),
        dispatch: BatchDispatch::local(4),
        tenancy,
    }
}

/// Runs one grid cell end to end. Harness-level failures (I/O, dead
/// workers) error out; invariant violations land in the report.
fn run_cell(
    config: &MatrixConfig,
    workload: ScenarioWorkload,
    problem: &VqeProblem,
    params: &[f64],
    class: DeviceClass,
    tenant: TenantBehavior,
) -> io::Result<CellReport> {
    let n = workload.num_qubits();
    // One root stream for every cell: cells sharing (workload, class)
    // see identical devices and trajectories, so the tenant axis varies
    // *only* tenant behavior.
    let seeds = SeedStream::new(config.root_seed);
    let devices: Vec<DeviceSpec> = ["a", "b"]
        .iter()
        .map(|suffix| {
            let name = format!("{}-{suffix}", class.label());
            DeviceSpec {
                model: class.device(&name, n),
                drift: class.drift(seeds.substream(&format!("drift-{name}"))),
                name,
            }
        })
        .collect();
    let store_dir = config.store_root.join(format!(
        "{}-{}-{}",
        workload.label(),
        class.label(),
        tenant.label()
    ));
    let _ = std::fs::remove_dir_all(&store_dir);
    let fleet = fleet_config(config, &workload, tenant, store_dir.clone());

    // The quota ledger is per-process state (it dies with the kill), so
    // each process gets its own submission log and its own audit.
    let mut log = SubmissionLog::default();
    let mut invariants: Vec<InvariantOutcome> = Vec::new();

    // ---- process 1: cold + warm, then an abrupt kill ----
    let service = FleetService::open(fleet.clone(), devices.clone(), problem.clone(), seeds)?;
    let cold = run_round(&service, &mut log, params)?;
    let warm = run_round(&service, &mut log, params)?;
    invariants.push(warm_cheaper_than_cold(cold.minutes(), warm.minutes()));

    // Guard-accepted warm == cold parity: a *full* warm hit (no misses,
    // guard accepted) adopts the cached choice verbatim, so its config
    // must equal the one its client's cold session tuned and stored.
    let cold_configs: HashMap<&str, _> = cold
        .outcomes
        .iter()
        .map(|o| (o.client.as_str(), &o.config))
        .collect();
    let (mut comparisons, mut mismatches) = (0, 0);
    for o in &warm.outcomes {
        if o.misses == 0 && !o.guard_rejected && o.hits > 0 {
            comparisons += 1;
            if cold_configs.get(o.client.as_str()) != Some(&&o.config) {
                mismatches += 1;
            }
        }
    }
    invariants.push(warm_cold_parity(comparisons, mismatches));

    // Audit the pre-kill ledger before it dies with the process.
    let mut pre_kill = quota_accounting(&service.metrics_report(), &log.sorted());
    pre_kill.detail = format!("pre-kill ledger: {}", pre_kill.detail);
    service.halt();

    // ---- process 2: journal-replay recovery + the tenant phase ----
    let service = FleetService::open(fleet, devices, problem.clone(), seeds)?;
    let recovered = {
        let r = service.store().recovery();
        r.journal_records + r.snapshot_entries
    };
    let mut log = SubmissionLog::default();
    let recovery = run_round(&service, &mut log, params)?;
    invariants.push(restart_recovery(
        recovered as u64,
        warm.hit_rate(),
        recovery.hits(),
        recovery.hit_rate(),
    ));

    invariants.extend(run_tenant_phase(&service, tenant, params, &mut log)?);

    // ---- final audit ----
    let metrics = service.metrics_report();
    let mut post = quota_accounting(&metrics, &log.sorted());
    post.detail = format!("final ledger: {}", post.detail);
    invariants.push(InvariantOutcome::new(
        "quota_accounting",
        pre_kill.pass && post.pass,
        format!("{}; {}", pre_kill.detail, post.detail),
    ));
    let sessions = service.sessions_completed();
    service.shutdown()?;
    let _ = std::fs::remove_dir_all(&store_dir);

    Ok(CellReport {
        workload: workload.label(),
        device_class: class.label().to_string(),
        tenant: tenant.label().to_string(),
        qubits: n,
        cold_min: cold.minutes(),
        warm_min: warm.minutes(),
        recovery_min: recovery.minutes(),
        warm_hits: warm.hits(),
        warm_misses: warm.misses(),
        recovery_hits: recovery.hits(),
        recovery_misses: recovery.misses(),
        sessions,
        invariants,
        metrics,
    })
}

/// Recovers the contention device's completion order from the observed
/// outcomes' global sequence stamps (0-based completion indices).
/// `base` is `sessions_completed()` before the phase; positions in
/// `base .. base + total` not held by an observed outcome are
/// attributed to `unobserved` (the disconnected tenant in the churn
/// cell — the device serializes, so the gap positions are necessarily
/// its completions).
fn completion_order(
    observed: &[(String, u64)],
    base: u64,
    total: usize,
    unobserved: Option<&str>,
) -> Vec<String> {
    let by_seq: HashMap<u64, &str> = observed.iter().map(|(c, s)| (*s, c.as_str())).collect();
    (base..base + total as u64)
        .map(|seq| {
            by_seq
                .get(&seq)
                .map(|c| c.to_string())
                .unwrap_or_else(|| unobserved.unwrap_or("<missing>").to_string())
        })
        .collect()
}

/// Drives the cell's tenant behavior against device 0 and returns the
/// behavior's invariant verdicts (always including the starvation
/// bound over the phase's completion order, plus the fair window in the
/// bursty cells).
fn run_tenant_phase(
    service: &FleetService,
    tenant: TenantBehavior,
    params: &[f64],
    log: &mut SubmissionLog,
) -> io::Result<Vec<InvariantOutcome>> {
    let base = service.sessions_completed() as u64;
    let mut invariants = Vec::new();
    match tenant {
        TenantBehavior::Uniform => {
            let clients = ["ten-a", "ten-b", "ten-c"];
            let mut rxs = Vec::with_capacity(6);
            for _ in 0..2 {
                for c in &clients {
                    rxs.push(submit(service, log, c, 0, params));
                }
            }
            let observed = await_labelled(rxs)?;
            let order = completion_order(&observed, base, observed.len(), None);
            let submitted: Vec<(String, usize)> =
                clients.iter().map(|c| (c.to_string(), 2)).collect();
            invariants.push(starvation_bound(&order, &submitted));
        }
        TenantBehavior::Bursty => {
            // The heavy backlog is fully enqueued before any light
            // tenant arrives — the adversarial case for FIFO.
            let heavy: Vec<_> = (0..4)
                .map(|_| submit(service, log, "heavy", 0, params))
                .collect();
            let lights = ["light-a", "light-b", "light-c"];
            let light_rxs: Vec<_> = lights
                .iter()
                .map(|c| submit(service, log, c, 0, params))
                .collect();
            let observed = await_labelled(heavy.into_iter().chain(light_rxs).collect())?;
            let order = completion_order(&observed, base, observed.len(), None);
            let submitted: Vec<(String, usize)> = std::iter::once(("heavy".to_string(), 4))
                .chain(lights.iter().map(|c| (c.to_string(), 1)))
                .collect();
            invariants.push(starvation_bound(&order, &submitted));
            invariants.push(fair_window(&order, &submitted, "heavy"));
        }
        TenantBehavior::Greedy => {
            // A blocker occupies the device so the greedy burst queues;
            // its third submission exceeds the in-flight cap of 2.
            let blocker = submit(service, log, "blocker", 0, params);
            let greedy_rxs: Vec<_> = (0..3)
                .map(|_| submit(service, log, "greedy", 0, params))
                .collect();
            let mut results: Vec<SessionResult> = Vec::new();
            for rx in greedy_rxs {
                results.push(
                    rx.recv().map_err(|_| {
                        io::Error::new(io::ErrorKind::BrokenPipe, "fleet worker died")
                    })?,
                );
            }
            let rejection = match (&results[0], &results[1], &results[2]) {
                (
                    Ok(_),
                    Ok(_),
                    Err(SessionError::Quota(QuotaError::InFlightExceeded { limit: 2, .. })),
                ) => InvariantOutcome::new(
                    "quota_rejection",
                    true,
                    "third greedy submission bounced off the in-flight cap of 2; \
                     both admitted sessions completed",
                ),
                other => InvariantOutcome::new(
                    "quota_rejection",
                    false,
                    format!("expected (ok, ok, InFlightExceeded cap 2), got {other:?}"),
                ),
            };
            invariants.push(rejection);
            let blocker_outcome = recv_outcome(blocker)?;
            let mut observed: Vec<(String, u64)> = results
                .into_iter()
                .filter_map(|r| r.ok())
                .map(|o| (o.client, o.sequence))
                .collect();
            observed.push((blocker_outcome.client, blocker_outcome.sequence));
            let order = completion_order(&observed, base, observed.len(), None);
            invariants.push(starvation_bound(
                &order,
                &[("blocker".to_string(), 1), ("greedy".to_string(), 2)],
            ));
        }
        TenantBehavior::Churn => {
            // drop-b disconnects mid-stream: its reply channels are
            // dropped on the floor the moment it submits.
            let mut kept: Vec<Receiver<SessionResult>> = Vec::new();
            for _ in 0..2 {
                kept.push(submit(service, log, "stay-a", 0, params));
                drop(submit(service, log, "drop-b", 0, params));
                kept.push(submit(service, log, "stay-c", 0, params));
            }
            let observed = await_labelled(kept)?;
            // The disconnected tenant's sessions still run to
            // completion: wait for the device to drain all 6.
            let target = base + 6;
            let deadline = Instant::now() + CHURN_QUIESCE_TIMEOUT;
            while (service.sessions_completed() as u64) < target && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            let quiesced = service.sessions_completed() as u64 >= target;
            // A late joiner after the churn must be served normally.
            let late = recv_outcome(submit(service, log, "late-d", 0, params));
            invariants.push(InvariantOutcome::new(
                "churn_quiesced",
                quiesced && late.is_ok(),
                if quiesced {
                    "disconnected tenant's sessions completed; late joiner served".to_string()
                } else {
                    format!(
                        "device stuck at {} of {target} completions after {:?}",
                        service.sessions_completed(),
                        CHURN_QUIESCE_TIMEOUT
                    )
                },
            ));
            late?;
            let order = completion_order(&observed, base, 6, Some("drop-b"));
            let submitted: Vec<(String, usize)> = ["stay-a", "drop-b", "stay-c"]
                .iter()
                .map(|c| (c.to_string(), 2))
                .collect();
            invariants.push(starvation_bound(&order, &submitted));
        }
    }
    Ok(invariants)
}

/// Awaits every receiver, returning `(client, sequence)` pairs.
fn await_labelled(rxs: Vec<Receiver<SessionResult>>) -> io::Result<Vec<(String, u64)>> {
    rxs.into_iter()
        .map(|rx| recv_outcome(rx).map(|o| (o.client, o.sequence)))
        .collect()
}
