//! End-to-end daemon tests: concurrent clients over two devices, abrupt
//! halt + journal-replay recovery, graceful shutdown + snapshot reload —
//! plus the reactor's multi-tenant behaviors: weighted round-robin
//! fairness across clients, typed quota rejections, journal
//! auto-compaction after completions, deferred recalibration, and the
//! structured metrics report.

use std::path::{Path, PathBuf};

use vaqem::vqe::VqeProblem;
use vaqem::window_tuner::WindowTunerConfig;
use vaqem_ansatz::su2::{EfficientSu2, Entanglement};
use vaqem_circuit::schedule::DurationModel;
use vaqem_device::backend::DeviceModel;
use vaqem_device::drift::DriftModel;
use vaqem_device::noise::{NoiseParameters, QubitNoise};
use vaqem_fleet_service::{
    ClientQuota, DeviceSpec, FleetService, FleetServiceConfig, QuotaError, SessionError,
    SessionKind, SessionRequest, TenancyConfig,
};
use vaqem_mathkit::rng::SeedStream;
use vaqem_mitigation::dd::DdSequence;
use vaqem_pauli::models::tfim_paper;
use vaqem_runtime::persist::CompactionPolicy;
use vaqem_runtime::{BatchDispatch, CacheMetrics, CostModel, WorkloadProfile};

const NUM_QUBITS: usize = 3;

fn device(name: &str, seed: u64) -> DeviceSpec {
    sized_device(name, seed, NUM_QUBITS)
}

fn sized_device(name: &str, seed: u64, num_qubits: usize) -> DeviceSpec {
    let q = QubitNoise {
        t1_ns: 120_000.0,
        t2_ns: 90_000.0,
        quasi_static_sigma_rad_ns: 2.0e-3,
        telegraph_rate_per_ns: 2.0e-6,
        readout_p01: 0.012,
        readout_p10: 0.025,
        gate_error_1q: 1.5e-4,
    };
    let coupling: Vec<(usize, usize)> = (0..num_qubits - 1).map(|i| (i, i + 1)).collect();
    let mut noise = NoiseParameters::from_qubits(vec![q; num_qubits]);
    for &(a, b) in &coupling {
        noise.set_zz(a, b, 1.0e-5);
    }
    let model = DeviceModel::new(
        name,
        num_qubits,
        coupling,
        DurationModel::ibm_default(),
        noise,
    );
    let drift = DriftModel::new(SeedStream::new(seed).substream(&format!("drift-{name}")));
    DeviceSpec {
        name: name.to_string(),
        model,
        drift,
    }
}

fn problem() -> VqeProblem {
    let ansatz = EfficientSu2::new(NUM_QUBITS, 1, Entanglement::Linear)
        .circuit()
        .unwrap();
    VqeProblem::new("daemon_tfim_3q", tfim_paper(NUM_QUBITS), ansatz).unwrap()
}

fn params() -> Vec<f64> {
    vec![0.3; problem().num_params()]
}

fn config(dir: &Path) -> FleetServiceConfig {
    FleetServiceConfig {
        store_dir: dir.to_path_buf(),
        shards: 8,
        capacity_per_shard: 256,
        shots: 256,
        tuner: WindowTunerConfig {
            sweep_resolution: 3,
            dd_sequence: DdSequence::Xy4,
            max_repetitions: 8,
            guard_repeats: 3,
            ..WindowTunerConfig::default()
        },
        circuit_ns: 12_000.0,
        estimate_windows: 8,
        dispatch: BatchDispatch::local(4),
        tenancy: TenancyConfig::default(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vaqem-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_service(dir: &Path, seed: u64) -> FleetService {
    FleetService::open(
        config(dir),
        vec![device("fleet-east", seed), device("fleet-west", seed)],
        problem(),
        SeedStream::new(seed),
    )
    .expect("service opens")
}

/// Deterministically scans root seeds for one where both devices' cold
/// guards accept and the warm round fully re-accepts (the same
/// scan-and-pin pattern as `tests/fleet_cache.rs`: rejection under shot
/// noise is legitimate tuner behavior, so the lifecycle tests pin a seed
/// where the cache path is exercised end to end). The scan replays
/// deterministically, so every test sees the same seed.
fn accepting_seed() -> u64 {
    static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *SEED.get_or_init(|| {
        for seed in 4242..4274 {
            let dir = temp_dir(&format!("scan-{seed}"));
            let service = open_service(&dir, seed);
            let cold = round(&service, 2, 1.0);
            let warm = round(&service, 2, 3.0);
            service.halt();
            let _ = std::fs::remove_dir_all(&dir);
            let ok = cold
                .iter()
                .all(|&(h, m, rejected)| h == 0 && m > 0 && !rejected)
                && warm
                    .iter()
                    .all(|&(h, m, rejected)| h > 0 && m == 0 && !rejected);
            if ok {
                return seed;
            }
        }
        panic!("no seed in 4242..4274 lets both cold guards accept");
    })
}

fn round(service: &FleetService, clients: usize, t_hours: f64) -> Vec<(usize, usize, bool)> {
    let receivers: Vec<_> = (0..clients)
        .map(|c| {
            service.submit(SessionRequest {
                client: format!("c{c}"),
                t_hours,
                params: params(),
                device: Some(c % 2),
                kind: SessionKind::Dd,
            })
        })
        .collect();
    receivers
        .into_iter()
        .map(|rx| {
            let o = rx.recv().expect("worker alive").expect("tuning ok");
            (o.hits, o.misses, o.guard_rejected)
        })
        .collect()
}

#[test]
fn daemon_survives_abrupt_halt_and_graceful_shutdown() {
    let seed = accepting_seed();
    let dir = temp_dir("lifecycle");

    // Process 1: cold round, then a warm round, then an abrupt halt — no
    // checkpoint, the journal is the only durable record.
    let (cold_misses, warm_hits_before);
    {
        let service = open_service(&dir, seed);
        let cold = round(&service, 4, 1.0);
        cold_misses = cold.iter().map(|&(_, m, _)| m).sum::<usize>();
        assert!(cold_misses > 0, "round 1 must sweep");
        // Within a round, the first session per device is cold, later
        // ones on the same device hit.
        let warm = round(&service, 4, 3.0);
        warm_hits_before = warm.iter().map(|&(h, _, _)| h).sum::<usize>();
        assert!(warm_hits_before > 0, "round 2 warm-starts");
        assert_eq!(
            warm.iter().map(|&(_, m, _)| m).sum::<usize>(),
            0,
            "round 2 is fully warm"
        );
        assert_eq!(service.sessions_completed(), 8);
        service.halt(); // kill: journal only
    }
    assert!(dir.join("store.journal").exists());
    assert!(!dir.join("store.snapshot").exists(), "halt never snapshots");

    // Process 2: journal replay rebuilds the store; the warm-hit rate
    // recovers immediately.
    {
        let service = open_service(&dir, seed);
        let store = service.store();
        assert!(store.recovery().journal_records > 0);
        assert!(!store.is_empty(), "entries recovered from the journal");
        let warm = round(&service, 4, 5.0);
        let hits: usize = warm.iter().map(|&(h, _, _)| h).sum();
        let misses: usize = warm.iter().map(|&(_, m, _)| m).sum();
        assert_eq!(misses, 0, "reloaded store answers every window");
        assert_eq!(hits, warm_hits_before, "hit volume recovers exactly");
        service.shutdown().expect("checkpoint");
    }
    assert!(dir.join("store.snapshot").exists(), "shutdown snapshots");

    // Process 3: snapshot (plus empty journal) reload.
    {
        let service = open_service(&dir, seed);
        let store = service.store();
        assert_eq!(store.recovery().journal_records, 0, "journal truncated");
        assert!(store.recovery().snapshot_entries > 0);
        let warm = round(&service, 2, 7.0);
        assert_eq!(warm.iter().map(|&(_, m, _)| m).sum::<usize>(), 0);
        service.shutdown().expect("checkpoint");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recalibration_crossing_invalidates_and_retunes() {
    let seed = accepting_seed();
    let dir = temp_dir("recal");
    let service = open_service(&dir, seed);
    let cold = round(&service, 2, 1.0);
    assert!(cold.iter().map(|&(_, m, _)| m).sum::<usize>() > 0);
    let warm = round(&service, 2, 3.0);
    assert_eq!(warm.iter().map(|&(_, m, _)| m).sum::<usize>(), 0);
    // 13 h crosses the 12 h recalibration boundary on both devices: the
    // new epoch misses naturally and the stale entries are dropped.
    let recal = round(&service, 2, 13.0);
    assert!(
        recal.iter().map(|&(_, m, _)| m).sum::<usize>() > 0,
        "new epoch re-tunes"
    );
    let store = service.store();
    assert!(store.metrics().invalidations > 0, "stale entries dropped");
    service.shutdown().expect("checkpoint");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_deferred_recalibration_lands_on_the_next_dispatched_session() {
    // A cold session keeps device 0 busy while two more queue behind it:
    // one stamped before the 12 h boundary, one after. The crossing is
    // observed at the second arrival but applied at the device's next
    // dispatch, so the session that arrived *before* the crossing is the
    // first to run after it: it reports the dropped entries, the next
    // one reports none, and both tune at the new epoch.
    let seed = accepting_seed();
    let dir = temp_dir("deferred-recal");
    let service = open_service(&dir, seed);
    let rxs: Vec<_> = [1.0, 11.0, 13.0]
        .iter()
        .map(|&t| service.submit(request("c0", t, Some(0))))
        .collect();
    let [blocker, before, after] = rxs
        .into_iter()
        .map(|rx| rx.recv().expect("worker alive").expect("tuning ok"))
        .collect::<Vec<_>>()
        .try_into()
        .expect("three outcomes");
    assert_eq!(blocker.epoch, 0);
    assert!(blocker.misses > 0, "the blocker publishes epoch-0 entries");
    assert!(before.sequence < after.sequence, "one lane runs FIFO");
    assert!(
        before.invalidated > 0,
        "the first session after the crossing reports the dropped entries"
    );
    assert_eq!(after.invalidated, 0, "a crossing is attributed once");
    assert_eq!(
        (before.epoch, after.epoch),
        (1, 1),
        "a session queued across the crossing tunes at the new epoch"
    );
    service.shutdown().expect("checkpoint");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zne_sessions_flow_through_the_daemon_unchanged() {
    // ZNE-bearing session kinds ride the same submit/worker/store path:
    // a tuned-ZNE session and a composed GS+DD+ZNE session complete, the
    // composed choice persists (journal), and a second composed session
    // warm-starts from the cached composition after a halt + reopen.
    let dir = temp_dir("zne");
    let mut warmed = false;
    for seed in 4242..4262 {
        let _ = std::fs::remove_dir_all(&dir);
        let submit = |service: &FleetService, kind, t_hours| {
            let rx = service.submit(SessionRequest {
                client: "zne-client".to_string(),
                t_hours,
                params: params(),
                device: Some(0),
                kind,
            });
            rx.recv().expect("worker alive").expect("tuning ok")
        };
        {
            let service = open_service(&dir, seed);
            let zne = submit(&service, SessionKind::Zne, 1.0);
            assert_eq!(zne.hits, 0, "cold ZNE session sweeps candidates");
            assert!(zne.minutes > 0.0);
            let composed = submit(&service, SessionKind::CombinedZne, 1.5);
            assert!(composed.misses > 0, "cold composition tunes all stages");
            service.halt(); // journal-only durability
        }
        let service = open_service(&dir, seed);
        let replay = submit(&service, SessionKind::CombinedZne, 2.0);
        service.shutdown().expect("checkpoint");
        if replay.guard_rejected {
            continue; // shot noise rejected the replay; try another seed
        }
        assert_eq!(
            (replay.hits, replay.misses),
            (1, 0),
            "the journaled composed choice answers the whole session"
        );
        warmed = true;
        break;
    }
    assert!(warmed, "no seed produced an accepted composed replay");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tuning_errors_reach_the_client_and_free_the_device() {
    // An empty ZNE candidate list is a configuration error. It must
    // reach the client as a typed error, not as a closed channel from a
    // dead worker, and the device and shutdown() must not stall behind
    // it.
    let dir = temp_dir("tuning-error");
    let mut cfg = config(&dir);
    cfg.tuner.zne_candidates = Vec::new();
    let devices = vec![device("fleet-east", 4242), device("fleet-west", 4242)];
    let service =
        FleetService::open(cfg, devices, problem(), SeedStream::new(4242)).expect("service opens");
    let wait = std::time::Duration::from_secs(60);
    let submit = |kind| {
        let rx = service.submit(SessionRequest {
            client: "c0".to_string(),
            t_hours: 1.0,
            params: params(),
            device: Some(0),
            kind,
        });
        rx.recv_timeout(wait).expect("the worker answers")
    };
    match submit(SessionKind::Zne) {
        Err(SessionError::Tuning(message)) => assert!(message.contains("ZNE candidates")),
        other => panic!("expected a typed tuning error, got {other:?}"),
    }
    let dd = submit(SessionKind::Dd).expect("the same device tunes again");
    assert!(dd.misses > 0, "the DD session swept its windows");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(service.shutdown()));
    (done_rx.recv_timeout(wait).expect("shutdown returns")).expect("checkpoint");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_panicking_session_reaches_the_client_and_frees_the_device() {
    // A 2-qubit device beside the 3-qubit problem: selecting the
    // problem's qubits from the device's noise panics inside the
    // session. Each submit must still get a typed error, the other
    // device must keep serving, and shutdown() must return.
    let dir = temp_dir("session-panic");
    let devices = vec![
        sized_device("fleet-small", 4242, 2),
        device("fleet-west", 4242),
    ];
    let service = FleetService::open(config(&dir), devices, problem(), SeedStream::new(4242))
        .expect("service opens");
    let wait = std::time::Duration::from_secs(60);
    let submit = |device| {
        let rx = service.submit(request("c0", 1.0, Some(device)));
        rx.recv_timeout(wait).expect("the worker answers")
    };
    for attempt in 0..2 {
        match submit(0) {
            Err(SessionError::Tuning(message)) => assert!(
                message.starts_with("on fleet-small: session panicked: ")
                    && message.contains("out of range"),
                "attempt {attempt}: {message}"
            ),
            other => panic!("attempt {attempt}: expected a typed tuning error, got {other:?}"),
        }
    }
    let dd = submit(1).expect("the other device tunes");
    assert!(dd.misses > 0, "the DD session swept its windows");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(service.shutdown()));
    (done_rx.recv_timeout(wait).expect("shutdown returns")).expect("checkpoint");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn request(client: &str, t_hours: f64, device: Option<usize>) -> SessionRequest {
    SessionRequest {
        client: client.to_string(),
        t_hours,
        params: params(),
        device,
        kind: SessionKind::Dd,
    }
}

#[test]
fn fair_queueing_interleaves_heavy_and_light_tenants() {
    // One device, one heavy tenant queueing four sessions before two
    // light tenants submit one each. Under the PR 3 FIFO daemon the
    // light clients would drain *after* the heavy backlog; under
    // weighted round-robin they complete within the first rotation. The
    // completion order is read from the outcomes' global sequence stamps
    // (a single device, so device order == global order).
    //
    // Six sessions, sequences 0..=5. The first completion is heavy's (it
    // was dispatched while alone). At equal weights both light sessions
    // finish within the first rotation — positions 1 and 2 — instead of
    // trailing the heavy backlog at positions 4 and 5. At weight 2 the
    // heavy lane serves twice per rotation, which moves the light
    // sessions to positions 2 and 3. A zero session estimate must not
    // change the order: fairness counts sessions, not minutes.
    for (heavy_weight, estimate_windows, heavy_positions, light_positions) in [
        (1, 8, [0, 3, 4, 5], [1, 2]),
        (2, 8, [0, 1, 4, 5], [2, 3]),
        (1, 0, [0, 3, 4, 5], [1, 2]),
    ] {
        let tag = format!("fairness-w{heavy_weight}-e{estimate_windows}");
        let dir = temp_dir(&tag);
        let mut config = config(&dir);
        config.estimate_windows = estimate_windows;
        config.tenancy.fairness.weights = vec![("heavy".to_string(), heavy_weight)];
        let service = FleetService::open(
            config,
            vec![device("fleet-east", 4242), device("fleet-west", 4242)],
            problem(),
            SeedStream::new(4242),
        )
        .expect("service opens");
        let heavy_rx: Vec<_> = (0..4)
            .map(|_| service.submit(request("heavy", 1.0, Some(0))))
            .collect();
        let light_rx: Vec<_> = ["light-a", "light-b"]
            .iter()
            .map(|c| service.submit(request(c, 1.0, Some(0))))
            .collect();
        let heavy_seq: Vec<u64> = heavy_rx
            .into_iter()
            .map(|rx| rx.recv().unwrap().expect("tuning ok").sequence)
            .collect();
        let light_seq: Vec<u64> = light_rx
            .into_iter()
            .map(|rx| rx.recv().unwrap().expect("tuning ok").sequence)
            .collect();
        let mut lights = light_seq.clone();
        lights.sort_unstable();
        assert_eq!(
            lights, light_positions,
            "{tag}: light tenants complete inside the first rotation, \
             got {light_seq:?} (heavy {heavy_seq:?})"
        );
        assert_eq!(heavy_seq, heavy_positions, "{tag}");
        service.shutdown().expect("checkpoint");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
#[should_panic(expected = "fairness weights must be positive")]
fn a_zero_fairness_weight_is_refused_at_open() {
    // A zero-weight lane would starve by construction, and the fair
    // queue refuses one with a panic. `open` refuses the config before
    // any thread spawns, so no submission can reach that panic on the
    // reactor thread.
    let dir = temp_dir("zero-weight");
    let mut config = config(&dir);
    config.tenancy.fairness.weights = vec![("idle".to_string(), 0)];
    let _ = FleetService::open(
        config,
        vec![device("fleet-east", 4242)],
        problem(),
        SeedStream::new(4242),
    );
}

#[test]
#[should_panic(expected = "quota epoch length must be positive")]
fn a_non_positive_quota_epoch_is_refused_at_open() {
    // Every arrival maps its hour onto a quota epoch on the reactor
    // thread, which panics on a length that is not positive and finite.
    // `open` refuses the config before any thread spawns.
    let dir = temp_dir("zero-epoch");
    let mut config = config(&dir);
    config.tenancy.quota_epoch_hours = 0.0;
    let _ = FleetService::open(
        config,
        vec![device("fleet-east", 4242)],
        problem(),
        SeedStream::new(4242),
    );
}

#[test]
#[should_panic(expected = "circuit_ns must be finite and non-negative")]
fn a_non_finite_circuit_makespan_is_refused_at_open() {
    // The session estimate inherits the makespan, and a NaN estimate
    // would poison quota reservations and admission backlogs on the
    // reactor thread. `open` refuses the config before any thread
    // spawns.
    let dir = temp_dir("nan-makespan");
    let mut config = config(&dir);
    config.circuit_ns = f64::NAN;
    let _ = FleetService::open(
        config,
        vec![device("fleet-east", 4242)],
        problem(),
        SeedStream::new(4242),
    );
}

#[test]
fn quota_breach_is_rejected_with_a_typed_error() {
    // "greedy" may hold at most two admitted-but-incomplete sessions.
    // A blocker session occupies the device first, so greedy's three
    // rapid submissions are all *queued* when the reactor processes
    // them: the third must bounce with the typed in-flight error while
    // the first two eventually tune fine.
    let dir = temp_dir("quota");
    let mut config = config(&dir);
    config.tenancy.quotas = vec![(
        "greedy".to_string(),
        ClientQuota {
            max_in_flight: 2,
            minutes_per_epoch: f64::INFINITY,
        },
    )];
    let service = FleetService::open(
        config,
        vec![device("fleet-east", 4242), device("fleet-west", 4242)],
        problem(),
        SeedStream::new(4242),
    )
    .expect("service opens");
    let blocker = service.submit(request("blocker", 1.0, Some(0)));
    let greedy_rx: Vec<_> = (0..3)
        .map(|_| service.submit(request("greedy", 1.0, Some(0))))
        .collect();
    let results: Vec<_> = greedy_rx
        .into_iter()
        .map(|rx| rx.recv().expect("reply delivered"))
        .collect();
    assert!(results[0].is_ok() && results[1].is_ok());
    match &results[2] {
        Err(SessionError::Quota(QuotaError::InFlightExceeded { client, limit })) => {
            assert_eq!(client, "greedy");
            assert_eq!(*limit, 2);
        }
        other => panic!("expected a typed in-flight rejection, got {other:?}"),
    }
    blocker.recv().unwrap().expect("blocker tunes");
    let report = service.metrics_report();
    assert_eq!(report.events.quota_rejections, 1);
    let greedy = report
        .quotas
        .iter()
        .find(|q| q.client == "greedy")
        .expect("greedy accounted");
    assert_eq!(greedy.rejected, 1);
    assert_eq!(greedy.completed, 2);
    assert_eq!(greedy.in_flight, 0);
    service.shutdown().expect("checkpoint");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn machine_minute_budget_is_enforced_per_epoch() {
    // A budget below two sessions' reserved estimates rejects the
    // second submission in the same quota epoch, deterministically
    // (reservations are charged at admission, before anything runs).
    let dir = temp_dir("budget");
    let mut config = config(&dir);
    // The daemon prices every admission estimate from the fixture's
    // values with the 2021 IBM cloud cost model.
    let estimate = CostModel::ibm_cloud_2021().em_tuning_minutes_batched(
        &WorkloadProfile {
            num_qubits: NUM_QUBITS,
            circuit_ns: config.circuit_ns,
            iterations: 0,
            measurement_groups: problem().groups().len(),
            windows: config.estimate_windows,
            sweep_resolution: config.tuner.sweep_resolution,
            shots: config.shots,
        },
        &config.dispatch,
    );
    config.tenancy.quotas = vec![(
        "metered".to_string(),
        ClientQuota {
            max_in_flight: usize::MAX,
            minutes_per_epoch: 1.5 * estimate,
        },
    )];
    let service = FleetService::open(
        config,
        vec![device("fleet-east", 4242), device("fleet-west", 4242)],
        problem(),
        SeedStream::new(4242),
    )
    .expect("service opens");
    let first = service.submit(request("metered", 1.0, Some(0)));
    let second = service.submit(request("metered", 1.0, Some(0)));
    match second.recv().expect("reply delivered") {
        Err(SessionError::Quota(QuotaError::BudgetExhausted {
            client, limit_min, ..
        })) => {
            assert_eq!(client, "metered");
            assert!((limit_min - 1.5 * estimate).abs() < 1e-9);
        }
        other => panic!("expected a typed budget rejection, got {other:?}"),
    }
    first.recv().unwrap().expect("first session tunes");
    service.shutdown().expect("checkpoint");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_ticks_auto_compact_the_journal() {
    let seed = accepting_seed();
    let dir = temp_dir("compaction");
    let mut config = config(&dir);
    // Compact once more than one record sits in the journal, checked
    // after every completion (the 3-qubit problem yields one tuned
    // window per session, so a cold round journals ~one insert per
    // device).
    config.tenancy.compaction = CompactionPolicy::after_records(1);
    let service = FleetService::open(
        config,
        vec![device("fleet-east", seed), device("fleet-west", seed)],
        problem(),
        SeedStream::new(seed),
    )
    .expect("service opens");
    let cold = round(&service, 4, 1.0);
    assert!(
        cold.iter().map(|&(_, m, _)| m).sum::<usize>() > 1,
        "cold round must journal more than the compaction bound"
    );
    let report = service.metrics_report();
    assert!(
        report.events.compactions >= 1,
        "ticks must have compacted: {:?}",
        report.events
    );
    assert_eq!(report.events.compaction_errors, 0);
    assert!(
        report.journal_records <= 1,
        "journal stays within one tick of its bound, got {}",
        report.journal_records
    );
    assert!(
        dir.join("store.snapshot").exists(),
        "auto-compaction wrote a snapshot without any shutdown"
    );
    // Kill without a checkpoint: snapshot + bounded journal recover the
    // full store.
    let entries = service.store().len();
    service.halt();
    let service = FleetService::open(
        config_for_recovery(&dir),
        vec![device("fleet-east", seed), device("fleet-west", seed)],
        problem(),
        SeedStream::new(seed),
    )
    .expect("service reopens");
    let store = service.store();
    assert!(store.recovery().snapshot_entries > 0);
    assert_eq!(store.len(), entries, "auto-compacted state recovers");
    let warm = round(&service, 4, 3.0);
    assert_eq!(
        warm.iter().map(|&(_, m, _)| m).sum::<usize>(),
        0,
        "recovered store answers every window"
    );
    service.shutdown().expect("checkpoint");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn config_for_recovery(dir: &Path) -> FleetServiceConfig {
    let mut c = config(dir);
    c.tenancy.compaction = CompactionPolicy::after_records(1);
    c
}

#[test]
fn metrics_report_is_structured_and_prints() {
    let dir = temp_dir("metrics");
    let service = open_service(&dir, 4242);
    let _ = round(&service, 4, 1.0);
    let report = service.metrics_report();
    assert_eq!(report.events.arrivals, 4);
    assert_eq!(report.events.completions, 4);
    assert_eq!(report.events.quota_rejections, 0);
    assert_eq!(report.devices.len(), 2);
    for d in &report.devices {
        assert!(!d.busy);
        assert_eq!(d.queue_depth, 0);
        assert_eq!(d.completed, 2);
        assert!(d.queue_wait_min > 0.0);
        // Two clients submitted to each device: two fairness lanes.
        assert_eq!(d.lanes.len(), 2);
        assert!(d.lanes.iter().all(|l| l.weight == 1 && l.queued == 0));
    }
    assert_eq!(report.quotas.len(), 4, "one quota account per client");
    assert!(report
        .quotas
        .iter()
        .all(|q| q.completed == 1 && q.in_flight == 0 && q.rejected == 0));
    assert_eq!(
        report.client_store_traffic.len(),
        4,
        "per-client store attribution"
    );
    let attributed_misses: u64 = report
        .client_store_traffic
        .iter()
        .map(|(_, m)| m.misses)
        .sum();
    assert!(attributed_misses > 0, "cold round misses are attributed");
    assert_eq!(report.shards.len(), 8);
    // Each device routes to a shard of its own, and sessions serialize
    // per device, so no shard lock ever blocks.
    let store = service.store();
    assert_ne!(store.shard_of("fleet-east"), store.shard_of("fleet-west"));
    let contended: u64 = report.shards.iter().map(|s| s.lock_contended).sum();
    assert_eq!(contended, 0, "cross-device shard contention");
    assert!(
        report.events.checkpoint_ticks >= report.events.completions,
        "every completion ticks the compaction policy"
    );
    assert_eq!(report.events.compaction_errors, 0);
    assert!(report.store_entries > 0);
    assert_eq!(report.workers_idle, report.workers_total);
    let rendered = report.to_string();
    assert!(rendered.contains("fleet metrics"));
    assert!(rendered.contains("device 0 (fleet-east)"));
    assert!(rendered.contains("lane"));
    service.shutdown().expect("checkpoint");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_traffic_ledger_sorts_clients_and_sums_to_the_store() {
    // Five sessions from two clients across both devices, which route to
    // distinct shards, so each session's shard delta is exactly its own
    // traffic. No drift crossing: an invalidation happens at dispatch,
    // outside any session's delta.
    let dir = temp_dir("traffic");
    let service = open_service(&dir, 4242);
    let store = service.store();
    assert_ne!(store.shard_of("fleet-east"), store.shard_of("fleet-west"));
    let sessions = [
        ("zeta", 0),
        ("alpha", 1),
        ("zeta", 1),
        ("alpha", 0),
        ("zeta", 0),
    ];
    let rxs: Vec<_> = sessions
        .iter()
        .map(|&(client, d)| service.submit(request(client, 1.0, Some(d))))
        .collect();
    for rx in rxs {
        rx.recv().expect("worker alive").expect("tuning ok");
    }
    let traffic = service.metrics_report().client_store_traffic;
    let clients: Vec<&str> = traffic.iter().map(|(c, _)| c.as_str()).collect();
    assert_eq!(clients, ["alpha", "zeta"], "one entry per client, sorted");
    let mut summed = CacheMetrics::default();
    for (_, m) in &traffic {
        summed.merge(m);
    }
    assert_eq!(summed, store.metrics(), "the ledger covers every session");
    service.shutdown().expect("checkpoint");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unpinned_admission_follows_the_queue_samples() {
    let dir = temp_dir("admit");
    let service = open_service(&dir, 4242);
    let waits = service.queue_wait_min().to_vec();
    assert_eq!(waits.len(), 2);
    assert_ne!(waits[0], waits[1], "labels decorrelate queue samples");
    let expected = if waits[0] <= waits[1] { 0 } else { 1 };
    // The first unpinned submission races nothing (no backlog yet, no
    // completions): it must land on the device with the shorter sampled
    // queue — CostModel::queuing_minutes driving admission.
    let rx = service.submit(SessionRequest {
        client: "c0".to_string(),
        t_hours: 1.0,
        params: params(),
        device: None,
        kind: SessionKind::Dd,
    });
    let outcome = rx.recv().unwrap().unwrap();
    assert_eq!(outcome.device, expected);
    service.shutdown().expect("checkpoint");
    std::fs::remove_dir_all(&dir).unwrap();
}
