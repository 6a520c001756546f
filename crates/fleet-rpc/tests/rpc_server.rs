//! End-to-end RPC front-end tests: real sockets, real reactor, real
//! tuning sessions.
//!
//! - TCP round trip: connection-scoped identity (a spoofed `client`
//!   field is overridden), poll, metrics, and the **typed-quota-parity**
//!   check — a greedy remote tenant receives byte-for-byte the same
//!   `SessionError::Quota` an in-process caller gets.
//! - Kill-and-restart over a Unix socket with live connections: the old
//!   connection dies, a reconnect against the rebound socket file sees
//!   the journal-recovered store (warm-hit volume preserved).
//! - Slow-reader backpressure: a client that floods requests without
//!   reading replies is refused further submissions with the typed
//!   `Overloaded` error, and other tenants never notice.
//! - Mid-frame disconnect: a peer vanishing halfway through a frame
//!   (with a session still in flight) leaves the daemon quiescent —
//!   no decode errors, no stalls, other connections keep completing.
//!   A submit pinned to a device the fleet lacks gets a typed protocol
//!   error, and the same connection keeps serving.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use vaqem::vqe::VqeProblem;
use vaqem::window_tuner::WindowTunerConfig;
use vaqem_ansatz::su2::{EfficientSu2, Entanglement};
use vaqem_circuit::schedule::DurationModel;
use vaqem_device::backend::DeviceModel;
use vaqem_device::drift::DriftModel;
use vaqem_device::noise::{NoiseParameters, QubitNoise};
use vaqem_fleet_rpc::client::RpcClient;
use vaqem_fleet_rpc::server::{RpcListener, RpcServer, RpcServerConfig};
use vaqem_fleet_rpc::wire::Frame;
use vaqem_fleet_service::{
    ClientQuota, DeviceSpec, FleetService, FleetServiceConfig, QuotaError, SessionError,
    SessionKind, SessionRequest, TenancyConfig,
};
use vaqem_mathkit::rng::SeedStream;
use vaqem_runtime::BatchDispatch;

const NUM_QUBITS: usize = 2;

fn problem() -> VqeProblem {
    let ansatz = EfficientSu2::new(NUM_QUBITS, 1, Entanglement::Linear)
        .circuit()
        .unwrap();
    VqeProblem::new(
        "rpc_tfim_2q",
        vaqem_pauli::models::tfim_paper(NUM_QUBITS),
        ansatz,
    )
    .unwrap()
}

fn params() -> Vec<f64> {
    vec![0.3; problem().num_params()]
}

fn open_service(dir: &Path, seed: u64, tenancy: TenancyConfig) -> FleetService {
    let device = DeviceSpec {
        name: "rpc-device".into(),
        model: DeviceModel::new(
            "rpc-device",
            NUM_QUBITS,
            vec![(0, 1)],
            DurationModel::ibm_default(),
            NoiseParameters::uniform(NUM_QUBITS),
        ),
        drift: DriftModel::new(SeedStream::new(seed).substream("drift")),
    };
    let config = FleetServiceConfig {
        store_dir: dir.to_path_buf(),
        shards: 2,
        capacity_per_shard: 64,
        shots: 64,
        tuner: WindowTunerConfig {
            sweep_resolution: 2,
            max_repetitions: 2,
            guard_repeats: 1,
            ..Default::default()
        },
        circuit_ns: 8_000.0,
        estimate_windows: 4,
        dispatch: BatchDispatch::local(2),
        tenancy,
    };
    FleetService::open(config, vec![device], problem(), SeedStream::new(seed)).expect("opens")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vaqem-rpc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request(t_hours: f64) -> SessionRequest {
    SessionRequest {
        client: "ignored-by-server".into(),
        t_hours,
        params: params(),
        device: Some(0),
        kind: SessionKind::Dd,
    }
}

/// The 2-qubit toy above schedules no idle windows, so it exercises the
/// RPC plumbing fast but never touches the config cache. The restart
/// test needs real windows (its whole point is warm-hit recovery), so
/// it uses the 3-qubit fixture of `fleet-service/tests/daemon.rs`.
const WINDOWED_QUBITS: usize = 3;

fn windowed_problem() -> VqeProblem {
    let ansatz = EfficientSu2::new(WINDOWED_QUBITS, 1, Entanglement::Linear)
        .circuit()
        .unwrap();
    VqeProblem::new(
        "rpc_tfim_3q",
        vaqem_pauli::models::tfim_paper(WINDOWED_QUBITS),
        ansatz,
    )
    .unwrap()
}

fn open_windowed_service(dir: &Path, seed: u64) -> FleetService {
    let q = QubitNoise {
        t1_ns: 120_000.0,
        t2_ns: 90_000.0,
        quasi_static_sigma_rad_ns: 2.0e-3,
        telegraph_rate_per_ns: 2.0e-6,
        readout_p01: 0.012,
        readout_p10: 0.025,
        gate_error_1q: 1.5e-4,
    };
    let coupling: Vec<(usize, usize)> = (0..WINDOWED_QUBITS - 1).map(|i| (i, i + 1)).collect();
    let mut noise = NoiseParameters::from_qubits(vec![q; WINDOWED_QUBITS]);
    for &(a, b) in &coupling {
        noise.set_zz(a, b, 1.0e-5);
    }
    let device = DeviceSpec {
        name: "rpc-windowed".into(),
        model: DeviceModel::new(
            "rpc-windowed",
            WINDOWED_QUBITS,
            coupling,
            DurationModel::ibm_default(),
            noise,
        ),
        drift: DriftModel::new(SeedStream::new(seed).substream("drift-rpc-windowed")),
    };
    let config = FleetServiceConfig {
        store_dir: dir.to_path_buf(),
        shards: 4,
        capacity_per_shard: 128,
        shots: 256,
        tuner: WindowTunerConfig {
            sweep_resolution: 3,
            max_repetitions: 8,
            guard_repeats: 3,
            ..Default::default()
        },
        circuit_ns: 12_000.0,
        estimate_windows: 8,
        dispatch: BatchDispatch::local(4),
        tenancy: TenancyConfig::default(),
    };
    FleetService::open(
        config,
        vec![device],
        windowed_problem(),
        SeedStream::new(seed),
    )
    .expect("opens")
}

fn windowed_request(t_hours: f64) -> SessionRequest {
    SessionRequest {
        client: "ignored-by-server".into(),
        t_hours,
        params: vec![0.3; windowed_problem().num_params()],
        device: Some(0),
        kind: SessionKind::Dd,
    }
}

/// Deterministically pins a seed where the cold guard accepts and a
/// warm re-submit fully hits (the scan-and-pin pattern of
/// `fleet-service/tests/daemon.rs`: guard rejection under shot noise is
/// legitimate, lifecycle tests want the cache path exercised end to
/// end).
fn accepting_seed() -> u64 {
    static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *SEED.get_or_init(|| {
        for seed in 4242..4274 {
            let dir = temp_dir(&format!("scan-{seed}"));
            let service = open_windowed_service(&dir, seed);
            let cold = service
                .submit(windowed_request(1.0))
                .recv()
                .expect("worker alive")
                .expect("tuning ok");
            let warm = service
                .submit(windowed_request(3.0))
                .recv()
                .expect("worker alive")
                .expect("tuning ok");
            service.halt();
            let _ = std::fs::remove_dir_all(&dir);
            if cold.hits == 0
                && cold.misses > 0
                && !cold.guard_rejected
                && warm.misses == 0
                && warm.hits > 0
                && !warm.guard_rejected
            {
                return seed;
            }
        }
        panic!("no seed in 4242..4274 lets the cold guard accept");
    })
}

#[test]
fn tcp_round_trip_identity_poll_metrics_and_quota_parity() {
    let dir = temp_dir("tcp");
    let tenancy = TenancyConfig {
        quotas: vec![(
            "greedy-*".into(),
            ClientQuota {
                max_in_flight: 0,
                minutes_per_epoch: f64::INFINITY,
            },
        )],
        ..TenancyConfig::default()
    };
    let service = open_service(&dir, 11, tenancy);
    let server = RpcServer::serve(
        &service,
        RpcListener::bind_tcp("127.0.0.1:0").expect("binds"),
        RpcServerConfig::default(),
    )
    .expect("serves");
    let addr = server.local_addr().to_string();

    // Identity is connection-scoped: the spoofed `client` field inside
    // the request is overridden by the bound identity.
    let mut client = RpcClient::connect_tcp(&addr).expect("connects");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    client.open("tenant-1").expect("opens");
    let token = client.submit(request(1.0)).expect("submits");
    let outcome = client
        .await_result(token)
        .expect("reply arrives")
        .expect("tuning ok");
    assert_eq!(outcome.client, "tenant-1", "identity is connection-bound");
    assert_eq!(client.poll().expect("polls"), (0, 1));

    // Typed quota parity: the greedy remote tenant and the greedy
    // in-process caller get the *same* typed rejection.
    let mut greedy = RpcClient::connect_tcp(&addr).expect("connects");
    greedy
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    greedy.open("greedy-7").expect("opens");
    let token = greedy.submit(request(1.0)).expect("submits");
    let remote_err = greedy
        .await_result(token)
        .expect("reply arrives")
        .expect_err("quota must reject");
    let mut local = request(1.0);
    local.client = "greedy-7".into();
    let local_err = service
        .submit(local)
        .recv()
        .expect("reactor alive")
        .expect_err("quota must reject");
    assert_eq!(remote_err, local_err, "remote == in-process rejection");
    assert_eq!(
        remote_err,
        SessionError::Quota(QuotaError::InFlightExceeded {
            client: "greedy-7".into(),
            limit: 0,
        })
    );

    // Metrics over the wire: typed counters plus the full JSON report.
    let (rpc, report_json) = client.metrics().expect("metrics reply");
    assert!(rpc.frames_in >= 4, "open+submit+poll+metrics counted");
    assert_eq!(rpc.decode_errors, 0);
    assert_eq!(rpc.connections_open, 2);
    assert!(report_json.contains("\"rpc\""), "full report rendered");

    client.shutdown().expect("acked goodbye");
    greedy.shutdown().expect("acked goodbye");
    server.stop();
    service.shutdown().expect("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unix_kill_and_restart_preserves_warm_hits_for_reconnecting_clients() {
    let seed = accepting_seed();
    let dir = temp_dir("restart");
    let sock = std::env::temp_dir().join(format!("vaqem-rpc-{}.sock", std::process::id()));

    // Daemon 1: a cold and a warm session over the wire, then a kill
    // with the client still connected — no checkpoint, journal only.
    let warm_hits;
    {
        let service = open_windowed_service(&dir, seed);
        let server = RpcServer::serve(
            &service,
            RpcListener::bind_unix(&sock).expect("binds"),
            RpcServerConfig::default(),
        )
        .expect("serves");
        let mut client = RpcClient::connect_unix(&sock).expect("connects");
        client
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        client.open("c0").expect("opens");
        let token = client.submit(windowed_request(1.0)).unwrap();
        let cold = client
            .await_result(token)
            .expect("reply")
            .expect("tuning ok");
        assert!(cold.misses > 0, "cold session sweeps");
        let token = client.submit(windowed_request(3.0)).unwrap();
        let warm = client
            .await_result(token)
            .expect("reply")
            .expect("tuning ok");
        assert_eq!(warm.misses, 0, "warm session fully hits");
        assert!(warm.hits > 0);
        warm_hits = warm.hits;

        server.stop(); // kill the front-end with the connection live
        service.halt(); // and the daemon: journal is the only record
        assert!(
            client.poll().is_err(),
            "the killed server's connection is dead"
        );
    }

    // Daemon 2: rebind the same socket path (stale file replaced),
    // journal replay rebuilds the store; a reconnecting client sees the
    // exact warm-hit volume of the pre-kill daemon.
    {
        let service = open_windowed_service(&dir, seed);
        assert!(service.store().recovery().journal_records > 0);
        let server = RpcServer::serve(
            &service,
            RpcListener::bind_unix(&sock).expect("rebinds over stale file"),
            RpcServerConfig::default(),
        )
        .expect("serves");
        let mut client = RpcClient::connect_unix(&sock).expect("reconnects");
        client
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        client.open("c0").expect("opens");
        let token = client.submit(windowed_request(5.0)).unwrap();
        let replay = client
            .await_result(token)
            .expect("reply")
            .expect("tuning ok");
        assert_eq!(replay.misses, 0, "recovered store answers every window");
        assert_eq!(replay.hits, warm_hits, "hit volume recovers exactly");
        client.shutdown().expect("acked goodbye");
        server.stop();
        service.shutdown().expect("checkpoint");
    }
    let _ = std::fs::remove_file(&sock);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_reader_is_rejected_with_typed_overload_not_a_stall() {
    let dir = temp_dir("overload");
    let service = open_service(&dir, 13, TenancyConfig::default());
    let sock = std::env::temp_dir().join(format!("vaqem-rpc-ovl-{}.sock", std::process::id()));
    let server = RpcServer::serve(
        &service,
        RpcListener::bind_unix(&sock).expect("binds"),
        RpcServerConfig {
            soft_pending_out_bytes: 32 << 10,
            hard_pending_out_bytes: 64 << 20,
            ..RpcServerConfig::default()
        },
    )
    .expect("serves");

    // The slow reader: floods open frames with fat client labels and
    // never reads a reply. Every `OpenAck` echoes the label, so ~1.6 MB
    // of outbound piles up — far beyond what the kernel's socket
    // buffers can absorb with nobody reading — and the submission
    // trailing the flood must get the typed rejection.
    let mut slow = RpcClient::connect_unix(&sock).expect("connects");
    slow.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    slow.open("slow").expect("opens");
    let fat_label = "x".repeat(8 << 10);
    let mut flood = Vec::new();
    for _ in 0..200 {
        flood.extend_from_slice(
            &Frame::Open {
                client: fat_label.clone(),
            }
            .to_wire(),
        );
    }
    slow.send_raw(&flood).expect("flood written");
    let token = slow.submit(request(1.0)).expect("submit written");
    let err = slow
        .await_result(token)
        .expect("reply arrives")
        .expect_err("overloaded connection must be refused");
    match err {
        SessionError::Overloaded {
            pending_out_bytes,
            limit,
        } => {
            assert_eq!(limit, 32 << 10);
            assert!(pending_out_bytes > limit);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // Another tenant on its own connection is entirely unaffected.
    let mut fine = RpcClient::connect_unix(&sock).expect("connects");
    fine.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    fine.open("fine").expect("opens");
    let token = fine.submit(request(1.0)).unwrap();
    let outcome = fine.await_result(token).expect("reply").expect("tuning ok");
    assert_eq!(outcome.client, "fine");
    let (rpc, _) = fine.metrics().expect("metrics reply");
    assert!(rpc.overload_rejections >= 1, "rejection counted");
    assert_eq!(rpc.overload_closes, 0, "under the hard bound: no close");
    assert_eq!(rpc.decode_errors, 0);

    fine.shutdown().expect("acked goodbye");
    server.stop();
    service.shutdown().expect("checkpoint");
    let _ = std::fs::remove_file(&sock);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_frame_disconnect_and_bad_preamble_leave_the_daemon_quiescent() {
    let dir = temp_dir("quiesce");
    let service = open_service(&dir, 17, TenancyConfig::default());
    let sock = std::env::temp_dir().join(format!("vaqem-rpc-q-{}.sock", std::process::id()));
    let server = RpcServer::serve(
        &service,
        RpcListener::bind_unix(&sock).expect("binds"),
        RpcServerConfig::default(),
    )
    .expect("serves");

    // A peer that submits a session, then vanishes halfway through its
    // next frame: a 100-byte length prefix followed by 10 bytes and a
    // hangup. The torn tail is *not* a decode error — the peer simply
    // left — and the in-flight session's result is dropped at delivery.
    {
        let mut doomed = RpcClient::connect_unix(&sock).expect("connects");
        doomed
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        doomed.open("doomed").expect("opens");
        doomed.submit(request(1.0)).expect("submits");
        let mut torn = 100u32.to_le_bytes().to_vec();
        torn.extend_from_slice(&[0xAB; 10]);
        doomed.send_raw(&torn).expect("torn frame written");
        // Drop: the socket closes with the frame unfinished and the
        // session still running.
    }

    // Meanwhile a healthy tenant completes normally.
    let mut healthy = RpcClient::connect_unix(&sock).expect("connects");
    healthy
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    healthy.open("healthy").expect("opens");
    let token = healthy.submit(request(1.0)).unwrap();
    let outcome = healthy
        .await_result(token)
        .expect("reply")
        .expect("tuning ok");
    assert_eq!(outcome.client, "healthy");

    let (rpc, _) = healthy.metrics().expect("metrics reply");
    assert_eq!(rpc.decode_errors, 0, "a hangup is not a decode error");
    assert!(rpc.connections_closed >= 1, "the vanished peer was reaped");
    assert_eq!(rpc.connections_open, 1, "only the healthy connection");

    // A peer speaking the wrong protocol outright (an HTTP request) is
    // counted as a decode error and dropped at the preamble.
    {
        let mut alien = std::os::unix::net::UnixStream::connect(&sock).expect("connects");
        alien
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        alien.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("writes");
        // Server preamble arrives, then the connection dies.
        let mut drain = Vec::new();
        let _ = alien.read_to_end(&mut drain);
    }
    // The daemon keeps serving afterwards.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (rpc, _) = healthy.metrics().expect("metrics reply");
        if rpc.decode_errors >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "preamble rejection never counted"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // A well-framed submit pinned to a device the fleet lacks is
    // answered with a typed protocol error on the same connection; the
    // reactor never indexes by it, and the next session completes.
    let bad = healthy
        .submit(SessionRequest {
            device: Some(99),
            ..request(1.0)
        })
        .unwrap();
    match healthy.await_result(bad).expect("reply") {
        Err(SessionError::Protocol(msg)) => assert!(msg.contains("99"), "{msg}"),
        other => panic!("expected a typed protocol error, got {other:?}"),
    }
    let token = healthy.submit(request(1.0)).unwrap();
    healthy
        .await_result(token)
        .expect("reply")
        .expect("tuning ok after the rejected submit");

    healthy.shutdown().expect("acked goodbye");
    server.stop();
    service.shutdown().expect("checkpoint");
    let _ = std::fs::remove_file(&sock);
    let _ = std::fs::remove_dir_all(&dir);
}
