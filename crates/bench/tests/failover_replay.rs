//! Fault-injection: a two-process replica pair ridden through a
//! `SIGKILL` of the leader mid-run.
//!
//! The leader is a real `fleetd` child process (the windowed fixture —
//! real idle windows, real cache traffic) serving a Unix socket; the
//! follower runs in this process, streaming the leader's journal into
//! its own durable store. The test:
//!
//! 1. pins a seed whose cold session publishes and whose warm re-submit
//!    fully hits (guard rejection under shot noise is legitimate —
//!    lifecycle tests want the cache path end to end);
//! 2. measures the **single-process restart baseline**: cold session,
//!    `halt` (no checkpoint — journal only), reopen, warm session;
//! 3. runs the pair: cold session against the leader (its reply is
//!    gated on the follower's durable ack — the "acknowledged" in
//!    *zero lost acknowledged publishes*), `kill -9`s the leader,
//!    asserts the follower promotes onto the same socket, the
//!    [`FailoverClient`] reconnects and resubmits, and the warm session
//!    misses nothing — its hit volume is no worse than the restart
//!    baseline.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use vaqem_bench::rpcload;
use vaqem_fleet_replica::{Follower, FollowerExit, ReplicaConfig};
use vaqem_fleet_rpc::server::{RpcListener, RpcServerConfig};
use vaqem_fleet_rpc::{FailoverClient, FailoverTarget};
use vaqem_fleet_service::FleetService;
use vaqem_mathkit::rng::SeedStream;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vaqem-failover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_windowed(dir: &Path, seed: u64) -> FleetService {
    FleetService::open(
        rpcload::windowed_service_config(dir.to_path_buf()),
        vec![rpcload::windowed_device(0, seed)],
        rpcload::windowed_problem(),
        SeedStream::new(seed),
    )
    .expect("windowed service opens")
}

/// Scan-and-pin: a seed where the cold guard accepts and the warm
/// re-submit fully hits (the pattern of `fleet-service/tests/daemon.rs`
/// and `fleet-rpc/tests/rpc_server.rs`).
fn accepting_seed() -> u64 {
    static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *SEED.get_or_init(|| {
        for seed in 5150..5214 {
            let dir = temp_dir(&format!("scan-{seed}"));
            let service = open_windowed(&dir, seed);
            let cold = service
                .submit(rpcload::windowed_request(1.0))
                .recv()
                .expect("worker alive")
                .expect("tuning ok");
            let warm = service
                .submit(rpcload::windowed_request(3.0))
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
        panic!("no seed in 5150..5214 lets the cold guard accept");
    })
}

/// The bar the failover must clear: warm-hit volume after a plain
/// single-process kill-and-restart of the *same* store.
fn restart_baseline(seed: u64) -> usize {
    let dir = temp_dir("baseline");
    {
        let service = open_windowed(&dir, seed);
        let cold = service
            .submit(rpcload::windowed_request(1.0))
            .recv()
            .expect("worker alive")
            .expect("tuning ok");
        assert!(cold.misses > 0, "cold session sweeps");
        service.halt(); // no checkpoint: journal is the only record
    }
    let service = open_windowed(&dir, seed);
    let warm = service
        .submit(rpcload::windowed_request(3.0))
        .recv()
        .expect("worker alive")
        .expect("tuning ok");
    assert_eq!(warm.misses, 0, "restarted store answers every window");
    service.halt();
    let _ = std::fs::remove_dir_all(&dir);
    warm.hits
}

#[test]
fn sigkilled_leader_fails_over_to_follower_with_no_lost_acknowledged_publishes() {
    let seed = accepting_seed();
    let baseline_hits = restart_baseline(seed);

    let leader_dir = temp_dir("leader");
    let follower_dir = temp_dir("follower");
    let sock = std::env::temp_dir().join(format!("vaqem-failover-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);

    // Process 2: the leader, a real fleetd child on the Unix socket.
    let mut leader = std::process::Command::new(env!("CARGO_BIN_EXE_fleetd"))
        .arg("--unix")
        .arg(&sock)
        .arg("--store-dir")
        .arg(&leader_dir)
        .arg("--devices")
        .arg("1")
        .arg("--windowed")
        .arg("--run-secs")
        .arg("600")
        .env("VAQEM_SEED", seed.to_string())
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("leader spawns");

    // The follower: connects to the leader (retrying until the child's
    // socket is up), then replicates on its own thread until the leader
    // dies, then promotes onto the leader's socket path.
    let follower = Follower::connect(ReplicaConfig::new(
        FailoverTarget::Unix(sock.clone()),
        follower_dir.clone(),
    ))
    .expect("follower connects to leader");
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let (promoted_tx, promoted_rx) = mpsc::channel::<u64>();
    let follower_thread = {
        let stop = Arc::clone(&stop);
        let done = Arc::clone(&done);
        let sock = sock.clone();
        let follower_dir = follower_dir.clone();
        std::thread::spawn(move || {
            let mut follower = follower;
            match follower.run(&stop) {
                FollowerExit::Stopped => panic!("follower stopped before the leader died"),
                FollowerExit::LeaderDied(_) => {}
            }
            let ships = follower.applier().ships_applied();
            // Take over the leader's socket: bind_unix replaces the
            // dead leader's stale socket file.
            let (service, server) = follower
                .promote(
                    rpcload::windowed_service_config(follower_dir),
                    vec![rpcload::windowed_device(0, seed)],
                    rpcload::windowed_problem(),
                    SeedStream::new(seed),
                    RpcListener::bind_unix(&sock).expect("takes over the socket"),
                    RpcServerConfig::default(),
                )
                .expect("promotion");
            promoted_tx.send(ships).expect("test alive");
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
            }
            server.stop();
            service.shutdown().expect("checkpoint");
        })
    };

    // Process 1 (this one) is also the client. The cold session's reply
    // is gated on the follower's durable ack, so once it returns, every
    // entry it published is replicated — acknowledged means durable on
    // both sides.
    let mut client = FailoverClient::connect(FailoverTarget::Unix(sock.clone()), "c0")
        .expect("client connects to leader");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    let token = client
        .submit(rpcload::windowed_request(1.0))
        .expect("cold submits");
    let cold = client
        .await_result(token)
        .expect("cold reply")
        .expect("cold tuning ok");
    assert!(cold.misses > 0, "cold session sweeps");
    assert_eq!(client.reconnects(), 0, "no failover yet");

    // Mid-run fault injection: SIGKILL the leader. No checkpoint, no
    // goodbye — the journal the follower shipped is the only record.
    leader.kill().expect("SIGKILL delivered");
    leader.wait().expect("leader reaped");

    // The follower must notice, promote, and take over the socket; the
    // client must ride through and see warm state.
    let ships = promoted_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("follower promoted");
    assert!(ships > 0, "journal batches were shipped before the kill");

    let token = client
        .submit(rpcload::windowed_request(3.0))
        .expect("warm submits (through reconnect)");
    let warm = client
        .await_result(token)
        .expect("warm reply")
        .expect("warm tuning ok");
    assert!(client.reconnects() >= 1, "the client rode through a death");
    assert_eq!(
        warm.misses, 0,
        "zero lost acknowledged publishes: every window the acknowledged \
         cold session published is served warm by the promoted follower"
    );
    assert!(
        warm.hits >= baseline_hits,
        "post-failover warm-hit volume ({}) is no worse than the \
         single-process restart baseline ({baseline_hits})",
        warm.hits
    );

    done.store(true, Ordering::Relaxed);
    follower_thread.join().expect("follower thread clean");
    let _ = std::fs::remove_file(&sock);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}
