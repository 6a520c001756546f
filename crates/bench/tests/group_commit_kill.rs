//! Fault-injection for journal group commit: a real `fleetd` child
//! `SIGKILL`ed immediately after acknowledging a session, with a torn
//! final batch appended for good measure.
//!
//! Group commit buffers journal records in memory and flushes once per
//! reactor event-loop drain — which moves the durability hazard from
//! "between two syscalls" to "an acknowledged reply racing its batch's
//! flush". The contract under test is the same one the follower
//! watermark enforces for replication: **acknowledged ⇒ on disk**. The
//! reply to a session is gated on the store's pending cursor and only
//! released after the batch containing its publishes is durable, so a
//! `kill -9` delivered the instant the client hears back must lose
//! nothing the client was told about. Unacknowledged tail records are
//! legitimately lost — and a *torn* final batch (the kill landing
//! mid-`write`) must degrade into today's torn-tail recovery: truncate,
//! replay the well-formed prefix, keep serving.
//!
//! The test:
//!
//! 1. pins a seed whose cold session publishes and whose warm re-submit
//!    fully hits (same scan as `failover_replay.rs`);
//! 2. measures the graceful-halt restart baseline's warm-hit volume;
//! 3. runs a cold session against a `fleetd` child (group commit on by
//!    default), `kill -9`s it the moment the reply arrives, appends a
//!    torn record to the journal tail, and asserts: recovery truncates
//!    the tear, replays the acknowledged batch, and a reopened service
//!    serves every acknowledged publish warm — hit volume no worse than
//!    the graceful baseline.

use std::path::{Path, PathBuf};
use std::time::Duration;

use vaqem_bench::rpcload;
use vaqem_fleet_rpc::client::RpcClient;
use vaqem_fleet_service::{DurableMitigationStore, FleetService};
use vaqem_mathkit::rng::SeedStream;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vaqem-gckill-{tag}-{}", std::process::id()));
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
/// re-submit fully hits (the pattern of `failover_replay.rs`).
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

/// The bar the kill must clear: warm-hit volume after a *graceful* halt
/// (journal flushed on drop) and reopen of the same store.
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

/// Connects to the child's socket, retrying while it boots.
fn connect_patiently(sock: &Path) -> RpcClient {
    let mut delay = Duration::from_millis(20);
    for _ in 0..10 {
        if let Ok(client) = RpcClient::connect_unix(sock) {
            return client;
        }
        std::thread::sleep(delay);
        delay = (delay * 2).min(Duration::from_secs(1));
    }
    RpcClient::connect_unix(sock).expect("fleetd socket reachable")
}

#[test]
fn sigkill_at_the_ack_loses_no_acknowledged_publish_and_tolerates_a_torn_batch() {
    let seed = accepting_seed();
    let baseline_hits = restart_baseline(seed);

    let dir = temp_dir("store");
    let sock = std::env::temp_dir().join(format!("vaqem-gckill-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);

    // The daemon under test: a real child process. It inherits
    // VAQEM_JOURNAL_MODE, so it runs group commit (the default) unless
    // the test run sets per_record.
    let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_fleetd"))
        .arg("--unix")
        .arg(&sock)
        .arg("--store-dir")
        .arg(&dir)
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
        .expect("fleetd spawns");

    let mut client = connect_patiently(&sock);
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout set");
    client.open("c0").expect("identity opens");
    let token = client
        .submit(rpcload::windowed_request(1.0))
        .expect("cold submits");
    let cold = client
        .await_result(token)
        .expect("cold reply")
        .expect("cold tuning ok");
    assert!(cold.misses > 0, "cold session sweeps and publishes");

    // The kill, delivered the instant the acknowledgment arrived. The
    // reply was gated on the publishes' pending cursor and released only
    // after the group-commit flush covered it, so everything the client
    // was just told about must already be on disk.
    daemon.kill().expect("SIGKILL delivered");
    daemon.wait().expect("daemon reaped");

    // A torn final batch on top: a record header claiming more bytes
    // than exist, as if the kill had landed mid-write of a later batch.
    {
        use std::io::Write;
        let mut journal = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("store.journal"))
            .expect("journal exists");
        journal
            .write_all(&[200, 0, 0, 0, 9, 9, 9])
            .expect("torn tail appended");
    }

    // Recovery replays the acknowledged batch and truncates the tear —
    // unacknowledged tail loss never corrupts replay.
    {
        let store = DurableMitigationStore::open(&dir, 4, 128).expect("recovery tolerates tear");
        assert!(
            store.recovery().journal_truncated,
            "the torn batch was detected and truncated"
        );
        assert!(
            store.recovery().journal_records > 0,
            "the acknowledged batch replayed from the journal"
        );
        assert!(!store.is_empty(), "replayed entries are live");
    }

    // The reopened service serves every acknowledged publish warm.
    let service = open_windowed(&dir, seed);
    let warm = service
        .submit(rpcload::windowed_request(3.0))
        .recv()
        .expect("worker alive")
        .expect("warm tuning ok");
    assert_eq!(
        warm.misses, 0,
        "zero lost acknowledged publishes: every window the acknowledged \
         cold session published survives the SIGKILL"
    );
    assert!(
        warm.hits >= baseline_hits,
        "post-kill warm-hit volume ({}) is no worse than the graceful-halt \
         baseline ({baseline_hits})",
        warm.hits
    );
    service.halt();
    let _ = std::fs::remove_file(&sock);
    let _ = std::fs::remove_dir_all(&dir);
}
