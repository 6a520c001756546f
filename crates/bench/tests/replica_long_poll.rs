//! The replication long poll, in one process: a `FleetService` behind an
//! `RpcServer` on a private Unix socket (the windowed fixture, so a
//! session publishes real journal records), followed by a raw
//! `RpcClient` that speaks `JournalAck`/`JournalShip` itself, or by a
//! `Follower`.
//!
//! The contract under test:
//!
//! - (a) an ack at the leader's own cursor is held: it is answered only
//!   once a session publishes, and the batches end at the leader's
//!   cursor;
//! - (b) the session's reply stays pending until the follower acks the
//!   records shipped to it, and then arrives;
//! - (c) an idle parked follower gets an empty batch at its own cursor
//!   within a second (the leader's heartbeat is about 100 ms);
//! - (d) `Follower::run` on an idle leader syncs about once per
//!   heartbeat, never in a tight loop, and returns `Stopped` within a
//!   second of its stop flag;
//! - (e) a parked follower still gets its heartbeats while the leader
//!   handles only events that journal nothing;
//! - (f) stopping the server forgets its followers, so a later
//!   in-process reply is not held for an ack that can never come.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use vaqem_bench::rpcload;
use vaqem_fleet_replica::{Follower, FollowerExit, ReplicaConfig};
use vaqem_fleet_rpc::client::RpcClient;
use vaqem_fleet_rpc::server::{RpcListener, RpcServer, RpcServerConfig};
use vaqem_fleet_rpc::FailoverTarget;
use vaqem_fleet_service::FleetService;
use vaqem_mathkit::rng::SeedStream;
use vaqem_runtime::{ShipBatch, ShipCursor};

/// How long an idle follower may wait for its heartbeat.
const HEARTBEAT_BOUND: Duration = Duration::from_secs(1);
/// How long anything behind a tuning session may take (debug builds
/// tune slowly).
const SESSION_BOUND: Duration = Duration::from_secs(120);

/// A leader daemon on a private Unix socket.
struct Leader {
    dir: PathBuf,
    sock: PathBuf,
    service: FleetService,
    server: RpcServer,
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vaqem-longpoll-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn open_windowed(dir: &Path, seed: u64) -> FleetService {
    FleetService::open(
        rpcload::windowed_service_config(dir.join("store")),
        vec![rpcload::windowed_device(0, seed)],
        rpcload::windowed_problem(),
        SeedStream::new(seed),
    )
    .expect("service opens")
}

/// A seed whose cold session the guard accepts, so that it publishes (a
/// rejected session journals nothing). Scanned, as in
/// `failover_replay.rs`: rejection under shot noise is legitimate. The
/// scan runs once per binary, so tests running in parallel never share
/// its directories.
fn publishing_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        (5150..5214)
            .find(|&seed| {
                let dir = temp_dir(&format!("scan-{seed}"));
                let service = open_windowed(&dir, seed);
                let cold = service
                    .submit(rpcload::windowed_request(1.0))
                    .recv()
                    .expect("worker alive")
                    .expect("tuning ok");
                service.halt();
                let _ = std::fs::remove_dir_all(&dir);
                !cold.guard_rejected && cold.misses > 0
            })
            .expect("no seed in 5150..5214 lets the cold guard accept")
    })
}

impl Leader {
    fn start(tag: &str, seed: u64) -> Leader {
        let dir = temp_dir(tag);
        let sock = dir.join("leader.sock");
        let service = open_windowed(&dir, seed);
        let listener = RpcListener::bind_unix(&sock).expect("socket binds");
        let server =
            RpcServer::serve(&service, listener, RpcServerConfig::default()).expect("serves");
        Leader {
            dir,
            sock,
            service,
            server,
        }
    }

    fn journal_ships(&self) -> u64 {
        self.service.metrics_report().events.journal_ships
    }

    fn stop(self) {
        self.server.stop();
        self.service.shutdown().expect("checkpoint");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A raw follower connection on its own thread: every cursor sent on
/// the first channel is acked with one `journal_sync`, and the batch
/// that answers it comes back on the second.
fn raw_follower(leader: &Leader) -> (Sender<ShipCursor>, Receiver<ShipBatch>) {
    let mut client = RpcClient::connect_unix(&leader.sock).expect("follower connects");
    client
        .set_read_timeout(Some(SESSION_BOUND))
        .expect("timeout set");
    let (ack_tx, ack_rx) = mpsc::channel();
    let (ship_tx, ship_rx) = mpsc::channel();
    thread::spawn(move || {
        for cursor in ack_rx {
            let Ok(batch) = client.journal_sync(cursor) else {
                break;
            };
            if ship_tx.send(batch).is_err() {
                break;
            }
        }
    });
    (ack_tx, ship_rx)
}

/// Subscribes a raw follower: `(0, 0)` is behind every live journal, so
/// it is answered at once with a snapshot at the leader's cursor.
fn bootstrap(leader: &Leader, ack: &Sender<ShipCursor>, ships: &Receiver<ShipBatch>) -> ShipCursor {
    ack.send(ShipCursor::default())
        .expect("follower thread alive");
    let boot = ships.recv_timeout(SESSION_BOUND).expect("bootstrap ships");
    assert!(boot.snapshot, "a (0, 0) ack bootstraps from a snapshot");
    assert_eq!(boot.cursor, leader.service.store().ship_cursor());
    boot.cursor
}

#[test]
fn a_caught_up_ack_waits_for_the_commit_and_the_reply_waits_for_the_ack() {
    let leader = Leader::start("commit", publishing_seed());
    let store = leader.service.store();
    let (ack, ships) = raw_follower(&leader);
    let start = bootstrap(&leader, &ack, &ships);

    // (a) An ack at the leader's cursor is held, not answered with an
    // empty batch (the heartbeat is far longer than this wait).
    ack.send(start).expect("follower thread alive");
    assert!(
        ships.recv_timeout(Duration::from_millis(30)).is_err(),
        "a caught-up ack was answered before anything was journaled"
    );

    // Follow the journal while a session publishes, until the follower
    // holds every record: the session has completed, nothing is
    // buffered, and the last batch ends at the leader's cursor. Each
    // answer is a heartbeat at the follower's own cursor or a batch
    // ahead of it, and the reply stays pending while the follower holds
    // records it has not acked.
    let reply = leader.service.submit(rpcload::windowed_request(1.0));
    let mut cursor = start;
    loop {
        let batch = ships
            .recv_timeout(SESSION_BOUND)
            .expect("the leader answers the held ack");
        if batch.payload.is_empty() {
            assert_eq!(
                batch.cursor, cursor,
                "a heartbeat carries the follower's cursor"
            );
        } else {
            assert!(
                !batch.snapshot && batch.cursor > cursor,
                "{batch:?} after {cursor:?}"
            );
            assert!(
                matches!(reply.try_recv(), Err(TryRecvError::Empty)),
                "(b) the reply left before the follower acked the records shipped to it"
            );
        }
        cursor = batch.cursor;
        let settled = leader.service.metrics_report().events.completions == 1
            && store.pending_cursor() == store.ship_cursor();
        if settled && cursor == store.ship_cursor() {
            break;
        }
        ack.send(cursor).expect("follower thread alive");
    }
    assert!(cursor > start, "(a) the session journaled nothing");

    // (b) Completed, flushed and shipped: only the follower's ack is
    // missing, so the reply is still held; the ack releases it.
    assert!(
        matches!(reply.try_recv(), Err(TryRecvError::Empty)),
        "(b) the reply left before the follower acked the session's records"
    );
    ack.send(cursor).expect("follower thread alive");
    reply
        .recv_timeout(SESSION_BOUND)
        .expect("the follower's ack releases the reply")
        .expect("tuning ok");

    // (c) That ack found the follower caught up; the leader is idle, so
    // a heartbeat answers it.
    let beat = ships
        .recv_timeout(HEARTBEAT_BOUND)
        .expect("(c) an idle parked follower hears a heartbeat");
    assert!(beat.payload.is_empty() && !beat.snapshot, "{beat:?}");
    assert_eq!(
        beat.cursor, cursor,
        "a heartbeat carries the follower's cursor"
    );
    leader.stop();
}

#[test]
fn an_idle_follower_syncs_once_per_heartbeat_and_stops_within_one() {
    let leader = Leader::start("idle", 5150);
    let mut follower = Follower::connect(ReplicaConfig::new(
        FailoverTarget::Unix(leader.sock.clone()),
        leader.dir.join("follower"),
    ))
    .expect("follower connects");
    assert!(
        follower.sync_once().expect("bootstrap"),
        "the snapshot applies"
    );
    let stop = Arc::new(AtomicBool::new(false));
    let (exit_tx, exit_rx) = mpsc::channel();
    let flag = Arc::clone(&stop);
    thread::spawn(move || {
        let exit = follower.run(&flag);
        let _ = exit_tx.send(exit);
    });

    // (d) An idle follower's syncs are paced by the leader's heartbeat
    // (about 100 ms): a handful per half second, never a tight loop.
    let before = leader.journal_ships();
    thread::sleep(Duration::from_millis(500));
    let ships = leader.journal_ships() - before;
    assert!(
        (1..=10).contains(&ships),
        "an idle follower synced {ships} times in 500 ms"
    );

    stop.store(true, Ordering::Relaxed);
    match exit_rx.recv_timeout(HEARTBEAT_BOUND) {
        Ok(FollowerExit::Stopped) => {}
        other => panic!("expected Stopped within {HEARTBEAT_BOUND:?}, got {other:?}"),
    }
    leader.stop();
}

#[test]
fn heartbeats_flow_while_the_leader_handles_events_that_journal_nothing() {
    let leader = Leader::start("busy", 5150);
    let (ack, ships) = raw_follower(&leader);
    let start = bootstrap(&leader, &ack, &ships);
    ack.send(start).expect("follower thread alive");

    // (e) Metrics requests keep the reactor busy with events, none of
    // which moves the journal, so its wait for the next event never
    // times out; the held ack must still be answered.
    let began = Instant::now();
    let beat = loop {
        let _ = leader.service.metrics_report();
        match ships.try_recv() {
            Ok(batch) => break batch,
            Err(TryRecvError::Empty) => assert!(
                began.elapsed() < HEARTBEAT_BOUND,
                "(e) no heartbeat within {HEARTBEAT_BOUND:?} on a busy leader"
            ),
            Err(TryRecvError::Disconnected) => panic!("the follower lost the leader"),
        }
    };
    assert!(beat.payload.is_empty() && !beat.snapshot, "{beat:?}");
    assert_eq!(
        beat.cursor, start,
        "a heartbeat carries the follower's cursor"
    );
    leader.stop();
}

#[test]
fn a_stopped_server_stops_gating_replies_on_its_followers() {
    let leader = Leader::start("stopped", publishing_seed());
    let (ack, ships) = raw_follower(&leader);
    bootstrap(&leader, &ack, &ships);
    let Leader {
        dir,
        service,
        server,
        ..
    } = leader;

    // (f) The follower's connection dies with the server. A publishing
    // session's reply must not wait for that follower's ack.
    server.stop();
    service
        .submit(rpcload::windowed_request(1.0))
        .recv_timeout(SESSION_BOUND)
        .expect("(f) the stopped server's follower still gates the reply")
        .expect("tuning ok");
    service.shutdown().expect("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}
