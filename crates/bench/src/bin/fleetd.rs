//! `fleetd` — the fleet daemon as a standalone process: opens the
//! durable store, starts the reactor, and serves the VQRP wire protocol
//! on a TCP or Unix-domain socket until told to stop. With
//! `--follow-*` it is instead the *follower* half of a replica pair:
//! it streams the leader's journal into its own durable store and, when
//! the leader dies, promotes — reopening the replicated store as a live
//! service and taking over the serve address.
//!
//! ```text
//! fleetd [--store-dir DIR] [--unix PATH | --tcp ADDR]
//!        [--follow-unix PATH | --follow-tcp ADDR]
//!        [--devices N] [--windowed] [--run-secs S]
//! ```
//!
//! * `--store-dir DIR` — durable store location (default: a fresh
//!   per-process directory under the system temp dir). Point it at an
//!   existing directory to recover that store on startup.
//! * `--unix PATH` — serve on a Unix socket at `PATH` (a stale socket
//!   file from a killed predecessor is replaced).
//! * `--tcp ADDR` — serve on `ADDR` (default `127.0.0.1:0`; the bound
//!   address is printed, so port 0 works for scripting).
//! * `--follow-unix PATH` / `--follow-tcp ADDR` — follower mode:
//!   replicate the leader at that address into `--store-dir`; on leader
//!   death, promote and serve on this process's own `--unix`/`--tcp`
//!   (pass the leader's address there to take over its socket).
//! * `--devices N` — fleet size (default 4).
//! * `--windowed` — use the 3-qubit windowed fixture instead of the
//!   light 2-qubit one: real idle windows, real cache traffic — what
//!   the replication tests replicate.
//! * `--run-secs S` — exit after `S` seconds; without it the daemon
//!   runs until stdin reaches EOF (so `fleetd &` with a closed stdin,
//!   or a CI step killing the background process, both work).
//!
//! The root seed comes from `VAQEM_SEED` via `root_seed_from_env`. On
//! exit the daemon shuts down gracefully: checkpoint written, metrics
//! report printed.

use std::io::Read;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vaqem_bench::rpcload;
use vaqem_fleet_replica::{Follower, FollowerExit, ReplicaConfig};
use vaqem_fleet_rpc::server::{RpcListener, RpcServer, RpcServerConfig};
use vaqem_fleet_rpc::FailoverTarget;
use vaqem_fleet_service::{DeviceSpec, FleetService};
use vaqem_mathkit::rng::{root_seed_from_env, SeedStream};

const DEFAULT_ROOT_SEED: u64 = 7077;

struct Args {
    store_dir: Option<PathBuf>,
    unix: Option<PathBuf>,
    tcp: Option<String>,
    follow: Option<FailoverTarget>,
    devices: usize,
    windowed: bool,
    run_secs: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        store_dir: None,
        unix: None,
        tcp: None,
        follow: None,
        devices: 4,
        windowed: false,
        run_secs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--store-dir" => args.store_dir = Some(PathBuf::from(value("--store-dir"))),
            "--unix" => args.unix = Some(PathBuf::from(value("--unix"))),
            "--tcp" => args.tcp = Some(value("--tcp")),
            "--follow-unix" => {
                args.follow = Some(FailoverTarget::Unix(PathBuf::from(value("--follow-unix"))))
            }
            "--follow-tcp" => args.follow = Some(FailoverTarget::Tcp(value("--follow-tcp"))),
            "--devices" => args.devices = value("--devices").parse().expect("--devices: integer"),
            "--windowed" => args.windowed = true,
            "--run-secs" => {
                args.run_secs = Some(value("--run-secs").parse().expect("--run-secs: integer"))
            }
            other => panic!("unknown flag {other} (see the module docs)"),
        }
    }
    assert!(
        args.unix.is_none() || args.tcp.is_none(),
        "--unix and --tcp are mutually exclusive"
    );
    assert!(args.devices > 0, "--devices must be positive");
    args
}

/// The fleet this process serves: `--devices` devices of the fixture.
fn fixture_devices(args: &Args, seed: u64) -> Vec<DeviceSpec> {
    (0..args.devices)
        .map(|i| {
            if args.windowed {
                rpcload::windowed_device(i, seed)
            } else {
                rpcload::device(i, seed)
            }
        })
        .collect()
}

fn fixture_config(args: &Args, store_dir: PathBuf) -> vaqem_fleet_service::FleetServiceConfig {
    if args.windowed {
        rpcload::windowed_service_config(store_dir)
    } else {
        rpcload::service_config(store_dir)
    }
}

fn fixture_problem(args: &Args) -> vaqem::vqe::VqeProblem {
    if args.windowed {
        rpcload::windowed_problem()
    } else {
        rpcload::problem()
    }
}

fn bind_listener(args: &Args) -> RpcListener {
    match (&args.unix, &args.tcp) {
        (Some(path), _) => RpcListener::bind_unix(path).expect("unix socket binds"),
        (None, Some(addr)) => RpcListener::bind_tcp(addr.as_str()).expect("tcp binds"),
        (None, None) => RpcListener::bind_tcp("127.0.0.1:0").expect("tcp binds"),
    }
}

/// Raises `stop` when the configured lifetime ends: after `--run-secs`,
/// or at stdin EOF — the conventional "run until the parent lets go"
/// daemon contract for scripts and CI.
fn spawn_lifetime_watch(run_secs: Option<u64>, stop: Arc<AtomicBool>) {
    std::thread::spawn(move || {
        match run_secs {
            Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs)),
            None => {
                let mut sink = Vec::new();
                let _ = std::io::stdin().read_to_end(&mut sink);
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
}

fn wait_for(stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

fn serve_until_stopped(service: FleetService, server: RpcServer, stop: &AtomicBool) {
    wait_for(stop);
    // Read the report first: stopping the server detaches its driver,
    // and the RPC counters go with it.
    let report = service.metrics_report();
    server.stop();
    println!("{report}");
    service.shutdown().expect("checkpoint");
    println!("fleetd: graceful shutdown complete");
}

fn main() {
    let args = parse_args();
    let seed = root_seed_from_env(DEFAULT_ROOT_SEED);
    let store_dir = args.store_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("vaqem-fleetd-{}", std::process::id()))
    });
    let stop = Arc::new(AtomicBool::new(false));
    spawn_lifetime_watch(args.run_secs, Arc::clone(&stop));

    if let Some(leader) = args.follow.clone() {
        // Follower mode: replicate until the leader dies, then promote
        // onto our own serve address (usually the leader's — takeover).
        let replica = ReplicaConfig::new(leader, store_dir.clone());
        let mut follower = Follower::connect(replica).expect("follower connects to leader");
        println!(
            "fleetd: following leader into store {} (cursor {:?})",
            store_dir.display(),
            follower.cursor()
        );
        match follower.run(&stop) {
            FollowerExit::Stopped => {
                println!(
                    "fleetd: follower stopped at cursor {:?} ({} ships applied)",
                    follower.cursor(),
                    follower.applier().ships_applied()
                );
            }
            FollowerExit::LeaderDied(err) => {
                println!(
                    "fleetd: leader died ({err}); promoting at cursor {:?} \
                     ({} ships, {} records, {} snapshots applied)",
                    follower.cursor(),
                    follower.applier().ships_applied(),
                    follower.applier().records_applied(),
                    follower.applier().snapshots_applied()
                );
                let devices = fixture_devices(&args, seed);
                let listener = bind_listener(&args);
                let (service, server) = follower
                    .promote(
                        fixture_config(&args, store_dir.clone()),
                        devices,
                        fixture_problem(&args),
                        SeedStream::new(seed),
                        listener,
                        RpcServerConfig::default(),
                    )
                    .expect("promotion");
                println!(
                    "fleetd: promoted, store {}, seed {seed}, listening on {}",
                    store_dir.display(),
                    server.local_addr()
                );
                serve_until_stopped(service, server, &stop);
            }
        }
        return;
    }

    let devices = fixture_devices(&args, seed);
    let service = FleetService::open(
        fixture_config(&args, store_dir.clone()),
        devices,
        fixture_problem(&args),
        SeedStream::new(seed),
    )
    .expect("service opens");
    let listener = bind_listener(&args);
    let server = RpcServer::serve(&service, listener, RpcServerConfig::default()).expect("serves");
    println!(
        "fleetd: {} devices, store {}, seed {seed}, listening on {}",
        service.device_names().len(),
        store_dir.display(),
        server.local_addr()
    );
    serve_until_stopped(service, server, &stop);
}
