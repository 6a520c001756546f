//! Serving adds no OS thread: socket I/O runs on the reactor thread, so
//! a `FleetService` behind an `RpcServer` has exactly the threads the
//! service opened with (the reactor and its worker pool).
//!
//! This is its own test binary because it counts the threads of the
//! whole process; a sibling test running in parallel would move the
//! count.

#![cfg(target_os = "linux")]

use vaqem_bench::rpcload;
use vaqem_fleet_rpc::client::RpcClient;
use vaqem_fleet_rpc::server::{RpcListener, RpcServer, RpcServerConfig};
use vaqem_fleet_service::FleetService;
use vaqem_mathkit::rng::SeedStream;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn serving_adds_no_os_thread() {
    let dir = std::env::temp_dir().join(format!("vaqem-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let service = FleetService::open(
        rpcload::windowed_service_config(dir.join("store")),
        vec![rpcload::windowed_device(0, 5150)],
        rpcload::windowed_problem(),
        SeedStream::new(5150),
    )
    .expect("service opens");
    let opened = threads();

    let sock = dir.join("s.sock");
    let listener = RpcListener::bind_unix(&sock).expect("socket binds");
    let server = RpcServer::serve(&service, listener, RpcServerConfig::default()).expect("serves");
    let mut client = RpcClient::connect_unix(&sock).expect("client connects");
    client.open("c0").expect("open round trip");
    let token = client
        .submit(rpcload::windowed_request(1.0))
        .expect("submits");
    client
        .await_result(token)
        .expect("reply")
        .expect("tuning ok");
    let serving = threads();
    assert_eq!(
        serving, opened,
        "serving over RPC changed the thread count from {opened} to {serving}"
    );

    client.shutdown().expect("acked goodbye");
    server.stop();
    service.shutdown().expect("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}
