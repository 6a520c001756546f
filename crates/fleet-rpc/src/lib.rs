//! # vaqem-fleet-rpc
//!
//! The wire-protocol front-end of the VAQEM fleet daemon: remote
//! clients speak **VQRP** — length-prefixed binary frames over TCP or
//! Unix-domain sockets — and land on the *same* reactor event queue,
//! fairness lanes, and quota ledger as in-process callers. The session
//! payloads are `vaqem-fleet-service`'s own types serialized verbatim
//! with the durable store's handwritten codec discipline, so a greedy
//! remote tenant is refused with exactly the typed
//! `SessionError::Quota` an in-process one sees.
//!
//! Three layers:
//!
//! - [`wire`] — the frame grammar: preamble (magic + version), tag
//!   bytes, bodies. Pure data, no I/O.
//! - [`server`] — the `SocketDriver` the reactor thread runs: it owns
//!   the listener and every connection, does the nonblocking
//!   accept/read/write in the reactor's readiness wait, and keeps all
//!   protocol state. Slow readers hit a soft bound (typed `Overloaded`
//!   rejection) and then a hard bound (forced close); either way no
//!   socket call ever blocks the reactor thread, so one stuck peer
//!   cannot stall other tenants.
//! - [`client`] — a small blocking client used by the `loadgen`
//!   harness and the integration tests.
//!
//! Plus the availability layer on top: [`failover`] wraps the client in
//! reconnect-with-backoff so sessions in flight when a leader daemon
//! dies are resubmitted (same tokens) against the follower that
//! promotes onto the same address, and the wire grammar carries the
//! replication pair (`JournalAck`/`JournalShip`) a follower uses to
//! stream the leader's journal.
//!
//! ```no_run
//! use vaqem_fleet_rpc::client::RpcClient;
//! # fn main() -> std::io::Result<()> {
//! let mut client = RpcClient::connect_tcp("127.0.0.1:7878")?;
//! client.open("tenant-3")?;
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod failover;
mod readiness;
pub mod server;
pub mod wire;

pub use client::RpcClient;
pub use failover::{FailoverClient, FailoverTarget};
pub use server::{RpcListener, RpcServer, RpcServerConfig};
pub use wire::{check_preamble, preamble, Frame, PreambleError, MAGIC, PREAMBLE_LEN, VERSION};
