//! # vaqem-fleet-replica
//!
//! Multi-process replication for the VAQEM fleet daemon. Two pieces
//! turn a single `fleetd` into a leader and follower pair:
//!
//! - **Journal shipping** ([`ReplicaApplier`]): a follower keeps a
//!   cursor `(generation, offset)` into the leader's `VQJL` journal and
//!   applies the byte-exact record slices (or a snapshot bootstrap) the
//!   leader ships over the VQRP `JournalAck`/`JournalShip` frame pair.
//!   Record replay goes through the follower's *own* journaled mutation
//!   paths, so the follower's on-disk state is always openable — which
//!   is exactly what promotion does.
//! - **Failover** ([`Follower`]): the sync loop that drives a live
//!   follower process, notices leader death (EOF on the replication
//!   connection), and [`Follower::promote`]s — reopening the replicated
//!   store as a fresh [`FleetService`] and taking over the leader's
//!   socket so reconnecting [`vaqem_fleet_rpc::FailoverClient`]s land
//!   on warm state.
//!
//! The pull-based protocol keeps the leader stateless about follower
//! progress beyond a per-connection watermark: the follower's
//! `JournalAck{cursor}` both acknowledges durability up to `cursor`
//! (releasing the leader's gated replies) and requests the next batch.
//! It is a long poll: the leader holds an ack that finds the follower
//! caught up until its next group commit moves the journal, and answers
//! it with an empty batch if a heartbeat (about 100 ms) passes first.
//! So the follower never sleeps, and a reply waits on the follower's
//! apply, not on its next poll. A follower always starts from its *own*
//! durable cursor — a fresh follower acks `(0, 0)`, which never matches
//! a live journal and so provokes a snapshot bootstrap.

#![deny(missing_docs)]

use std::hash::Hash;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use vaqem::vqe::VqeProblem;
use vaqem::window_tuner::{StoredChoice, WindowFingerprint};
use vaqem_fleet_rpc::client::RpcClient;
use vaqem_fleet_rpc::server::{RpcListener, RpcServer, RpcServerConfig};
use vaqem_fleet_rpc::FailoverTarget;
use vaqem_fleet_service::{DeviceSpec, FleetService, FleetServiceConfig};
use vaqem_mathkit::rng::SeedStream;
use vaqem_runtime::persist::{Codec, DurableStore};
use vaqem_runtime::{ShipBatch, ShipCursor};

/// Cursor-deduplicating apply layer over a [`DurableStore`]: the pure
/// core of a follower, usable without sockets (the replication
/// proptests drive it directly against `ShipBatch`es).
///
/// Invariant: `cursor()` is exactly the leader position whose effects
/// are durably applied locally. Batches at or behind the cursor are
/// ignored (duplicate or reordered delivery is idempotent); batches
/// ahead of it advance it.
pub struct ReplicaApplier<F, V> {
    store: DurableStore<F, V>,
    cursor: ShipCursor,
    ships_applied: u64,
    records_applied: u64,
    snapshots_applied: u64,
}

impl<F, V> ReplicaApplier<F, V>
where
    F: Codec + Hash + Eq + Clone,
    V: Codec + Clone,
{
    /// Wraps an already-open store. The cursor starts at the default
    /// `(0, 0)`, which no live journal ever matches — the first sync
    /// therefore bootstraps via snapshot, eliminating any divergence a
    /// stale local state could cause.
    pub fn new(store: DurableStore<F, V>) -> Self {
        ReplicaApplier {
            store,
            cursor: ShipCursor::default(),
            ships_applied: 0,
            records_applied: 0,
            snapshots_applied: 0,
        }
    }

    /// Opens (or creates) the follower store under `dir` and wraps it.
    ///
    /// # Errors
    ///
    /// Store open failures (I/O, bad snapshot/journal headers).
    pub fn open(dir: &Path, num_shards: usize, capacity_per_shard: usize) -> io::Result<Self> {
        Ok(Self::new(DurableStore::open(
            dir,
            num_shards,
            capacity_per_shard,
        )?))
    }

    /// The leader-journal position durably applied locally — what the
    /// follower acks.
    pub fn cursor(&self) -> ShipCursor {
        self.cursor
    }

    /// Ship batches applied (i.e. not dropped as duplicates).
    pub fn ships_applied(&self) -> u64 {
        self.ships_applied
    }

    /// Individual journal records replayed across all applied batches.
    pub fn records_applied(&self) -> u64 {
        self.records_applied
    }

    /// Snapshot bootstraps performed.
    pub fn snapshots_applied(&self) -> u64 {
        self.snapshots_applied
    }

    /// The wrapped store (read access — e.g. entry counts in tests).
    pub fn store(&self) -> &DurableStore<F, V> {
        &self.store
    }

    /// Applies one shipped batch if it advances the cursor; returns
    /// `true` if it did, `false` for duplicate/stale batches (including
    /// the empty heartbeat the leader sends when nothing is new).
    ///
    /// # Errors
    ///
    /// `InvalidData` for torn or malformed shipped payloads, plus local
    /// journal I/O failures. The cursor does not advance on error.
    pub fn apply(&mut self, batch: &ShipBatch) -> io::Result<bool> {
        if batch.cursor <= self.cursor {
            return Ok(false);
        }
        let records = self.store.apply_ship(batch)?;
        self.cursor = batch.cursor;
        self.ships_applied += 1;
        if batch.snapshot {
            self.snapshots_applied += 1;
        }
        self.records_applied += records as u64;
        Ok(true)
    }
}

/// How a [`Follower`] connects and stores.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// The leader's socket address.
    pub leader: FailoverTarget,
    /// Directory for the follower's replicated store.
    pub store_dir: PathBuf,
    /// Store geometry — match the leader's [`FleetServiceConfig`] so a
    /// promotion reopens with identical sharding.
    pub shards: usize,
    /// Per-shard capacity, as above.
    pub capacity_per_shard: usize,
}

impl ReplicaConfig {
    /// A config with default geometry, which should be overridden to
    /// match the leader.
    pub fn new(leader: FailoverTarget, store_dir: PathBuf) -> Self {
        ReplicaConfig {
            leader,
            store_dir,
            shards: 4,
            capacity_per_shard: 128,
        }
    }
}

/// Read timeout on the replication connection. A SIGKILLed leader
/// yields EOF immediately, but a wedged one only trips this. It must
/// exceed the leader's heartbeat (about 100 ms): an idle leader answers
/// a caught-up sync only when the heartbeat falls due, and a shorter
/// timeout would read that as leader death.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Why [`Follower::run`] returned.
#[derive(Debug)]
pub enum FollowerExit {
    /// The replication connection died — the leader is gone. Time to
    /// [`Follower::promote`].
    LeaderDied(io::Error),
    /// The stop flag was raised.
    Stopped,
}

/// A live follower process: an open replicated store plus the VQRP
/// connection it syncs over. Drive it with [`Follower::run`] (or
/// [`Follower::sync_once`] for test-controlled pacing), then
/// [`Follower::promote`] when the leader dies.
pub struct Follower {
    applier: MitigationReplica,
    client: RpcClient,
    config: ReplicaConfig,
}

impl Follower {
    /// Opens the follower store and connects to the leader, retrying
    /// the connection for a few seconds (a follower is often launched
    /// in the same breath as its leader).
    ///
    /// # Errors
    ///
    /// Store open failures, or the leader never appearing.
    pub fn connect(config: ReplicaConfig) -> io::Result<Self> {
        let applier =
            ReplicaApplier::open(&config.store_dir, config.shards, config.capacity_per_shard)?;
        let mut last_err: io::Error = io::ErrorKind::NotConnected.into();
        for attempt in 0..200u32 {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(50));
            }
            match Self::dial(&config) {
                Ok(client) => {
                    return Ok(Follower {
                        applier,
                        client,
                        config,
                    })
                }
                Err(e) => last_err = e,
            }
        }
        Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("follower: leader never appeared: {last_err}"),
        ))
    }

    fn dial(config: &ReplicaConfig) -> io::Result<RpcClient> {
        let mut client = config.leader.connect()?;
        client.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(client)
    }

    /// The leader-journal position durably applied locally.
    pub fn cursor(&self) -> ShipCursor {
        self.applier.cursor()
    }

    /// The apply layer (cursor, counters, store) — read access for
    /// tests and promotion-time reporting.
    pub fn applier(&self) -> &MitigationReplica {
        &self.applier
    }

    /// One ack→ship round-trip: acks the current cursor, applies
    /// whatever the leader ships. Returns `true` if the batch advanced
    /// the cursor (i.e. something new arrived).
    ///
    /// A follower that is behind gets its batch at once. A caught-up
    /// one blocks until the leader's journal moves, or for up to one
    /// leader heartbeat (about 100 ms) before an empty batch returns
    /// `false`.
    ///
    /// # Errors
    ///
    /// Connection failures (how leader death surfaces) or malformed
    /// shipped payloads.
    pub fn sync_once(&mut self) -> io::Result<bool> {
        let batch = self.client.journal_sync(self.applier.cursor())?;
        self.applier.apply(&batch)
    }

    /// Syncs until the stop flag is raised or the leader dies. Each
    /// sync is a long poll the leader answers when it has something to
    /// ship or a heartbeat falls due, so the loop never sleeps and sees
    /// the flag within one heartbeat.
    pub fn run(&mut self, stop: &AtomicBool) -> FollowerExit {
        while !stop.load(Ordering::Relaxed) {
            if let Err(e) = self.sync_once() {
                return FollowerExit::LeaderDied(e);
            }
        }
        FollowerExit::Stopped
    }

    /// Promotion: closes the replication connection and the store
    /// handle, reopens the replicated directory as a live
    /// [`FleetService`] (journal replay — the follower's own journal
    /// re-recorded everything it applied), and takes over `listener` —
    /// for Unix sockets, [`RpcListener::bind_unix`] removes the dead
    /// leader's stale socket file, so the caller binds the *leader's*
    /// address and clients reconnect to warm state.
    ///
    /// `config.store_dir` is overridden with the follower's own
    /// directory — promotion serves the replicated state, nothing else.
    ///
    /// # Errors
    ///
    /// Service open or serve failures.
    pub fn promote(
        self,
        mut config: FleetServiceConfig,
        devices: Vec<DeviceSpec>,
        problem: VqeProblem,
        seeds: SeedStream,
        listener: RpcListener,
        rpc_config: RpcServerConfig,
    ) -> io::Result<(FleetService, RpcServer)> {
        config.store_dir = self.config.store_dir.clone();
        // Release the journal + shard locks before the service reopens
        // the same directory.
        drop(self.client);
        drop(self.applier);
        let service = FleetService::open(config, devices, problem, seeds)?;
        let server = RpcServer::serve(&service, listener, rpc_config)?;
        Ok((service, server))
    }
}

/// Type alias for the applier specialised to the fleet daemon's store
/// — the thing a [`Follower`] wraps.
pub type MitigationReplica = ReplicaApplier<WindowFingerprint, StoredChoice>;

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_runtime::persist::DurableStore;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vaqem-replica-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn applier_dedupes_and_advances() {
        let leader_dir = tmp("lead");
        let follower_dir = tmp("follow");
        let leader: DurableStore<u64, u64> = DurableStore::open(&leader_dir, 2, 32).unwrap();
        leader.insert("dev", 1, 10, 100);
        leader.insert("dev", 1, 11, 110);

        let mut replica: ReplicaApplier<u64, u64> =
            ReplicaApplier::open(&follower_dir, 2, 32).unwrap();
        // Fresh follower acks (0,0) -> snapshot bootstrap.
        let batch = leader.ship_since(ShipCursor::default()).unwrap();
        assert!(batch.snapshot);
        assert!(replica.apply(&batch).unwrap());
        assert_eq!(replica.store().len(), 2);
        assert_eq!(replica.cursor(), batch.cursor);
        assert_eq!(replica.snapshots_applied(), 1);

        // Re-delivering the same batch is a no-op.
        assert!(!replica.apply(&batch).unwrap());
        assert_eq!(replica.ships_applied(), 1);

        // Incremental records after the bootstrap.
        leader.insert("dev", 2, 12, 120);
        let delta = leader.ship_since(replica.cursor()).unwrap();
        assert!(!delta.snapshot);
        assert!(replica.apply(&delta).unwrap());
        assert_eq!(replica.store().len(), 3);

        // Promotion contract: the follower's own journal re-recorded
        // everything, so a plain reopen sees the full state.
        let reopened: DurableStore<u64, u64> = DurableStore::open(&follower_dir, 2, 32).unwrap();
        assert_eq!(reopened.len(), 3);

        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn stale_and_reordered_batches_are_ignored() {
        let leader_dir = tmp("lead2");
        let follower_dir = tmp("follow2");
        let leader: DurableStore<u64, u64> = DurableStore::open(&leader_dir, 2, 32).unwrap();
        let mut replica: ReplicaApplier<u64, u64> =
            ReplicaApplier::open(&follower_dir, 2, 32).unwrap();

        let boot = leader.ship_since(ShipCursor::default()).unwrap();
        replica.apply(&boot).unwrap();
        let c0 = replica.cursor();

        leader.insert("a", 1, 1, 1);
        let b1 = leader.ship_since(c0).unwrap();
        leader.insert("a", 1, 2, 2);
        let b2 = leader.ship_since(c0).unwrap();

        // Apply the later batch first; the earlier one is then stale.
        assert!(replica.apply(&b2).unwrap());
        assert!(!replica.apply(&b1).unwrap());
        assert_eq!(replica.store().len(), 2);

        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }
}
