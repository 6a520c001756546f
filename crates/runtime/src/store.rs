//! The store-backend abstraction and the sharded, lock-striped store.
//!
//! PR 2's [`crate::cache::ConfigStore`] is a single-owner LRU map: perfect
//! for a deterministic replay, useless for a daemon where many client
//! threads tune concurrently. This module splits the two concerns:
//!
//! * [`StoreBackend`] is the interface the warm-start tuner actually
//!   needs — lookup, publish, discard, drift invalidation — extracted
//!   from `ConfigStore`'s inherent API so the tuner can run unchanged
//!   against a plain store, a sharded store, or a persistent store.
//! * [`ShardedStore`] stripes one `ConfigStore` per shard behind its own
//!   `Mutex`, routing by a stable hash of the **device name** only. Two
//!   clients tuning different devices touch different locks; clients on
//!   the same device serialize on one shard, which is exactly the
//!   physical contention model (a tuning session holds the machine).
//!
//! # Shard routing
//!
//! The shard of a device is `fnv1a(device) % num_shards`: a pure function
//! of the device's own name and the shard count. Adding, removing, or
//! relabeling *other* devices can never move a device's entries between
//! shards, and two store instances with the same shard count always agree
//! (`tests/fleet_store_props.rs` pins both properties).
//!
//! # Contention metrics
//!
//! Every shard counts lock acquisitions and the subset that found the
//! lock already held (`try_lock` failed and the caller had to block).
//! A healthy fleet layout — distinct devices on distinct shards, one
//! tuning session per device at a time — shows zero cross-device
//! contention, which `tests/fleet_service.rs` and the fleet daemon's
//! metrics test assert.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

use crate::cache::{CacheMetrics, ConfigStore};
use std::hash::Hash;

/// The store interface the warm-start tuner runs against.
///
/// Methods take `&mut self` so the single-owner [`ConfigStore`] can
/// implement them directly; shared backends ([`ShardedStore`] behind an
/// `Arc`, `DurableStore` in [`crate::persist`]) use interior locking and
/// implement the trait for their `Arc` handles, where `&mut self` costs
/// nothing.
///
/// ```
/// use std::sync::Arc;
/// use vaqem_runtime::cache::ConfigStore;
/// use vaqem_runtime::store::{ShardedStore, StoreBackend};
///
/// // Code written against the trait runs unchanged on a deterministic
/// // single-owner store and on a shared sharded store.
/// fn warm_lookup<S: StoreBackend<u64, u32>>(store: &mut S) -> Option<u32> {
///     store.lookup("dev", 0, &7)
/// }
/// let mut plain: ConfigStore<u64, u32> = ConfigStore::new(8);
/// plain.insert("dev", 0, 7, 42);
/// assert_eq!(warm_lookup(&mut plain), Some(42));
///
/// let mut shared = Arc::new(ShardedStore::<u64, u32>::new(2, 8));
/// StoreBackend::publish(&mut shared, "dev", 0, 7, 43);
/// assert_eq!(warm_lookup(&mut shared), Some(43));
/// ```
pub trait StoreBackend<F, V> {
    /// Looks up the cached value for a fingerprint on a device at a
    /// calibration epoch, recording a hit or miss.
    fn lookup(&mut self, device: &str, epoch: u64, fingerprint: &F) -> Option<V>;

    /// Publishes a guard-accepted value (insert or overwrite).
    fn publish(&mut self, device: &str, epoch: u64, fingerprint: F, value: V);

    /// Drops one entry (guard rejection of a cache-seeded config),
    /// returning whether it existed.
    fn discard(&mut self, device: &str, epoch: u64, fingerprint: &F) -> bool;

    /// Drops every entry of `device` with an epoch strictly before
    /// `epoch` — the drift-invalidation hook. Returns how many dropped.
    fn invalidate_device_before(&mut self, device: &str, epoch: u64) -> usize;

    /// A copy of the backend's aggregate hit/miss/eviction counters.
    fn metrics_snapshot(&self) -> CacheMetrics;
}

impl<F: Hash + Eq + Clone, V: Clone> StoreBackend<F, V> for ConfigStore<F, V> {
    fn lookup(&mut self, device: &str, epoch: u64, fingerprint: &F) -> Option<V> {
        self.get(device, epoch, fingerprint).cloned()
    }

    fn publish(&mut self, device: &str, epoch: u64, fingerprint: F, value: V) {
        self.insert(device, epoch, fingerprint, value);
    }

    fn discard(&mut self, device: &str, epoch: u64, fingerprint: &F) -> bool {
        self.remove(device, epoch, fingerprint)
    }

    fn invalidate_device_before(&mut self, device: &str, epoch: u64) -> usize {
        self.invalidate_before(device, epoch)
    }

    fn metrics_snapshot(&self) -> CacheMetrics {
        *self.metrics()
    }
}

/// 64-bit FNV-1a — the stable, dependency-free device-routing hash.
/// (`std`'s `DefaultHasher` is explicitly unstable across releases, which
/// would silently re-route persisted shards after a toolchain bump.)
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One shard: a `ConfigStore` behind a mutex plus lock-traffic counters.
#[derive(Debug)]
struct Shard<F, V> {
    store: Mutex<ConfigStore<F, V>>,
    acquisitions: AtomicU64,
    contended: AtomicU64,
}

impl<F: Hash + Eq + Clone, V> Shard<F, V> {
    /// The counted lock, used by the client-traffic paths (lookups and
    /// mutations): acquisitions and blocked acquisitions feed the
    /// contention metrics.
    fn lock(&self) -> MutexGuard<'_, ConfigStore<F, V>> {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        match self.store.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.store.lock().expect("shard lock poisoned")
            }
            Err(TryLockError::Poisoned(_)) => panic!("shard lock poisoned"),
        }
    }

    /// The uncounted lock, used by observer paths (`metrics`, `len`,
    /// `shard_metrics`, `export_entries`, `reset_metrics`): monitoring a
    /// live store must not register as client contention, or a dashboard
    /// poll racing a tuning session would break the zero-cross-device-
    /// contention invariant the fleet daemon's tests assert.
    fn lock_quiet(&self) -> MutexGuard<'_, ConfigStore<F, V>> {
        self.store.lock().expect("shard lock poisoned")
    }
}

/// Per-shard observability snapshot: cache counters plus lock traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// Live entries in the shard.
    pub entries: usize,
    /// The shard's cache counters.
    pub cache: CacheMetrics,
    /// Total lock acquisitions on the shard.
    pub lock_acquisitions: u64,
    /// Acquisitions that found the lock held and had to block — the
    /// contention signal.
    pub lock_contended: u64,
}

/// A lock-striped config store: one [`ConfigStore`] per shard, routed by
/// device name, safe to share across threads (`&self` API throughout).
///
/// ```
/// use std::sync::Arc;
/// use vaqem_runtime::store::ShardedStore;
///
/// let store: Arc<ShardedStore<u64, &str>> = Arc::new(ShardedStore::new(4, 64));
/// store.insert("fleet-east", 0, 7, "two XY4 repetitions");
/// assert_eq!(store.lookup("fleet-east", 0, &7), Some("two XY4 repetitions"));
/// assert_eq!(store.lookup("fleet-west", 0, &7), None);
/// // Routing is a pure function of the device's own name:
/// assert_eq!(store.shard_of("fleet-east"), store.shard_of("fleet-east"));
/// ```
#[derive(Debug)]
pub struct ShardedStore<F, V> {
    shards: Vec<Shard<F, V>>,
}

impl<F: Hash + Eq + Clone, V> ShardedStore<F, V> {
    /// Creates a store with `num_shards` shards of `capacity_per_shard`
    /// LRU entries each.
    ///
    /// # Panics
    ///
    /// Panics when either argument is zero.
    pub fn new(num_shards: usize, capacity_per_shard: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        ShardedStore {
            shards: (0..num_shards)
                .map(|_| Shard {
                    store: Mutex::new(ConfigStore::new(capacity_per_shard)),
                    acquisitions: AtomicU64::new(0),
                    contended: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `device` routes to — depends only on the device's
    /// own name and the shard count.
    pub fn shard_of(&self, device: &str) -> usize {
        (fnv1a(device.as_bytes()) % self.shards.len() as u64) as usize
    }

    fn shard(&self, device: &str) -> &Shard<F, V> {
        &self.shards[self.shard_of(device)]
    }

    /// Looks up a fingerprint on the device's shard, recording hit/miss
    /// there.
    pub fn lookup(&self, device: &str, epoch: u64, fingerprint: &F) -> Option<V>
    where
        V: Clone,
    {
        self.shard(device)
            .lock()
            .get(device, epoch, fingerprint)
            .cloned()
    }

    /// Inserts (or overwrites) an entry on the device's shard.
    pub fn insert(&self, device: &str, epoch: u64, fingerprint: F, value: V) {
        self.shard(device)
            .lock()
            .insert(device, epoch, fingerprint, value);
    }

    /// Drops one entry, returning whether it existed.
    pub fn remove(&self, device: &str, epoch: u64, fingerprint: &F) -> bool {
        self.shard(device).lock().remove(device, epoch, fingerprint)
    }

    /// Drops every entry of `device` older than `epoch` from its shard.
    pub fn invalidate_before(&self, device: &str, epoch: u64) -> usize {
        self.shard(device).lock().invalidate_before(device, epoch)
    }

    /// Drops every entry older than `epoch` on **every** shard, whatever
    /// its device — the fleet-wide drift broadcast. Returns the total
    /// dropped.
    pub fn invalidate_all_before(&self, epoch: u64) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().invalidate_all_before(epoch))
            .sum()
    }

    /// Drops every entry on every shard without touching the traffic
    /// counters — a replication snapshot install, not client traffic
    /// (see [`crate::cache::ConfigStore::clear`]).
    pub fn clear_all(&self) {
        for shard in &self.shards {
            shard.lock_quiet().clear();
        }
    }

    /// Total live entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock_quiet().len()).sum()
    }

    /// Returns `true` when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate cache counters summed over shards.
    pub fn metrics(&self) -> CacheMetrics {
        let mut total = CacheMetrics::default();
        for s in &self.shards {
            total.merge(s.lock_quiet().metrics());
        }
        total
    }

    /// Per-shard observability snapshots, in shard order.
    pub fn shard_metrics(&self) -> Vec<ShardMetrics> {
        (0..self.shards.len())
            .map(|i| self.shard_metrics_of(i))
            .collect()
    }

    /// One shard's observability snapshot, touching **only** that
    /// shard's lock (quietly). Observers watching a single device —
    /// e.g. a worker measuring its own session's counter delta — must
    /// use this rather than sweeping [`Self::shard_metrics`]: a full
    /// sweep briefly holds every shard's mutex, which a concurrent
    /// counted access on an unrelated shard would register as
    /// contention.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard_metrics_of(&self, shard: usize) -> ShardMetrics {
        let s = &self.shards[shard];
        let guard = s.lock_quiet();
        ShardMetrics {
            shard,
            entries: guard.len(),
            cache: *guard.metrics(),
            lock_acquisitions: s.acquisitions.load(Ordering::Relaxed),
            lock_contended: s.contended.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every shard's cache counters (entries and lock counters are
    /// untouched).
    pub fn reset_metrics(&self) {
        for s in &self.shards {
            s.lock_quiet().reset_metrics();
        }
    }

    /// Every live entry as `(device, epoch, fingerprint, value)`: shard 0
    /// first, each shard's entries oldest-to-newest in LRU order — the
    /// order the persistence snapshot writes, so a reload into an
    /// equally-sharded store reproduces per-shard LRU order exactly.
    pub fn export_entries(&self) -> Vec<(String, u64, F, V)>
    where
        V: Clone,
    {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.lock_quiet().export_entries());
        }
        out
    }
}

impl<F: Hash + Eq + Clone, V: Clone> StoreBackend<F, V> for ShardedStore<F, V> {
    fn lookup(&mut self, device: &str, epoch: u64, fingerprint: &F) -> Option<V> {
        ShardedStore::lookup(self, device, epoch, fingerprint)
    }

    fn publish(&mut self, device: &str, epoch: u64, fingerprint: F, value: V) {
        ShardedStore::insert(self, device, epoch, fingerprint, value);
    }

    fn discard(&mut self, device: &str, epoch: u64, fingerprint: &F) -> bool {
        ShardedStore::remove(self, device, epoch, fingerprint)
    }

    fn invalidate_device_before(&mut self, device: &str, epoch: u64) -> usize {
        ShardedStore::invalidate_before(self, device, epoch)
    }

    fn metrics_snapshot(&self) -> CacheMetrics {
        self.metrics()
    }
}

/// Shared handles implement the backend too: each worker thread clones
/// the `Arc` and hands the tuner its own `&mut Arc<...>`, while all
/// mutation goes through the shard locks.
impl<F: Hash + Eq + Clone, V: Clone> StoreBackend<F, V> for std::sync::Arc<ShardedStore<F, V>> {
    fn lookup(&mut self, device: &str, epoch: u64, fingerprint: &F) -> Option<V> {
        ShardedStore::lookup(self, device, epoch, fingerprint)
    }

    fn publish(&mut self, device: &str, epoch: u64, fingerprint: F, value: V) {
        ShardedStore::insert(self, device, epoch, fingerprint, value);
    }

    fn discard(&mut self, device: &str, epoch: u64, fingerprint: &F) -> bool {
        ShardedStore::remove(self, device, epoch, fingerprint)
    }

    fn invalidate_device_before(&mut self, device: &str, epoch: u64) -> usize {
        ShardedStore::invalidate_before(self, device, epoch)
    }

    fn metrics_snapshot(&self) -> CacheMetrics {
        self.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn routing_is_pure_and_stable() {
        let a: ShardedStore<u64, u32> = ShardedStore::new(8, 16);
        let b: ShardedStore<u64, u32> = ShardedStore::new(8, 16);
        for name in ["fleet-east", "fleet-west", "ibmq_casablanca", "x"] {
            assert_eq!(a.shard_of(name), b.shard_of(name));
            assert_eq!(a.shard_of(name), a.shard_of(name));
            assert!(a.shard_of(name) < 8);
        }
    }

    #[test]
    fn sharded_basic_flow() {
        let s: ShardedStore<u64, u32> = ShardedStore::new(4, 8);
        assert_eq!(s.lookup("d", 0, &1), None);
        s.insert("d", 0, 1, 42);
        assert_eq!(s.lookup("d", 0, &1), Some(42));
        assert_eq!(s.lookup("d", 1, &1), None, "epoch is part of the key");
        assert_eq!(s.len(), 1);
        let m = s.metrics();
        assert_eq!((m.hits, m.misses, m.insertions), (1, 2, 1));
        assert!(s.remove("d", 0, &1));
        assert!(s.is_empty());
    }

    #[test]
    fn invalidation_routes_and_broadcasts() {
        let s: ShardedStore<u64, u32> = ShardedStore::new(4, 8);
        s.insert("a", 0, 1, 1);
        s.insert("a", 1, 1, 2);
        s.insert("b", 0, 1, 3);
        assert_eq!(s.invalidate_before("a", 1), 1);
        assert_eq!(s.lookup("b", 0, &1), Some(3), "other devices untouched");
        assert_eq!(
            s.invalidate_all_before(1),
            1,
            "broadcast sweeps every shard"
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup("a", 1, &1), Some(2));
    }

    #[test]
    fn shard_metrics_report_per_shard_traffic() {
        let s: ShardedStore<u64, u32> = ShardedStore::new(2, 8);
        s.insert("d", 0, 1, 10);
        s.lookup("d", 0, &1);
        let per = s.shard_metrics();
        assert_eq!(per.len(), 2);
        let busy = &per[s.shard_of("d")];
        assert_eq!(busy.entries, 1);
        assert_eq!(busy.cache.hits, 1);
        assert!(busy.lock_acquisitions >= 2);
        let idle = &per[1 - s.shard_of("d")];
        assert_eq!(idle.entries, 0);
    }

    #[test]
    fn concurrent_inserts_land_once() {
        let s: Arc<ShardedStore<u64, u64>> = Arc::new(ShardedStore::new(4, 1024));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for k in 0..64u64 {
                        s.insert("shared", 0, k, t * 1000 + k);
                        assert!(ShardedStore::lookup(&s, "shared", 0, &k).is_some());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.len(), 64, "same keys overwrite, never duplicate");
        let total: u64 = s.shard_metrics().iter().map(|m| m.lock_acquisitions).sum();
        assert!(total >= 8 * 64 * 2);
    }

    #[test]
    fn backend_trait_dispatch_matches_inherent() {
        let mut s: ShardedStore<u64, u32> = ShardedStore::new(2, 8);
        StoreBackend::publish(&mut s, "d", 0, 5, 50);
        assert_eq!(StoreBackend::lookup(&mut s, "d", 0, &5), Some(50));
        assert_eq!(StoreBackend::invalidate_device_before(&mut s, "d", 1), 1);
        assert!(!StoreBackend::discard(&mut s, "d", 0, &5));
        let mut arc = Arc::new(ShardedStore::<u64, u32>::new(2, 8));
        StoreBackend::publish(&mut arc, "d", 0, 5, 51);
        assert_eq!(StoreBackend::lookup(&mut arc, "d", 0, &5), Some(51));
        assert_eq!(arc.metrics_snapshot().hits, 1);
    }

    #[test]
    #[should_panic(expected = "shard")]
    fn zero_shards_rejected() {
        let _: ShardedStore<u64, u32> = ShardedStore::new(0, 8);
    }

    #[test]
    fn aggregate_metrics_split_evictions_from_invalidations() {
        // Capacity pressure and staleness are different operational
        // signals: an LRU overflow must count *only* as an eviction and
        // an explicit removal / drift invalidation *only* as an
        // invalidation — in each shard's counters and in the fleet-wide
        // aggregation alike. Pinned here so no future path can fold one
        // counter into the other.
        let s: ShardedStore<u64, u32> = ShardedStore::new(2, 2);
        // Two device names that provably land on different shards.
        let names: Vec<String> = (0..32).map(|i| format!("fleet-dev-{i}")).collect();
        let a = names[0].as_str();
        let b = names[1..]
            .iter()
            .find(|n| s.shard_of(n) != s.shard_of(a))
            .expect("some name routes to the other shard")
            .as_str();

        // Device A overflows its shard's capacity: exactly one eviction.
        s.insert(a, 0, 1, 10);
        s.insert(a, 0, 2, 20);
        s.insert(a, 0, 3, 30);
        // Device B takes one explicit removal and one drift invalidation.
        s.insert(b, 0, 1, 40);
        s.insert(b, 0, 2, 50);
        assert!(s.remove(b, 0, &1));
        assert_eq!(s.invalidate_before(b, 1), 1);

        let shard_a = &s.shard_metrics()[s.shard_of(a)];
        assert_eq!(
            (shard_a.cache.evictions, shard_a.cache.invalidations),
            (1, 0),
            "capacity overflow is eviction-only"
        );
        let shard_b = &s.shard_metrics()[s.shard_of(b)];
        assert_eq!(
            (shard_b.cache.evictions, shard_b.cache.invalidations),
            (0, 2),
            "removal + drift are invalidation-only"
        );
        let total = s.metrics();
        assert_eq!((total.evictions, total.invalidations), (1, 2));
        assert_eq!(total.insertions, 5);
    }
}
