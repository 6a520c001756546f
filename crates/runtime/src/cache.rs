//! The fleet-scale tuned-configuration store.
//!
//! The paper's per-idle-window EM tuning is the dominant machine-time cost
//! of the feasible flow (Fig. 15), yet its own transfer result (Fig. 8,
//! §IX) shows tuned choices carry across runs. [`ConfigStore`] is the
//! amortization vehicle: a bounded LRU map from `(device, calibration
//! epoch, window fingerprint)` to a tuned per-window choice, shared by
//! every client running against the same device.
//!
//! The store is deliberately generic over the fingerprint (`F`) and the
//! cached value (`V`): the core crate defines the concrete
//! `WindowFingerprint` (it needs circuit and noise types this crate must
//! not depend on), while this crate owns eviction, metrics, and the
//! invalidation contract.
//!
//! # Invalidation contract
//!
//! * The **calibration epoch is part of the key**: entries recorded under
//!   one calibration never answer lookups from another, so a recalibrated
//!   device misses naturally and re-tunes.
//! * [`ConfigStore::invalidate_before`] additionally *drops* every entry
//!   of a device older than a given epoch — wired to
//!   `vaqem_device::drift` recalibration crossings so dead entries do not
//!   squat in the LRU budget.
//! * [`ConfigStore::remove`] evicts a single entry; the warm-start tuner
//!   calls it when the acceptance guard rejects a cache-seeded
//!   configuration (the entry is stale even though its epoch is current).
//!
//! # Determinism
//!
//! The store itself is pure bookkeeping: lookups and insertions never
//! touch an RNG, and eviction order is decided by a monotonic use counter,
//! never by hash-map iteration order alone (ties are impossible). A fleet
//! replay that interacts with the store in a fixed order is therefore
//! bit-reproducible.

use std::collections::HashMap;
use std::hash::Hash;

/// Hit/miss/eviction counters for one [`ConfigStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheMetrics {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries written (fresh keys and overwrites alike).
    pub insertions: u64,
    /// Entries dropped to respect the capacity bound — and *only* those:
    /// capacity pressure and staleness are separate operational signals,
    /// so invalidation-driven removals never count here (pinned by
    /// `crate::store` tests).
    pub evictions: u64,
    /// Entries dropped by explicit invalidation ([`ConfigStore::remove`],
    /// [`ConfigStore::invalidate_before`],
    /// [`ConfigStore::invalidate_all_before`]).
    pub invalidations: u64,
}

impl CacheMetrics {
    /// Fraction of lookups answered from the store (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another counter set into this one — used to aggregate
    /// per-shard metrics (`crate::store::ShardedStore::metrics`).
    pub fn merge(&mut self, other: &CacheMetrics) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
    }

    /// Field-wise saturating difference `self - earlier` — what happened
    /// *between* two metric snapshots. This is the per-session
    /// attribution primitive: a daemon snapshots the store counters
    /// around one client's session and credits the delta to that
    /// client.
    /// Saturating, so a counter reset between snapshots yields zeros
    /// rather than wrapping.
    pub fn saturating_delta(&self, earlier: &CacheMetrics) -> CacheMetrics {
        CacheMetrics {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
        }
    }
}

/// Full key of one cached entry: device, calibration epoch, fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StoreKey<F> {
    device: String,
    epoch: u64,
    fingerprint: F,
}

#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

/// A bounded LRU store of tuned mitigation choices, keyed by
/// `(device, calibration epoch, fingerprint)`.
///
/// Implementation note: lookups build an owned key (one small `String`
/// allocation) and eviction at capacity scans all entries for the LRU
/// minimum — O(capacity) per insert once full. Both are deliberate: a
/// store access costs ~1 µs (see `bench_fleet_cache`) against the
/// ~10-100 ms of machine evaluations a single hit saves, and the flat
/// map keeps eviction trivially deterministic. Revisit with an intrusive
/// LRU list only if profiles ever show the store on a hot path.
///
/// ```
/// use vaqem_runtime::cache::ConfigStore;
///
/// let mut store: ConfigStore<u32, &str> = ConfigStore::new(2);
/// store.insert("dev-a", 0, 7, "two XY4 repetitions");
/// assert_eq!(store.get("dev-a", 0, &7), Some(&"two XY4 repetitions"));
/// assert_eq!(store.get("dev-a", 1, &7), None); // new epoch: natural miss
/// store.insert("dev-a", 0, 8, "centered gate");
/// store.insert("dev-a", 0, 9, "one XX repetition"); // evicts LRU (fp 8)
/// assert_eq!(store.len(), 2);
/// assert_eq!(store.metrics().hits, 1);
/// assert_eq!(store.metrics().evictions, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ConfigStore<F, V> {
    capacity: usize,
    map: HashMap<StoreKey<F>, Entry<V>>,
    clock: u64,
    metrics: CacheMetrics,
}

impl<F: Hash + Eq + Clone, V> ConfigStore<F, V> {
    /// Creates a store holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ConfigStore {
            capacity,
            map: HashMap::new(),
            clock: 0,
            metrics: CacheMetrics::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of entries before LRU eviction kicks in.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counters accumulated since creation (or the last
    /// [`Self::reset_metrics`]).
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// Zeroes the counters (entries are untouched).
    pub fn reset_metrics(&mut self) {
        self.metrics = CacheMetrics::default();
    }

    /// Drops every entry without touching the traffic counters — a
    /// replication snapshot install, not client traffic (the same
    /// exemption recovery inserts get).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    fn key(device: &str, epoch: u64, fingerprint: F) -> StoreKey<F> {
        StoreKey {
            device: device.to_string(),
            epoch,
            fingerprint,
        }
    }

    /// Looks up the cached value for a fingerprint on a device at a
    /// calibration epoch, recording a hit or miss and refreshing the
    /// entry's LRU position.
    pub fn get(&mut self, device: &str, epoch: u64, fingerprint: &F) -> Option<&V> {
        self.clock += 1;
        let key = Self::key(device, epoch, fingerprint.clone());
        match self.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.clock;
                self.metrics.hits += 1;
                Some(&entry.value)
            }
            None => {
                self.metrics.misses += 1;
                None
            }
        }
    }

    /// Like [`Self::get`] but without touching metrics or LRU order
    /// (diagnostics and tests).
    pub fn peek(&self, device: &str, epoch: u64, fingerprint: &F) -> Option<&V> {
        self.map
            .get(&Self::key(device, epoch, fingerprint.clone()))
            .map(|e| &e.value)
    }

    /// Inserts (or overwrites) an entry, evicting the least-recently-used
    /// entry first when the store is at capacity.
    pub fn insert(&mut self, device: &str, epoch: u64, fingerprint: F, value: V) {
        self.clock += 1;
        let key = Self::key(device, epoch, fingerprint);
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            // Unique use counters make the LRU minimum unambiguous, so
            // eviction is deterministic despite hash-map iteration.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.metrics.evictions += 1;
            }
        }
        self.metrics.insertions += 1;
        self.map.insert(
            key,
            Entry {
                value,
                last_used: self.clock,
            },
        );
    }

    /// Drops one entry, returning whether it existed. Used when the
    /// acceptance guard rejects a cache-seeded configuration: the entry is
    /// stale even though its epoch is current.
    pub fn remove(&mut self, device: &str, epoch: u64, fingerprint: &F) -> bool {
        let existed = self
            .map
            .remove(&Self::key(device, epoch, fingerprint.clone()))
            .is_some();
        if existed {
            self.metrics.invalidations += 1;
        }
        existed
    }

    /// Drops every entry of `device` with an epoch strictly before
    /// `epoch`, returning how many were dropped — the drift-invalidation
    /// hook, called when a device crosses a recalibration boundary.
    pub fn invalidate_before(&mut self, device: &str, epoch: u64) -> usize {
        let before = self.map.len();
        self.map
            .retain(|k, _| !(k.device == device && k.epoch < epoch));
        let dropped = before - self.map.len();
        self.metrics.invalidations += dropped as u64;
        dropped
    }

    /// Drops every entry with an epoch strictly before `epoch`, whatever
    /// its device — the per-shard leg of a fleet-wide drift broadcast
    /// (`crate::store::ShardedStore::invalidate_all_before`).
    pub fn invalidate_all_before(&mut self, epoch: u64) -> usize {
        let before = self.map.len();
        self.map.retain(|k, _| k.epoch >= epoch);
        let dropped = before - self.map.len();
        self.metrics.invalidations += dropped as u64;
        dropped
    }

    /// Every live entry as `(device, epoch, fingerprint, value)`, ordered
    /// oldest-to-newest by LRU recency — the persistence snapshot order:
    /// re-inserting the entries in this order into an empty store
    /// reproduces both the content and the eviction order.
    pub fn export_entries(&self) -> Vec<(String, u64, F, V)>
    where
        V: Clone,
    {
        let mut entries: Vec<(&StoreKey<F>, &Entry<V>)> = self.map.iter().collect();
        entries.sort_by_key(|(_, e)| e.last_used);
        entries
            .into_iter()
            .map(|(k, e)| {
                (
                    k.device.clone(),
                    k.epoch,
                    k.fingerprint.clone(),
                    e.value.clone(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let mut s: ConfigStore<u64, u32> = ConfigStore::new(8);
        assert_eq!(s.get("d", 0, &1), None);
        s.insert("d", 0, 1, 42);
        assert_eq!(s.get("d", 0, &1), Some(&42));
        assert_eq!(s.get("d", 1, &1), None, "epoch is part of the key");
        assert_eq!(s.get("e", 0, &1), None, "device is part of the key");
        let m = s.metrics();
        assert_eq!((m.hits, m.misses, m.insertions), (1, 3, 1));
        assert!((m.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_is_by_recency() {
        let mut s: ConfigStore<u64, u32> = ConfigStore::new(2);
        s.insert("d", 0, 1, 10);
        s.insert("d", 0, 2, 20);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(s.get("d", 0, &1), Some(&10));
        s.insert("d", 0, 3, 30);
        assert_eq!(s.len(), 2);
        assert!(s.peek("d", 0, &1).is_some());
        assert!(s.peek("d", 0, &2).is_none(), "LRU entry evicted");
        assert!(s.peek("d", 0, &3).is_some());
        assert_eq!(s.metrics().evictions, 1);
    }

    #[test]
    fn overwrite_does_not_evict() {
        let mut s: ConfigStore<u64, u32> = ConfigStore::new(2);
        s.insert("d", 0, 1, 10);
        s.insert("d", 0, 2, 20);
        s.insert("d", 0, 1, 11);
        assert_eq!(s.len(), 2);
        assert_eq!(s.peek("d", 0, &1), Some(&11));
        assert_eq!(s.metrics().evictions, 0);
    }

    #[test]
    fn invalidate_before_drops_only_stale_epochs_of_that_device() {
        let mut s: ConfigStore<u64, u32> = ConfigStore::new(16);
        s.insert("a", 0, 1, 1);
        s.insert("a", 1, 1, 2);
        s.insert("a", 2, 1, 3);
        s.insert("b", 0, 1, 4);
        let dropped = s.invalidate_before("a", 2);
        assert_eq!(dropped, 2);
        assert!(s.peek("a", 2, &1).is_some());
        assert!(s.peek("b", 0, &1).is_some(), "other devices untouched");
        assert_eq!(s.len(), 2);
        assert_eq!(s.metrics().invalidations, 2);
    }

    #[test]
    fn remove_counts_invalidation() {
        let mut s: ConfigStore<u64, u32> = ConfigStore::new(4);
        s.insert("d", 0, 1, 10);
        assert!(s.remove("d", 0, &1));
        assert!(!s.remove("d", 0, &1));
        assert_eq!(s.metrics().invalidations, 1);
        assert!(s.is_empty());
    }

    #[test]
    fn saturating_delta_attributes_a_window() {
        let earlier = CacheMetrics {
            hits: 3,
            misses: 1,
            insertions: 1,
            evictions: 0,
            invalidations: 0,
        };
        let later = CacheMetrics {
            hits: 5,
            misses: 4,
            insertions: 2,
            evictions: 1,
            invalidations: 0,
        };
        let delta = later.saturating_delta(&earlier);
        assert_eq!((delta.hits, delta.misses), (2, 3));
        assert_eq!(
            (delta.insertions, delta.evictions, delta.invalidations),
            (1, 1, 0)
        );
        // A counter reset between snapshots saturates to zero.
        let reset = CacheMetrics::default().saturating_delta(&later);
        assert_eq!(reset, CacheMetrics::default());
    }

    #[test]
    fn empty_metrics_hit_rate_is_zero() {
        let s: ConfigStore<u64, u32> = ConfigStore::new(1);
        assert_eq!(s.metrics().hit_rate(), 0.0);
        assert_eq!(s.capacity(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _: ConfigStore<u64, u32> = ConfigStore::new(0);
    }

    #[test]
    fn export_preserves_lru_order_and_roundtrips() {
        let mut s: ConfigStore<u64, u32> = ConfigStore::new(8);
        s.insert("d", 0, 1, 10);
        s.insert("d", 0, 2, 20);
        s.insert("e", 1, 3, 30);
        assert_eq!(s.get("d", 0, &1), Some(&10)); // refresh 1: now newest
        let exported = s.export_entries();
        assert_eq!(exported.len(), 3);
        assert_eq!(exported.last().unwrap().2, 1, "refreshed entry is newest");
        // Re-inserting in export order reproduces content and LRU order.
        let mut r: ConfigStore<u64, u32> = ConfigStore::new(8);
        for (d, ep, f, v) in exported {
            r.insert(&d, ep, f, v);
        }
        assert_eq!(r.export_entries(), s.export_entries());
    }

    #[test]
    fn invalidate_all_before_sweeps_every_device() {
        let mut s: ConfigStore<u64, u32> = ConfigStore::new(8);
        s.insert("a", 0, 1, 1);
        s.insert("b", 0, 1, 2);
        s.insert("b", 2, 1, 3);
        assert_eq!(s.invalidate_all_before(1), 2);
        assert_eq!(s.len(), 1);
        assert!(s.peek("b", 2, &1).is_some());
        assert_eq!(s.metrics().invalidations, 2);
    }
}
