//! Multi-tenant fairness for the fleet reactor: per-device
//! deficit-round-robin weighted fair queueing across clients.
//!
//! The PR 3 daemon drained each device FIFO, so one tenant's backlog
//! head-of-line-blocked every other tenant on that device. The reactor
//! instead asks a [`DeviceArbiter`] for the next session whenever a
//! device frees up. The arbiter is a thin daemon-facing wrapper around
//! the fleet-wide arbitration policy,
//! [`vaqem_runtime::fleet::DrrQueue`].
//!
//! # Semantics
//!
//! * One arbiter per device; one lane per client, created on first
//!   submission, weights resolved from [`FairnessConfig`].
//! * Each visit grants a lane `weight x quantum` minutes of deficit;
//!   the quantum is `quantum_sessions x` the per-session cost estimate,
//!   so with the default `quantum_sessions = 1.0` and uniform session
//!   estimates DRR degenerates to exact weighted round-robin.
//! * **Starvation-freedom**: a continuously-backlogged client's
//!   completed-session count never falls below its weight-proportional
//!   share by more than one session per device
//!   (`tests/fairness_props.rs` pins the bound under arbitrary arrival
//!   interleavings; the scenario grid asserts it end to end in every
//!   cell, and its bursty cells also check that light tenants finish
//!   inside the first rotation after a heavy backlog).

use vaqem_runtime::fleet::{DrrLaneSnapshot, DrrQueue};

/// Client-weight policy for the fair queues.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessConfig {
    /// Per-visit deficit grant, in units of one session's cost estimate
    /// (1.0 = every backlogged client is served at least `weight`
    /// sessions per rotation — the classic DRR regime where the quantum
    /// covers the costliest item).
    pub quantum_sessions: f64,
    /// Weight for clients without an override (must be positive).
    pub default_weight: u32,
    /// Per-client weight overrides.
    pub weights: Vec<(String, u32)>,
}

impl FairnessConfig {
    /// The weight applying to `client`.
    pub fn weight_of(&self, client: &str) -> u32 {
        self.weights
            .iter()
            .find(|(c, _)| c == client)
            .map(|&(_, w)| w)
            .unwrap_or(self.default_weight)
    }
}

impl Default for FairnessConfig {
    /// Equal weights, quantum of one session: plain round-robin across
    /// clients — the no-configuration fleet is already starvation-free.
    fn default() -> Self {
        FairnessConfig {
            quantum_sessions: 1.0,
            default_weight: 1,
            weights: Vec::new(),
        }
    }
}

/// One device's fair session queue: a [`DrrQueue`] plus the weight
/// policy, owned by the reactor thread.
#[derive(Debug)]
pub struct DeviceArbiter<T> {
    drr: DrrQueue<T>,
    config: FairnessConfig,
}

impl<T> DeviceArbiter<T> {
    /// Creates the arbiter for one device. `estimate_min` is the
    /// per-session cost estimate the DRR quantum is scaled from.
    ///
    /// # Panics
    ///
    /// Panics when the effective quantum
    /// (`quantum_sessions x estimate_min`) is not strictly positive, or
    /// when `default_weight` is zero.
    pub fn new(config: FairnessConfig, estimate_min: f64) -> Self {
        assert!(config.default_weight > 0, "default weight must be positive");
        // A zero estimate (degenerate profiles) still needs a positive
        // quantum for DRR to rotate.
        let quantum = (config.quantum_sessions * estimate_min).max(1e-9);
        DeviceArbiter {
            drr: DrrQueue::new(quantum),
            config,
        }
    }

    /// Queues a session for `client` at `cost_min`, creating the
    /// client's lane at its configured weight on first use.
    pub fn enqueue(&mut self, client: &str, cost_min: f64, item: T) {
        self.drr.register(client, self.config.weight_of(client));
        self.drr.enqueue(client, cost_min, item);
    }

    /// The next session under DRR, or `None` when the device's queue is
    /// empty.
    pub fn dispatch_next(&mut self) -> Option<(String, f64, T)> {
        self.drr.dispatch_next()
    }

    /// Sessions queued on this device.
    pub fn len(&self) -> usize {
        self.drr.len()
    }

    /// Returns `true` when no session is queued.
    pub fn is_empty(&self) -> bool {
        self.drr.is_empty()
    }

    /// Total estimated minutes queued on this device.
    pub fn backlog_min(&self) -> f64 {
        self.drr.backlog_min()
    }

    /// Per-client lane snapshots (deficit, weight, queue depth) in lane
    /// order — the fairness half of `FleetService::metrics_report`.
    pub fn lanes(&self) -> Vec<DrrLaneSnapshot> {
        self.drr.lanes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_resolve_with_overrides() {
        let config = FairnessConfig {
            default_weight: 2,
            weights: vec![("gold".into(), 6)],
            ..FairnessConfig::default()
        };
        assert_eq!(config.weight_of("gold"), 6);
        assert_eq!(config.weight_of("anyone-else"), 2);
    }

    #[test]
    fn arbiter_interleaves_heavy_and_light_tenants() {
        // The daemon regime: uniform session estimates, default weights.
        // A heavy tenant's burst of 4 queued sessions does not block two
        // light tenants submitting after it.
        let mut arbiter: DeviceArbiter<usize> = DeviceArbiter::new(FairnessConfig::default(), 2.5);
        for i in 0..4 {
            arbiter.enqueue("heavy", 2.5, i);
        }
        arbiter.enqueue("light-a", 2.5, 100);
        arbiter.enqueue("light-b", 2.5, 200);
        let order: Vec<String> =
            std::iter::from_fn(|| arbiter.dispatch_next().map(|(c, _, _)| c)).collect();
        assert_eq!(
            order[..3],
            ["heavy", "light-a", "light-b"].map(String::from)
        );
        assert_eq!(order[3..], ["heavy", "heavy", "heavy"].map(String::from));
        assert!(arbiter.is_empty());
    }

    #[test]
    fn weighted_tenant_gets_its_share() {
        let config = FairnessConfig {
            weights: vec![("gold".into(), 2)],
            ..FairnessConfig::default()
        };
        let mut arbiter: DeviceArbiter<()> = DeviceArbiter::new(config, 1.0);
        for _ in 0..4 {
            arbiter.enqueue("gold", 1.0, ());
            arbiter.enqueue("econ", 1.0, ());
        }
        let order: Vec<String> =
            std::iter::from_fn(|| arbiter.dispatch_next().map(|(c, _, _)| c)).collect();
        // Per rotation: two gold sessions, one econ.
        assert_eq!(
            order[..3],
            ["gold", "gold", "econ"].map(String::from),
            "weight-2 lane serves twice per rotation"
        );
    }

    #[test]
    fn snapshots_expose_deficits_and_depths() {
        let mut arbiter: DeviceArbiter<()> = DeviceArbiter::new(FairnessConfig::default(), 1.0);
        arbiter.enqueue("a", 1.0, ());
        arbiter.enqueue("b", 1.0, ());
        assert_eq!(arbiter.len(), 2);
        assert!((arbiter.backlog_min() - 2.0).abs() < 1e-12);
        let lanes = arbiter.lanes();
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].client, "a");
        assert_eq!(lanes[0].weight, 1);
    }

    #[test]
    fn zero_estimate_still_rotates() {
        let mut arbiter: DeviceArbiter<()> = DeviceArbiter::new(FairnessConfig::default(), 0.0);
        arbiter.enqueue("a", 0.0, ());
        arbiter.enqueue("b", 0.0, ());
        assert_eq!(arbiter.dispatch_next().unwrap().0, "a");
        assert_eq!(arbiter.dispatch_next().unwrap().0, "b");
    }
}
