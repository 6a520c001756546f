//! Multi-tenant fairness for the fleet reactor: per-device
//! deficit-round-robin weighted fair queueing across clients.
//!
//! The PR 3 daemon drained each device FIFO, so one tenant's backlog
//! head-of-line-blocked every other tenant on that device. The reactor
//! instead keeps one [`vaqem_runtime::fleet::DrrQueue`] per device and
//! asks it for the next session whenever the device frees up; this
//! module holds the weight policy those queues are built from.
//!
//! # Semantics
//!
//! * One queue per device; one lane per client, created on first
//!   submission at the weight [`FairnessConfig::weight_of`] resolves.
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
    /// Per-client weight overrides (each must be positive).
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

    /// The DRR quantum for sessions estimated at `estimate_min` minutes:
    /// `quantum_sessions x estimate_min`, clamped positive so a zero
    /// estimate (degenerate profiles) still rotates.
    pub(crate) fn quantum_min(&self, estimate_min: f64) -> f64 {
        (self.quantum_sessions * estimate_min).max(1e-9)
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

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_runtime::fleet::DrrQueue;

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
    fn zero_estimate_still_rotates() {
        let config = FairnessConfig {
            quantum_sessions: 2.0,
            ..FairnessConfig::default()
        };
        assert_eq!(config.quantum_min(1.5), 3.0);
        // A zero estimate still yields a positive quantum, which DRR
        // needs to rotate.
        let quantum = config.quantum_min(0.0);
        assert!(quantum > 0.0);
        let mut queue: DrrQueue<()> = DrrQueue::new(quantum);
        queue.enqueue("a", 0.0, ());
        queue.enqueue("b", 0.0, ());
        assert_eq!(queue.dispatch_next().unwrap().0, "a");
        assert_eq!(queue.dispatch_next().unwrap().0, "b");
    }
}
