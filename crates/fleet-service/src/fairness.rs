//! Multi-tenant fairness for the fleet reactor: per-device weighted
//! round-robin across clients, counted in sessions.
//!
//! The PR 3 daemon drained each device FIFO, so one tenant's backlog
//! head-of-line-blocked every other tenant on that device. The reactor
//! instead keeps one [`FairQueue`] per device and asks it for the next
//! session whenever the device frees up; [`FairnessConfig`] holds the
//! weights those queues' lanes are created with.
//!
//! # Semantics
//!
//! * One queue per device; one lane per client, created on its first
//!   session at the weight [`FairnessConfig::weight_of`] resolves.
//! * Lanes are visited in creation order. One visit serves up to
//!   `weight` sessions; a lane found empty forfeits the rest of its
//!   visit, so an idle client banks nothing.
//! * Every session counts as one: the daemon prices all sessions at the
//!   same estimate, so a cost-weighted scheme (deficit round-robin)
//!   would compute exactly this order.
//! * **Starvation-freedom**: over any stretch of `window` dispatches
//!   during which a client of weight `w` stays backlogged, it is served
//!   at least `floor(window x w / W) - w` sessions, where `W` is the
//!   sum of the lanes' weights — at equal weights, its share minus one
//!   session per device (`tests/fairness_props.rs` pins the bound under
//!   arbitrary arrival interleavings; the scenario grid asserts it end
//!   to end in every cell, and its bursty cells also check that light
//!   tenants finish inside the first rotation after a heavy backlog).
//!
//! Everything is deterministic: no RNG, no clocks — the dispatch order
//! is a pure function of the push/pop call sequence.

use std::collections::VecDeque;

/// Client-weight policy for the fair queues.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessConfig {
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
}

impl Default for FairnessConfig {
    /// Equal weights: plain round-robin across clients — the
    /// no-configuration fleet is already starvation-free.
    fn default() -> Self {
        FairnessConfig {
            default_weight: 1,
            weights: Vec::new(),
        }
    }
}

/// A weighted round-robin queue over per-client lanes (see the module
/// docs for the visiting rule and the starvation bound).
///
/// The cursor moves on lazily, at the `pop` after a visit ends, so a
/// lane created between two pops takes its turn in creation order.
#[derive(Debug)]
pub struct FairQueue<T> {
    lanes: Vec<Lane<T>>,
    /// The lane whose visit is under way.
    cursor: usize,
    /// Sessions that visit has served.
    served: u32,
    queued: usize,
}

#[derive(Debug)]
struct Lane<T> {
    client: String,
    weight: u32,
    queue: VecDeque<T>,
}

/// One lane's observable state (see [`FairQueue::lanes`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSnapshot {
    /// Client label of the lane.
    pub client: String,
    /// The lane's weight: sessions served per visit.
    pub weight: u32,
    /// Sessions currently queued in the lane.
    pub queued: usize,
}

impl<T> Default for FairQueue<T> {
    fn default() -> Self {
        FairQueue {
            lanes: Vec::new(),
            cursor: 0,
            served: 0,
            queued: 0,
        }
    }
}

impl<T> FairQueue<T> {
    /// Queues `item` on `client`'s lane. The client's first push creates
    /// its lane at `weight`; later pushes keep that weight.
    ///
    /// # Panics
    ///
    /// Panics when `weight` is zero (a zero-weight lane would starve by
    /// construction).
    pub fn push(&mut self, client: &str, weight: u32, item: T) {
        assert!(weight > 0, "fair-queue weight must be positive");
        let lane = match self.lanes.iter().position(|l| l.client == client) {
            Some(lane) => lane,
            None => {
                self.lanes.push(Lane {
                    client: client.to_string(),
                    weight,
                    queue: VecDeque::new(),
                });
                self.lanes.len() - 1
            }
        };
        self.lanes[lane].queue.push_back(item);
        self.queued += 1;
    }

    /// Takes the next item in weighted round-robin order, or `None` when
    /// every lane is empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.queued == 0 {
            return None;
        }
        loop {
            let lane = &mut self.lanes[self.cursor];
            if self.served < lane.weight {
                if let Some(item) = lane.queue.pop_front() {
                    self.served += 1;
                    self.queued -= 1;
                    return Some(item);
                }
            }
            // The visit is over: the lane used its weight or ran dry.
            self.served = 0;
            self.cursor = (self.cursor + 1) % self.lanes.len();
        }
    }

    /// Items queued across all lanes.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Returns `true` when no lane holds a queued item.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Per-lane snapshots in creation (visiting) order.
    pub fn lanes(&self) -> Vec<LaneSnapshot> {
        self.lanes
            .iter()
            .map(|l| LaneSnapshot {
                client: l.client.clone(),
                weight: l.weight,
                queued: l.queue.len(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut FairQueue<T>) -> Vec<T> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn weights_resolve_with_overrides() {
        let config = FairnessConfig {
            default_weight: 2,
            weights: vec![("gold".into(), 6)],
        };
        assert_eq!(config.weight_of("gold"), 6);
        assert_eq!(config.weight_of("anyone-else"), 2);
    }

    #[test]
    fn equal_weights_round_robin_and_fifo_within_a_lane() {
        let mut q = FairQueue::default();
        for (client, item) in [("a", 0), ("a", 1), ("a", 2), ("b", 3), ("c", 4)] {
            q.push(client, 1, (client, item));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(
            drain(&mut q),
            [("a", 0), ("b", 3), ("c", 4), ("a", 1), ("a", 2)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn weighted_shares_per_rotation() {
        // Weights 1:2:3: each full rotation serves exactly (1, 2, 3)
        // sessions per lane while all stay backlogged.
        let mut q = FairQueue::default();
        for (client, weight) in [("w1", 1), ("w2", 2), ("w3", 3)] {
            for _ in 0..6 {
                q.push(client, weight, client);
            }
        }
        let first: Vec<&str> = (0..6).map(|_| q.pop().unwrap()).collect();
        assert_eq!(first, ["w1", "w2", "w2", "w3", "w3", "w3"]);
        let second: Vec<&str> = (0..6).map(|_| q.pop().unwrap()).collect();
        assert_eq!(second, first);
        let lanes = q.lanes();
        let queued: Vec<(&str, u32, usize)> = lanes
            .iter()
            .map(|l| (l.client.as_str(), l.weight, l.queued))
            .collect();
        assert_eq!(queued, [("w1", 1, 4), ("w2", 2, 2), ("w3", 3, 0)]);
    }

    #[test]
    fn accounting_and_lane_registration() {
        // A client's first push registers its lane; a later push at
        // another weight queues on that lane and keeps the first weight.
        let mut q = FairQueue::default();
        assert!(q.is_empty());
        q.push("a", 2, "a0");
        q.push("a", 3, "a1");
        q.push("b", 1, "b0");
        assert_eq!(q.len(), 3);
        let snapshot = |q: &FairQueue<&str>| -> Vec<(String, u32, usize)> {
            q.lanes()
                .into_iter()
                .map(|l| (l.client, l.weight, l.queued))
                .collect()
        };
        assert_eq!(
            snapshot(&q),
            [("a".to_string(), 2, 2), ("b".to_string(), 1, 1)]
        );
        assert_eq!(q.pop(), Some("a0"));
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&mut q), ["a1", "b0"]);
        assert!(q.is_empty());
        // Drained lanes stay registered, in creation order.
        assert_eq!(
            snapshot(&q),
            [("a".to_string(), 2, 0), ("b".to_string(), 1, 0)]
        );
    }

    #[test]
    fn an_empty_lane_forfeits_the_rest_of_its_visit() {
        let mut q = FairQueue::default();
        q.push("a", 2, "a0");
        q.push("b", 1, "b0");
        q.push("b", 1, "b1");
        assert_eq!(q.pop(), Some("a0"));
        // Found empty one session into its visit of two, "a" loses the
        // second: a refill does not let it bank that session, so its
        // next visit serves two, not three.
        assert_eq!(q.pop(), Some("b0"));
        for item in ["a1", "a2", "a3"] {
            q.push("a", 2, item);
        }
        assert_eq!(drain(&mut q), ["a1", "a2", "b1", "a3"]);
    }

    #[test]
    fn a_lane_created_between_pops_keeps_its_creation_order() {
        // "a" finishes its visit, then "b" is created: the cursor moves
        // on at the next pop, so "b" takes the turn after "a" at once.
        let mut q = FairQueue::default();
        q.push("a", 1, "a0");
        q.push("a", 1, "a1");
        assert_eq!(q.pop(), Some("a0"));
        q.push("b", 1, "b0");
        assert_eq!(drain(&mut q), ["b0", "a1"]);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn a_zero_weight_is_refused() {
        FairQueue::default().push("a", 0, ());
    }
}
