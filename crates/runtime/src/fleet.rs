//! Fleet arbitration: [`DrrQueue`], the deficit-round-robin weighted
//! fair queue across clients. The live daemon (`vaqem-fleet-service`)
//! keeps one per device and asks it for the next session whenever the
//! device frees up.

use std::collections::VecDeque;

/// A deficit-round-robin (DRR) weighted fair queue over per-client lanes.
///
/// This is the fleet's arbitration policy (the live daemon keeps one
/// `DrrQueue` per device). Lanes are visited in registration order
/// (ties between equally-eligible lanes always break toward the
/// **lowest lane index**, i.e. earliest registration); on each visit a
/// lane is granted `weight x quantum` minutes of deficit, serves queued
/// items while its deficit covers their cost, and carries the remainder
/// to its next visit. A lane that drains empty forfeits its deficit —
/// the standard DRR rule that stops an idle client from banking credit.
///
/// # Starvation-freedom bound
///
/// With every queued item costing at most the quantum, a lane of weight
/// `w` is served at least `w` items per full rotation while it stays
/// backlogged, and one rotation serves at most `sum(w_i)` items. Hence a
/// continuously-backlogged client's completed share never falls below
/// its weight share by more than one rotation's worth — for unit
/// weights, **at most one session** behind the proportional share per
/// device (`tests/fairness_props.rs` pins this under arbitrary arrival
/// interleavings).
///
/// Everything is deterministic: no RNG, no clocks — the dispatch order
/// is a pure function of the enqueue/next call sequence.
#[derive(Debug)]
pub struct DrrQueue<T> {
    quantum_min: f64,
    lanes: Vec<DrrLane<T>>,
    cursor: usize,
    queued: usize,
}

#[derive(Debug)]
struct DrrLane<T> {
    client: String,
    weight: u32,
    deficit_min: f64,
    granted_this_visit: bool,
    queue: VecDeque<(f64, T)>,
}

/// One lane's observable state (metrics/debugging; see
/// [`DrrQueue::lanes`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DrrLaneSnapshot {
    /// Client label of the lane.
    pub client: String,
    /// The lane's weight.
    pub weight: u32,
    /// Deficit carried into the lane's next visit (minutes).
    pub deficit_min: f64,
    /// Sessions currently queued in the lane.
    pub queued: usize,
    /// Total estimated minutes queued in the lane.
    pub queued_min: f64,
}

impl<T> DrrQueue<T> {
    /// Creates an arbiter whose per-visit grant is `weight x quantum_min`.
    ///
    /// Pick the quantum at least as large as the costliest single item so
    /// every backlogged lane is served on every rotation (the daemon uses
    /// the per-session cost estimate itself, which makes DRR degenerate
    /// to exact weighted round-robin for uniform sessions).
    ///
    /// # Panics
    ///
    /// Panics when `quantum_min` is not strictly positive and finite.
    pub fn new(quantum_min: f64) -> Self {
        assert!(
            quantum_min.is_finite() && quantum_min > 0.0,
            "DRR quantum must be positive and finite"
        );
        DrrQueue {
            quantum_min,
            lanes: Vec::new(),
            cursor: 0,
            queued: 0,
        }
    }

    /// Registers a client lane with the given weight. Idempotent: a
    /// client registered twice keeps its original lane (and therefore its
    /// tie-break position); the weight is updated in place.
    ///
    /// # Panics
    ///
    /// Panics when `weight` is zero (a zero-weight lane would starve by
    /// construction).
    pub fn register(&mut self, client: &str, weight: u32) {
        assert!(weight > 0, "DRR weight must be positive");
        if let Some(lane) = self.lanes.iter_mut().find(|l| l.client == client) {
            lane.weight = weight;
            return;
        }
        self.lanes.push(DrrLane {
            client: client.to_string(),
            weight,
            deficit_min: 0.0,
            granted_this_visit: false,
            queue: VecDeque::new(),
        });
    }

    /// Queues an item of `cost_min` estimated minutes on the client's
    /// lane, registering the client with weight 1 first if unknown.
    ///
    /// # Panics
    ///
    /// Panics when `cost_min` is negative or non-finite.
    pub fn enqueue(&mut self, client: &str, cost_min: f64, item: T) {
        assert!(
            cost_min.is_finite() && cost_min >= 0.0,
            "session cost must be finite and non-negative"
        );
        if !self.lanes.iter().any(|l| l.client == client) {
            self.register(client, 1);
        }
        let lane = self
            .lanes
            .iter_mut()
            .find(|l| l.client == client)
            .expect("registered above");
        lane.queue.push_back((cost_min, item));
        self.queued += 1;
    }

    /// Dispatches the next item under DRR, or `None` when every lane is
    /// empty. Returns `(client, cost_min, item)`.
    pub fn dispatch_next(&mut self) -> Option<(String, f64, T)> {
        if self.queued == 0 {
            return None;
        }
        loop {
            let n = self.lanes.len();
            let lane = &mut self.lanes[self.cursor];
            if lane.queue.is_empty() {
                // Empty lanes forfeit their credit and their visit.
                lane.deficit_min = 0.0;
                lane.granted_this_visit = false;
                self.cursor = (self.cursor + 1) % n;
                continue;
            }
            if !lane.granted_this_visit {
                lane.deficit_min += lane.weight as f64 * self.quantum_min;
                lane.granted_this_visit = true;
            }
            let head_cost = lane.queue.front().expect("non-empty").0;
            if lane.deficit_min + 1e-12 >= head_cost {
                let (cost, item) = lane.queue.pop_front().expect("non-empty");
                lane.deficit_min -= cost;
                self.queued -= 1;
                // The cursor stays: the lane keeps serving while its
                // deficit covers the next head (the DRR burst).
                return Some((lane.client.clone(), cost, item));
            }
            // Deficit exhausted: carry it and move on.
            lane.granted_this_visit = false;
            self.cursor = (self.cursor + 1) % n;
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

    /// Total estimated minutes queued across all lanes.
    pub fn backlog_min(&self) -> f64 {
        // Explicit fold: `Sum for f64` seeds with -0.0, which would
        // render an empty backlog as "-0.00" in reports.
        self.lanes
            .iter()
            .flat_map(|l| l.queue.iter())
            .fold(0.0, |acc, (c, _)| acc + c)
    }

    /// Per-lane snapshots in registration (tie-break) order.
    pub fn lanes(&self) -> Vec<DrrLaneSnapshot> {
        self.lanes
            .iter()
            .map(|l| DrrLaneSnapshot {
                client: l.client.clone(),
                weight: l.weight,
                deficit_min: l.deficit_min,
                queued: l.queue.len(),
                queued_min: l.queue.iter().fold(0.0, |acc, (c, _)| acc + c),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drr_equal_weights_round_robin() {
        // Unit-cost sessions, quantum = cost: DRR degenerates to plain
        // round-robin over backlogged lanes, ties toward the earliest-
        // registered lane.
        let mut q: DrrQueue<usize> = DrrQueue::new(1.0);
        for (c, item) in [("a", 0), ("a", 1), ("a", 2), ("b", 3), ("c", 4)] {
            q.enqueue(c, 1.0, item);
        }
        let order: Vec<(String, usize)> =
            std::iter::from_fn(|| q.dispatch_next().map(|(c, _, i)| (c, i))).collect();
        let clients: Vec<&str> = order.iter().map(|(c, _)| c.as_str()).collect();
        assert_eq!(clients, ["a", "b", "c", "a", "a"]);
        // FIFO within a lane.
        let a_items: Vec<usize> = order
            .iter()
            .filter(|(c, _)| c == "a")
            .map(|&(_, i)| i)
            .collect();
        assert_eq!(a_items, [0, 1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn drr_weighted_shares_per_rotation() {
        // Weights 1:2:3 with unit costs and quantum 1: each full rotation
        // serves exactly (1, 2, 3) sessions per lane while all stay
        // backlogged.
        let mut q: DrrQueue<()> = DrrQueue::new(1.0);
        q.register("w1", 1);
        q.register("w2", 2);
        q.register("w3", 3);
        for c in ["w1", "w2", "w3"] {
            for _ in 0..6 {
                q.enqueue(c, 1.0, ());
            }
        }
        let first_rotation: Vec<String> = (0..6).map(|_| q.dispatch_next().unwrap().0).collect();
        assert_eq!(first_rotation, ["w1", "w2", "w2", "w3", "w3", "w3"]);
        let second_rotation: Vec<String> = (0..6).map(|_| q.dispatch_next().unwrap().0).collect();
        assert_eq!(second_rotation, first_rotation);
    }

    #[test]
    fn drr_empty_lane_forfeits_deficit() {
        let mut q: DrrQueue<()> = DrrQueue::new(1.0);
        q.enqueue("a", 1.0, ());
        assert_eq!(q.dispatch_next().unwrap().0, "a");
        assert!(q.dispatch_next().is_none());
        // While "a" sat empty it banked nothing: a rival enqueued later
        // is not starved by stored credit.
        q.enqueue("b", 1.0, ());
        q.enqueue("a", 1.0, ());
        let order: Vec<String> = (0..2).map(|_| q.dispatch_next().unwrap().0).collect();
        assert_eq!(order.iter().filter(|c| *c == "a").count(), 1);
        let lanes = q.lanes();
        assert_eq!(lanes.len(), 2);
        assert!(lanes.iter().all(|l| l.queued == 0));
    }

    #[test]
    fn drr_costly_item_accumulates_deficit_over_rotations() {
        // A 3-minute session under a 1-minute quantum needs three visits'
        // worth of deficit; cheap rivals keep flowing meanwhile and the
        // expensive lane is served as soon as its credit covers the cost.
        let mut q: DrrQueue<&'static str> = DrrQueue::new(1.0);
        q.enqueue("big", 3.0, "B");
        for i in 0..4 {
            q.enqueue("small", 1.0, ["s0", "s1", "s2", "s3"][i]);
        }
        let order: Vec<&str> =
            std::iter::from_fn(|| q.dispatch_next().map(|(_, _, i)| i)).collect();
        assert_eq!(order, ["s0", "s1", "B", "s2", "s3"]);
    }

    #[test]
    fn drr_accounting_and_registration() {
        let mut q: DrrQueue<()> = DrrQueue::new(2.0);
        q.register("a", 2);
        q.register("a", 3); // idempotent: weight updated, lane kept
        q.enqueue("a", 1.5, ());
        q.enqueue("b", 0.5, ());
        assert_eq!(q.len(), 2);
        assert!((q.backlog_min() - 2.0).abs() < 1e-12);
        let lanes = q.lanes();
        assert_eq!(lanes[0].client, "a");
        assert_eq!(lanes[0].weight, 3);
        assert_eq!(lanes[1].client, "b");
        assert_eq!(lanes[1].queued, 1);
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn drr_rejects_zero_quantum() {
        let _: DrrQueue<()> = DrrQueue::new(0.0);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn drr_rejects_zero_weight() {
        let mut q: DrrQueue<()> = DrrQueue::new(1.0);
        q.register("a", 0);
    }
}
