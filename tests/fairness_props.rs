//! Property tests for the fleet's weighted round-robin arbitration
//! (`vaqem_fleet_service::FairQueue` — the policy the live reactor
//! dispatches each device with).
//!
//! The starvation-freedom bound, under **any arrival interleaving**: at
//! every point in the dispatch sequence, a client of weight `w` that is
//! currently backlogged has completed at least
//! `floor(window x w / W) - w` sessions, where `window` counts the
//! dispatches since it became backlogged and `W` is the sum of the
//! weights — at equal weights, `floor(window / n) - 1`: its fair share
//! minus at most one session per device.

use proptest::prelude::*;
use vaqem_fleet_service::FairQueue;

/// Replays an op sequence against a `FairQueue` with one lane per
/// weight, checking the starvation bound after every dispatch. Ops:
/// `op < clients` enqueues one session for that client; `op ==
/// clients` dispatches (no-op when everything is empty). Once the ops
/// run out, the rest of the backlog drains under the same check.
fn check_starvation_bound(weights: &[u32], ops: &[u8]) -> Result<(), TestCaseError> {
    let clients = weights.len();
    let total_weight: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    let mut q: FairQueue<usize> = FairQueue::default();
    // Per client: queued count, completed-since-backlogged, and the
    // dispatch clock when it last became backlogged.
    let mut queued = vec![0usize; clients];
    let mut served_since = vec![0u64; clients];
    let mut backlogged_at = vec![0u64; clients];
    let mut dispatches = 0u64;
    // After the ops run out (`None`), dispatch until the backlog drains.
    let ops = ops.iter().map(|&op| Some(op as usize));
    for op in ops.chain(std::iter::repeat(None)) {
        let c = op.unwrap_or(clients);
        if c < clients {
            if queued[c] == 0 {
                // (Re)joining the backlog: the bound clock restarts.
                backlogged_at[c] = dispatches;
                served_since[c] = 0;
            }
            queued[c] += 1;
            q.push(&format!("client-{c}"), weights[c], c);
            continue;
        }
        let Some(idx) = q.pop() else {
            if op.is_none() {
                break;
            }
            continue;
        };
        dispatches += 1;
        queued[idx] -= 1;
        served_since[idx] += 1;
        // The bound: every *currently backlogged* client has its
        // weight-proportional share of the dispatches issued while it
        // was backlogged, minus at most one visit.
        for k in 0..clients {
            if queued[k] == 0 {
                continue;
            }
            let w = u64::from(weights[k]);
            let window = dispatches - backlogged_at[k];
            let share = (window * w / total_weight) as i64 - w as i64;
            prop_assert!(
                served_since[k] as i64 >= share,
                "client {k} (weight {w} of {total_weight}) starved: served {} of fair \
                 {share} over a window of {window} dispatches",
                served_since[k]
            );
        }
    }
    prop_assert!(q.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn drr_never_starves_a_backlogged_client(
        clients in 2usize..6,
        weights in proptest::collection::vec(1u32..5, 5),
        push_share in 1u8..12,
        ops in proptest::collection::vec((0u8..12, 0u8..60), 1..160),
    ) {
        // Each op pushes for a uniformly drawn client with probability
        // `push_share / 12` and dispatches otherwise, so interleavings of
        // every shape are generated: lanes that idle and rejoin, bursts,
        // and backlogs deep enough that serving one lane until it empties
        // (whole-client FIFO) breaks the bound.
        let ops: Vec<u8> = ops
            .iter()
            .map(|&(kind, c)| {
                if kind < push_share {
                    c % clients as u8
                } else {
                    clients as u8
                }
            })
            .collect();
        check_starvation_bound(&weights[..clients], &ops)?;
    }

    #[test]
    fn drr_conserves_and_orders_each_lane_fifo(
        clients in 1usize..5,
        ops in proptest::collection::vec(0u8..10, 1..120),
    ) {
        // Every enqueued item comes out exactly once, and each lane's
        // items dispatch in their enqueue order (fairness reorders
        // *across* lanes, never within one).
        let mut q: FairQueue<(usize, usize)> = FairQueue::default();
        let names: Vec<String> = (0..clients).map(|c| format!("c{c}")).collect();
        let mut pushed = vec![0usize; clients];
        let mut popped = vec![0usize; clients];
        let mut total_pushed = 0usize;
        let mut total_popped = 0usize;
        for &op in &ops {
            let c = op as usize % (clients + 1);
            if c < clients {
                q.push(&names[c], 1, (c, pushed[c]));
                pushed[c] += 1;
                total_pushed += 1;
            } else if let Some((lane, serial)) = q.pop() {
                prop_assert_eq!(serial, popped[lane]);
                popped[lane] += 1;
                total_popped += 1;
            }
        }
        while let Some((lane, serial)) = q.pop() {
            prop_assert_eq!(serial, popped[lane]);
            popped[lane] += 1;
            total_popped += 1;
        }
        prop_assert_eq!(total_popped, total_pushed);
        prop_assert!(q.is_empty());
    }

    #[test]
    fn weighted_shares_hold_over_full_backlogs(
        weights in proptest::collection::vec(1u32..5, 2..5),
        rounds in 2usize..6,
    ) {
        // All clients fully backlogged from the start: after the whole
        // backlog drains in `rounds` rotations, each client was served
        // exactly `weight x rounds` sessions — the exact weighted-fair
        // share.
        let mut q: FairQueue<usize> = FairQueue::default();
        for (i, &w) in weights.iter().enumerate() {
            for _ in 0..(w as usize * rounds) {
                q.push(&format!("w{i}"), w, i);
            }
        }
        let mut served = vec![0usize; weights.len()];
        while let Some(idx) = q.pop() {
            served[idx] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            prop_assert_eq!(served[i], w as usize * rounds);
        }
    }
}
