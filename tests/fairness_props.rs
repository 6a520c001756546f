//! Property tests for the fleet's deficit-round-robin arbitration
//! (`vaqem_runtime::fleet::DrrQueue` — the policy the live reactor
//! dispatches each device with).
//!
//! The starvation-freedom bound, under **any arrival interleaving**: at
//! every point in the dispatch sequence, a client that is currently
//! backlogged has completed at least
//! `floor(weight_share x dispatches_since_it_became_backlogged) - 1`
//! sessions — for the daemon's equal-weight, uniform-cost regime, its
//! fair share minus at most one session per device.

use proptest::prelude::*;
use vaqem_runtime::DrrQueue;

/// Replays an op sequence against a `DrrQueue` with `clients`
/// equal-weight lanes and unit session costs, checking the starvation
/// bound after every dispatch. Ops: `op < clients` enqueues one session
/// for that client; `op == clients` dispatches (no-op when everything
/// is empty).
fn check_starvation_bound(clients: usize, ops: &[u8]) -> Result<(), TestCaseError> {
    let mut q: DrrQueue<()> = DrrQueue::new(1.0);
    let names: Vec<String> = (0..clients).map(|c| format!("client-{c}")).collect();
    for name in &names {
        q.register(name, 1);
    }
    // Per client: queued count, completed-since-backlogged, and the
    // dispatch clock when it last became backlogged.
    let mut queued = vec![0usize; clients];
    let mut served_since = vec![0usize; clients];
    let mut backlogged_at = vec![0u64; clients];
    let mut dispatches = 0u64;
    for &op in ops {
        let c = op as usize;
        if c < clients {
            if queued[c] == 0 {
                // (Re)joining the backlog: the bound clock restarts.
                backlogged_at[c] = dispatches;
                served_since[c] = 0;
            }
            queued[c] += 1;
            q.enqueue(&names[c], 1.0, ());
        } else if let Some((client, _, ())) = q.dispatch_next() {
            dispatches += 1;
            let idx = names.iter().position(|n| *n == client).expect("known");
            queued[idx] -= 1;
            served_since[idx] += 1;
            // The bound: every *currently backlogged* client has its
            // weight-proportional share of the dispatches issued while
            // it was backlogged, minus at most one session.
            for k in 0..clients {
                if queued[k] == 0 {
                    continue;
                }
                let window = dispatches - backlogged_at[k];
                let share = (window as f64 / clients as f64).floor() as i64 - 1;
                prop_assert!(
                    served_since[k] as i64 >= share,
                    "client {k} starved: served {} of fair {share} over a window of {window} \
                     dispatches ({clients} clients)",
                    served_since[k]
                );
            }
        }
    }
    // Drain what is left: the bound must hold to the end.
    while let Some((client, _, ())) = q.dispatch_next() {
        dispatches += 1;
        let idx = names.iter().position(|n| *n == client).expect("known");
        queued[idx] -= 1;
        served_since[idx] += 1;
        for k in 0..clients {
            if queued[k] == 0 {
                continue;
            }
            let window = dispatches - backlogged_at[k];
            let share = (window as f64 / clients as f64).floor() as i64 - 1;
            prop_assert!(
                served_since[k] as i64 >= share,
                "client {k} starved during drain: served {} of fair {share}",
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
        ops in proptest::collection::vec(0u8..12, 1..160),
    ) {
        // Map op codes onto the live client range: values >= clients
        // become dispatches, so arrival/dispatch interleavings of every
        // shape (bursts, alternation, long idle lanes) are generated.
        let ops: Vec<u8> = ops
            .iter()
            .map(|&o| if (o as usize) < clients { o } else { clients as u8 })
            .collect();
        check_starvation_bound(clients, &ops)?;
    }

    #[test]
    fn drr_conserves_and_orders_each_lane_fifo(
        clients in 1usize..5,
        ops in proptest::collection::vec(0u8..10, 1..120),
    ) {
        // Every enqueued item comes out exactly once, and each lane's
        // items dispatch in their enqueue order (fairness reorders
        // *across* lanes, never within one).
        let mut q: DrrQueue<(usize, usize)> = DrrQueue::new(1.0);
        let names: Vec<String> = (0..clients).map(|c| format!("c{c}")).collect();
        let mut pushed = vec![0usize; clients];
        let mut popped = vec![0usize; clients];
        let mut total_pushed = 0usize;
        let mut total_popped = 0usize;
        for &op in &ops {
            let c = op as usize % (clients + 1);
            if c < clients {
                q.enqueue(&names[c], 1.0, (c, pushed[c]));
                pushed[c] += 1;
                total_pushed += 1;
            } else if let Some((_, _, (lane, serial))) = q.dispatch_next() {
                prop_assert_eq!(serial, popped[lane]);
                popped[lane] += 1;
                total_popped += 1;
            }
        }
        while let Some((_, _, (lane, serial))) = q.dispatch_next() {
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
        // backlog drains in `rounds` DRR rotations, each client was
        // served exactly `weight x rounds` sessions — the exact
        // weighted-fair share (unit costs, quantum = cost).
        let mut q: DrrQueue<()> = DrrQueue::new(1.0);
        for (i, &w) in weights.iter().enumerate() {
            let name = format!("w{i}");
            q.register(&name, w);
            for _ in 0..(w as usize * rounds) {
                q.enqueue(&name, 1.0, ());
            }
        }
        let mut served = vec![0usize; weights.len()];
        while let Some((client, _, ())) = q.dispatch_next() {
            let idx: usize = client[1..].parse().expect("w<i> label");
            served[idx] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            prop_assert_eq!(served[i], w as usize * rounds);
        }
    }
}
