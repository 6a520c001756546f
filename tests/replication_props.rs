//! Properties of the journal-shipping replication layer
//! (`vaqem_runtime::DurableStore::ship_since`/`apply_ship` +
//! `vaqem_fleet_replica::ReplicaApplier` + the VQRP `JournalShip`
//! frame):
//!
//! * **torn delivery replicates losslessly** — an arbitrary mutation
//!   history, shipped batch by batch, framed, and delivered re-chunked
//!   in 1–40-byte pieces, leaves the follower byte-for-byte equal to
//!   the leader (entries and cursor);
//! * **duplicate and reordered delivery is idempotent** — re-applying
//!   any already-covered batch is a no-op: same final state, same
//!   cursor, `apply` returns `false`;
//! * **truncation is refused panic-free** — every truncation cut of an
//!   encoded `JournalShip` frame decodes to `None`, and a payload torn
//!   mid-record is refused by `apply_ship` with a typed error, not a
//!   panic;
//! * **shipped prefix ≡ local prefix** — a follower that applied the
//!   ships for the first `k` mutations holds exactly the state of a
//!   store that executed those `k` mutations locally.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use vaqem_suite::fleet_replica::ReplicaApplier;
use vaqem_suite::fleet_rpc::wire::Frame;
use vaqem_suite::runtime::persist::Codec;
use vaqem_suite::runtime::wire::{frame as wire_frame, FrameReader};
use vaqem_suite::runtime::{DurableStore, ShipBatch, ShipCursor};

type Store = DurableStore<u64, u64>;
type Replica = ReplicaApplier<u64, u64>;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vaqem-repl-props-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One journaled mutation (plus `Checkpoint`, which rolls the journal
/// generation — the cursor regime shipping must survive).
#[derive(Clone, Debug)]
enum Op {
    Insert {
        device: usize,
        epoch: u64,
        key: u64,
        value: u64,
    },
    Remove {
        device: usize,
        epoch: u64,
        key: u64,
    },
    InvalidateBefore {
        device: usize,
        epoch: u64,
    },
    InvalidateAllBefore {
        epoch: u64,
    },
    Checkpoint,
}

fn device_name(index: usize) -> String {
    format!("dev-{index}")
}

fn apply_op(store: &Store, op: &Op) {
    match op {
        Op::Insert {
            device,
            epoch,
            key,
            value,
        } => {
            store.insert(&device_name(*device), *epoch, *key, *value);
        }
        Op::Remove { device, epoch, key } => {
            store.remove(&device_name(*device), *epoch, key);
        }
        Op::InvalidateBefore { device, epoch } => {
            store.invalidate_before(&device_name(*device), *epoch);
        }
        Op::InvalidateAllBefore { epoch } => {
            store.invalidate_all_before(*epoch);
        }
        Op::Checkpoint => store.checkpoint().expect("checkpoint"),
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Insert twice: mutation histories should be insert-heavy.
        (0usize..3, 0u64..8, 0u64..24, 0u64..1000).prop_map(|(device, epoch, key, value)| {
            Op::Insert {
                device,
                epoch,
                key,
                value,
            }
        }),
        (0usize..3, 0u64..8, 0u64..24, 0u64..1000).prop_map(|(device, epoch, key, value)| {
            Op::Insert {
                device,
                epoch,
                key,
                value,
            }
        }),
        (0usize..3, 0u64..8, 0u64..24).prop_map(|(device, epoch, key)| Op::Remove {
            device,
            epoch,
            key
        }),
        (0usize..3, 0u64..8).prop_map(|(device, epoch)| Op::InvalidateBefore { device, epoch }),
        (0u64..8).prop_map(|epoch| Op::InvalidateAllBefore { epoch }),
        Just(Op::Checkpoint),
    ]
}

fn sorted_entries(store: &Store) -> Vec<(String, u64, u64, u64)> {
    let mut entries = store.export_entries();
    entries.sort();
    entries
}

/// Runs the leader side of the pull protocol: applies `ops` one at a
/// time, shipping after each from the previous shipped cursor — the
/// exact batch sequence an in-step follower would receive (including
/// the initial snapshot bootstrap from the default cursor).
fn shipped_history(leader: &Store, ops: &[Op]) -> Vec<ShipBatch> {
    let mut cursor = ShipCursor::default();
    let mut batches = Vec::new();
    let mut push = |batch: ShipBatch, cursor: &mut ShipCursor| {
        *cursor = batch.cursor;
        batches.push(batch);
    };
    push(
        leader.ship_since(cursor).expect("bootstrap ships"),
        &mut cursor,
    );
    for op in ops {
        apply_op(leader, op);
        push(leader.ship_since(cursor).expect("delta ships"), &mut cursor);
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn torn_rechunked_shipping_replicates_losslessly(
        ops in collection::vec(op_strategy(), 1..20),
        chunk in 1usize..40,
    ) {
        let leader_dir = temp_dir("torn-lead");
        let follower_dir = temp_dir("torn-follow");
        let leader = Store::open(&leader_dir, 2, 64).expect("leader opens");
        let mut follower = Replica::open(&follower_dir, 2, 64).expect("follower opens");

        // Frame every shipped batch exactly as the wire does...
        let mut stream = Vec::new();
        for batch in shipped_history(&leader, &ops) {
            let mut payload = Vec::new();
            Frame::JournalShip {
                cursor: batch.cursor,
                snapshot: batch.snapshot,
                payload: batch.payload,
            }
            .encode(&mut payload);
            stream.extend_from_slice(&wire_frame(&payload));
        }
        // ...and deliver it torn into `chunk`-byte pieces.
        let mut reader = FrameReader::new(4 << 20);
        for piece in stream.chunks(chunk) {
            reader.push(piece);
            while let Some(payload) = reader.next_frame().expect("under the bound") {
                let mut input = payload.as_slice();
                let decoded = Frame::decode(&mut input);
                prop_assert!(
                    matches!(decoded, Some(Frame::JournalShip { .. })),
                    "stream decoded to {decoded:?}"
                );
                let Some(Frame::JournalShip { cursor, snapshot, payload }) = decoded else {
                    unreachable!("asserted above");
                };
                prop_assert!(input.is_empty(), "no trailing bytes");
                follower
                    .apply(&ShipBatch { snapshot, cursor, payload })
                    .expect("shipped batch applies");
            }
        }

        prop_assert_eq!(sorted_entries(&leader), sorted_entries(follower.store()));
        prop_assert_eq!(follower.cursor(), leader.ship_cursor());
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn duplicate_and_reordered_delivery_is_idempotent(
        ops in collection::vec(op_strategy(), 1..16),
        picks in collection::vec(0usize..64, 0..24),
    ) {
        let leader_dir = temp_dir("dup-lead");
        let follower_dir = temp_dir("dup-follow");
        let leader = Store::open(&leader_dir, 2, 64).expect("leader opens");
        let mut follower = Replica::open(&follower_dir, 2, 64).expect("follower opens");

        let batches = shipped_history(&leader, &ops);
        let mut picks = picks.into_iter();
        for (i, batch) in batches.iter().enumerate() {
            follower.apply(batch).expect("in-order batch applies");
            let cursor = follower.cursor();
            // Hostile redelivery: any already-covered batch (duplicate
            // or stale reordering) must be a no-op.
            if let Some(pick) = picks.next() {
                let stale = &batches[pick % (i + 1)];
                prop_assert_eq!(follower.apply(stale).expect("stale apply is clean"), false);
                prop_assert_eq!(follower.cursor(), cursor);
            }
        }

        prop_assert_eq!(sorted_entries(&leader), sorted_entries(follower.store()));
        prop_assert_eq!(follower.cursor(), leader.ship_cursor());
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn truncated_ship_frames_and_torn_payloads_are_refused(
        ops in collection::vec(op_strategy(), 1..12),
    ) {
        let leader_dir = temp_dir("cut-lead");
        let leader = Store::open(&leader_dir, 2, 64).expect("leader opens");
        for op in &ops {
            apply_op(&leader, op);
        }
        // A real shipped batch over the real mutation history.
        let batch = leader.ship_since(ShipCursor::default()).expect("ships");
        let frame = Frame::JournalShip {
            cursor: batch.cursor,
            snapshot: batch.snapshot,
            payload: batch.payload,
        };
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        for cut in 0..buf.len() {
            prop_assert_eq!(Frame::decode(&mut &buf[..cut]), None);
        }
        prop_assert_eq!(Frame::decode(&mut buf.as_slice()), Some(frame));
        let _ = std::fs::remove_dir_all(&leader_dir);
    }

    #[test]
    fn shipped_prefix_equals_locally_replayed_prefix(
        ops in collection::vec(op_strategy(), 1..16),
        k in 0usize..16,
    ) {
        let k = k % (ops.len() + 1);
        let leader_dir = temp_dir("prefix-lead");
        let follower_dir = temp_dir("prefix-follow");
        let local_dir = temp_dir("prefix-local");
        let leader = Store::open(&leader_dir, 2, 64).expect("leader opens");
        let mut follower = Replica::open(&follower_dir, 2, 64).expect("follower opens");

        // The follower keeps pace only through the first k mutations...
        let batches = shipped_history(&leader, &ops);
        for batch in &batches[..=k] {
            follower.apply(batch).expect("prefix batch applies");
        }
        // ...and must equal a store that simply executed those k
        // mutations itself.
        let local = Store::open(&local_dir, 2, 64).expect("local opens");
        for op in &ops[..k] {
            apply_op(&local, op);
        }
        prop_assert_eq!(sorted_entries(follower.store()), sorted_entries(&local));

        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
        let _ = std::fs::remove_dir_all(&local_dir);
    }
}

/// The torn-payload half of the truncation property, pinned: a records
/// batch whose payload loses its last byte is refused with
/// `InvalidData`, does not advance the cursor, and applies none of its
/// records, in memory or in the follower's journal.
#[test]
fn torn_payload_is_refused_with_a_typed_error() {
    let leader_dir = temp_dir("torn-pin-lead");
    let follower_dir = temp_dir("torn-pin-follow");
    let leader = Store::open(&leader_dir, 2, 64).expect("leader opens");
    let mut follower = Replica::open(&follower_dir, 2, 64).expect("follower opens");
    follower
        .apply(&leader.ship_since(ShipCursor::default()).expect("ships"))
        .expect("bootstrap applies");
    let synced = follower.cursor();

    leader.insert("dev-0", 1, 7, 700);
    leader.insert("dev-1", 2, 8, 800);
    let mut batch = leader.ship_since(synced).expect("delta ships");
    assert!(!batch.snapshot, "in-regime delta ships records");
    assert!(!batch.payload.is_empty());
    batch.payload.pop();

    let err = follower.apply(&batch).expect_err("torn payload refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(follower.cursor(), synced, "cursor did not advance");
    assert_eq!(follower.store().len(), 0, "the intact first record too");
    drop(follower);
    let reopened = Store::open(&follower_dir, 2, 64).expect("follower reopens");
    assert_eq!(reopened.len(), 0, "nothing of the batch was journaled");

    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}
