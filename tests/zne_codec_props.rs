//! Persistence properties of the ZNE-era store values:
//!
//! * **composed choices are lossless** — a random `(gs, dd, zne)`
//!   composition encodes and decodes byte-exactly through the persist
//!   codec, alone and through a full `DurableStore` restart;
//! * **legacy files still load** — a hand-crafted format-version-1
//!   snapshot + journal (bare, untagged per-window choices, as PR 3
//!   wrote them) opens into today's `StoredChoice` store, with every
//!   entry lifted to `StoredChoice::Window` and the journal upgraded to
//!   the current format.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use vaqem_suite::mitigation::dd::DdSequence;
use vaqem_suite::mitigation::zne::{Extrapolation, ZneConfig};
use vaqem_suite::runtime::persist::{Codec, DurableStore};
use vaqem_suite::vaqem::window_tuner::{
    CachedChoice, ComposedChoice, NoiseClass, StoredChoice, TuningMode, WindowFingerprint,
};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vaqem-zne-codec-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fingerprint(mode: TuningMode, salt: u32) -> WindowFingerprint {
    WindowFingerprint {
        mode,
        duration_slots: salt,
        qubit: (salt % 7) as u16,
        ordinal: salt % 3,
        noise_class: NoiseClass {
            t1: 33,
            t2: -4,
            detuning: i16::MIN,
            telegraph: 0,
            readout: (salt % 11) as i16 - 5,
        },
        neighbors_active: (salt % 5) as u8,
        coupled_active: (salt % 2) as u8,
        sweep_resolution: 4,
        max_repetitions: 8,
    }
}

/// Random but always-valid composed choices: fold sets are distinct and
/// at least two long, objectives are finite (NaN breaks `PartialEq`-based
/// round-trip assertions, not the codec).
fn composed_strategy() -> impl Strategy<Value = ComposedChoice> {
    (
        proptest::collection::vec(0.0f64..1.0, 0..6),
        0u8..5, // 0..4 = a DD sequence, 4 = no DD
        proptest::collection::vec(0u32..30, 0..6),
        (0u8..4, 0u8..5), // (extra fold, extrapolation draw; 4 = no ZNE)
        -1000i32..1000,
    )
        .prop_map(
            |(gate_positions, seq, dd_repetitions, (extra_fold, zne_draw), obj)| {
                let dd_sequence = match seq {
                    0 => Some(DdSequence::Xx),
                    1 => Some(DdSequence::Yy),
                    2 => Some(DdSequence::Xy4),
                    3 => Some(DdSequence::Xy8),
                    _ => None,
                };
                let zne = match zne_draw {
                    4 => None,
                    3 => Some(ZneConfig::new(
                        vec![0, 1 + extra_fold],
                        Extrapolation::Exponential,
                    )),
                    order => Some(ZneConfig::new(
                        vec![0, 1 + extra_fold],
                        Extrapolation::Richardson { order },
                    )),
                };
                ComposedChoice {
                    gate_positions,
                    dd_sequence,
                    dd_repetitions,
                    zne,
                    objective: obj as f64 / 64.0,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn composed_choice_codec_round_trips_losslessly(choice in composed_strategy()) {
        let stored = StoredChoice::Composed(choice);
        let mut buf = Vec::new();
        stored.encode(&mut buf);
        let mut input = buf.as_slice();
        prop_assert_eq!(StoredChoice::decode(&mut input), Some(stored.clone()));
        prop_assert!(input.is_empty(), "no trailing bytes");
        // Truncated input fails cleanly at every cut point.
        for cut in 0..buf.len() {
            prop_assert_eq!(StoredChoice::decode(&mut &buf[..cut]), None);
        }
    }

    #[test]
    fn composed_choices_survive_a_durable_store_restart(
        choices in proptest::collection::vec(composed_strategy(), 1..8),
    ) {
        let dir = fresh_dir();
        {
            let store: DurableStore<WindowFingerprint, StoredChoice> =
                DurableStore::open(&dir, 2, 64).expect("open");
            for (i, c) in choices.iter().enumerate() {
                let mode = TuningMode::Composed(DdSequence::Xy4);
                store.insert(
                    "fleet-east",
                    0,
                    fingerprint(mode, i as u32),
                    StoredChoice::Composed(c.clone()),
                );
            }
            // No checkpoint: journal-only durability, like a kill.
        }
        let reloaded: DurableStore<WindowFingerprint, StoredChoice> =
            DurableStore::open(&dir, 2, 64).expect("reopen");
        for (i, c) in choices.iter().enumerate() {
            let mode = TuningMode::Composed(DdSequence::Xy4);
            prop_assert_eq!(
                reloaded.lookup("fleet-east", 0, &fingerprint(mode, i as u32)),
                Some(StoredChoice::Composed(c.clone()))
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The format-version-2 value encodings, byte for byte. The round-trip
/// properties above pass for any self-consistent codec; these pins make
/// a refactor that moves the on-disk format fail.
#[test]
fn v2_store_bytes_are_pinned() {
    let cases = [
        (
            StoredChoice::Composed(ComposedChoice {
                gate_positions: vec![0.25, 1.0],
                dd_sequence: Some(DdSequence::Xy8),
                dd_repetitions: vec![3, 0],
                zne: Some(ZneConfig::new(vec![0, 2], Extrapolation::Exponential)),
                objective: -1.5,
            }),
            "0102000000000000000000d03f000000000000f03f0103020000000300000000000000\
             010200000000020100000000000000f8bf",
        ),
        (
            StoredChoice::Composed(ComposedChoice {
                gate_positions: vec![],
                dd_sequence: None,
                dd_repetitions: vec![],
                zne: Some(ZneConfig::new(
                    vec![0, 1, 2],
                    Extrapolation::Richardson { order: 2 },
                )),
                objective: 0.5,
            }),
            "0100000000000000000001030000000001020002000000000000e03f",
        ),
        (
            StoredChoice::Window(CachedChoice {
                fraction_of_max: 0.5,
                value: 4.0,
                objective: -0.25,
            }),
            "00000000000000e03f0000000000001040000000000000d0bf",
        ),
    ];
    for (choice, pinned) in cases {
        let mut buf = Vec::new();
        choice.encode(&mut buf);
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, pinned, "{choice:?}");
    }
}

/// Bytes of a format-version-1 snapshot: magic + version 1 + entries of
/// `(device, epoch, fingerprint, bare CachedChoice)` — exactly what the
/// pre-ZNE store wrote.
fn v1_snapshot(entries: &[(&str, u64, WindowFingerprint, CachedChoice)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"VQSN");
    1u32.encode(&mut out);
    (entries.len() as u64).encode(&mut out);
    for (device, epoch, fp, choice) in entries {
        device.to_string().encode(&mut out);
        epoch.encode(&mut out);
        fp.encode(&mut out);
        choice.encode(&mut out); // bare: no StoredChoice tag
    }
    out
}

#[test]
fn pre_zne_snapshot_files_still_decode() {
    let dir = fresh_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let legacy_fp = fingerprint(TuningMode::Dd(DdSequence::Xy4), 9);
    let legacy_gs = fingerprint(TuningMode::Gs, 4);
    let choice_a = CachedChoice {
        fraction_of_max: 0.75,
        value: 6.0,
        objective: -1.25,
    };
    let choice_b = CachedChoice {
        fraction_of_max: 1.0,
        value: 1.0,
        objective: -0.5,
    };
    let snapshot = v1_snapshot(&[
        ("fleet-east", 3, legacy_fp, choice_a),
        ("fleet-west", 0, legacy_gs, choice_b),
    ]);
    std::fs::write(dir.join("store.snapshot"), &snapshot).unwrap();
    // A version-1 journal with one more bare-choice insert record.
    let mut journal = Vec::new();
    journal.extend_from_slice(b"VQJL");
    1u32.encode(&mut journal);
    let mut payload = Vec::new();
    payload.push(1u8); // TAG_INSERT
    "fleet-east".to_string().encode(&mut payload);
    3u64.encode(&mut payload);
    fingerprint(TuningMode::Dd(DdSequence::Xx), 2).encode(&mut payload);
    choice_b.encode(&mut payload); // bare: no StoredChoice tag
    (payload.len() as u32).encode(&mut journal);
    journal.extend_from_slice(&payload);
    std::fs::write(dir.join("store.journal"), &journal).unwrap();

    let store: DurableStore<WindowFingerprint, StoredChoice> =
        DurableStore::open(&dir, 4, 64).expect("legacy files load");
    assert_eq!(store.recovery().snapshot_entries, 2);
    assert_eq!(store.recovery().journal_records, 1);
    assert_eq!(
        store.lookup("fleet-east", 3, &legacy_fp),
        Some(StoredChoice::Window(choice_a)),
        "snapshot entries lift to StoredChoice::Window"
    );
    assert_eq!(
        store.lookup("fleet-west", 0, &legacy_gs),
        Some(StoredChoice::Window(choice_b))
    );
    assert_eq!(
        store.lookup(
            "fleet-east",
            3,
            &fingerprint(TuningMode::Dd(DdSequence::Xx), 2)
        ),
        Some(StoredChoice::Window(choice_b)),
        "journal records lift too"
    );
    // The open upgraded the on-disk format: new-format entries (composed,
    // ZNE-bearing) can be written and read back across another restart.
    let composed = StoredChoice::Composed(ComposedChoice {
        gate_positions: vec![0.5],
        dd_sequence: Some(DdSequence::Xy4),
        dd_repetitions: vec![2],
        zne: Some(ZneConfig::standard()),
        objective: -2.0,
    });
    let comp_fp = fingerprint(TuningMode::Composed(DdSequence::Xy4), 1);
    store.insert("fleet-east", 3, comp_fp, composed.clone());
    drop(store);
    let again: DurableStore<WindowFingerprint, StoredChoice> =
        DurableStore::open(&dir, 4, 64).expect("reopen after upgrade");
    assert_eq!(again.lookup("fleet-east", 3, &comp_fp), Some(composed));
    assert_eq!(
        again.lookup("fleet-east", 3, &legacy_fp),
        Some(StoredChoice::Window(choice_a)),
        "legacy entries survive the upgrade round trip"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
