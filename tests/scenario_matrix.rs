//! Reduced scenario-matrix grid as a tier-1 integration test.
//!
//! One small workload crossed with both device classes and all four
//! tenant behaviors — 8 cells — runs through the real reactor with
//! every cross-cutting invariant asserted per cell. The full ≥24-cell
//! grid lives in the `extension_scenario_matrix` replay binary; this
//! driver keeps the cell lifecycle (cold, warm, kill, journal-replay
//! reopen, recovery, tenant contention, quota audit) under `cargo
//! test`.
//!
//! The cells here are configured identically to the quick grid's
//! first-workload cells, so the pinned seed is shared with the replay
//! binary's quick mode (overridable via `VAQEM_SEED`).

use vaqem_mathkit::rng::root_seed_from_env;
use vaqem_scenario::{run_matrix, MatrixConfig};

#[test]
fn reduced_grid_holds_every_invariant_in_every_cell() {
    let store_root = std::env::temp_dir().join("vaqem-scenario-matrix-test");
    let mut config = MatrixConfig::quick(root_seed_from_env(4243), store_root);
    config.workloads.truncate(1);
    config.mode = "test".to_string();
    assert_eq!(config.cells(), 8, "1 workload x 2 classes x 4 tenants");

    let report = run_matrix(&config).expect("matrix harness runs");
    assert_eq!(report.cells.len(), 8);

    // Every cell reports the same invariant set, in check order.
    for cell in &report.cells {
        let names: Vec<&str> = cell.invariants.iter().map(|i| i.name).collect();
        assert!(names.contains(&"warm_cheaper_than_cold"), "{names:?}");
        assert!(names.contains(&"warm_cold_parity"), "{names:?}");
        assert!(names.contains(&"restart_recovery"), "{names:?}");
        assert!(names.contains(&"starvation_bound"), "{names:?}");
        assert!(names.contains(&"quota_accounting"), "{names:?}");
    }
    // The greedy cells additionally record the typed quota rejection,
    // and the bursty cells the fair window the starvation bound alone
    // cannot tell from FIFO.
    for cell in report.cells.iter().filter(|c| c.tenant == "greedy") {
        assert!(
            cell.invariants.iter().any(|i| i.name == "quota_rejection"),
            "greedy cell must probe the in-flight cap"
        );
    }
    for cell in report.cells.iter().filter(|c| c.tenant == "bursty") {
        assert!(
            cell.invariants.iter().any(|i| i.name == "fair_window"),
            "bursty cell must check the light tenants' fair window"
        );
    }

    // The machine-readable report round-trips the grid shape.
    let json = report.to_json().render();
    assert!(json.contains("\"schema\":\"vaqem-scenario-matrix/v1\""));
    assert!(json.contains("\"cells\":8"));

    assert!(report.pass(), "cells failed invariants:\n{report}");
}
