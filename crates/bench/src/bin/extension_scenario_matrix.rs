//! Extension replay: the scenario-matrix verification grid.
//!
//! Runs the full workload × device-class × tenant-behavior grid from
//! `vaqem-scenario` through the real reactor — cold/warm rounds, an
//! abrupt kill plus journal-replay reopen, a recovery round, then the
//! cell's tenant contention phase — asserting per cell:
//!
//! * the fair queue's starvation bound on the contention device,
//! * the light tenants' fair window in the bursty cells,
//! * quota reserve == settle accounting against the harness's log,
//! * warm < cold machine-minute cost,
//! * kill-and-restart recovery with the warm-hit rate preserved,
//! * guard-accepted warm == cold configuration parity.
//!
//! Prints the grid table and writes the machine-readable JSON report
//! (the CI artifact) to `SCENARIO_matrix.json`, or to the path in
//! `SCENARIO_MATRIX_OUT` when set.
//!
//! `VAQEM_QUICK=1` runs the reduced 16-cell grid at smoke sizes; the
//! default is the full 32-cell grid. Each mode has its own pinned root
//! seed (shots differ, so the scans differ); `VAQEM_SEED` overrides
//! both. Exits non-zero when any cell fails any invariant.

use std::path::PathBuf;
use std::process::ExitCode;

use vaqem_mathkit::rng::root_seed_from_env;
use vaqem_scenario::{run_matrix, MatrixConfig};

/// Pinned root seed for the full grid.
const FULL_SEED: u64 = 4243;
/// Pinned root seed for the quick grid.
const QUICK_SEED: u64 = 4243;

fn main() -> ExitCode {
    let store_root = std::env::temp_dir().join("vaqem-scenario-matrix");
    let mut config = if vaqem_bench::quick_mode() {
        MatrixConfig::quick(root_seed_from_env(QUICK_SEED), store_root)
    } else {
        MatrixConfig::full(root_seed_from_env(FULL_SEED), store_root)
    };
    config.progress = true;
    // Debugging aid: restrict the grid to workloads whose label
    // contains the filter (e.g. SCENARIO_FILTER=h2 for the chemistry
    // cells only). The ≥24-cell acceptance grid is the unfiltered run.
    if let Ok(filter) = std::env::var("SCENARIO_FILTER") {
        config.workloads.retain(|w| w.label().contains(&filter));
        config.mode = format!("{}:{filter}", config.mode);
    }
    if let Ok(filter) = std::env::var("SCENARIO_TENANTS") {
        config
            .tenants
            .retain(|t| filter.split(',').any(|f| t.label() == f));
    }
    println!(
        "=== scenario matrix: {} mode, {} workloads x {} classes x {} tenants = {} cells, seed {} ===\n",
        config.mode,
        config.workloads.len(),
        config.classes.len(),
        config.tenants.len(),
        config.cells(),
        config.root_seed,
    );
    let report = match run_matrix(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("matrix harness failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{report}");

    let out: PathBuf = std::env::var_os("SCENARIO_MATRIX_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("SCENARIO_matrix.json"));
    match std::fs::write(&out, report.to_json().render_pretty(2)) {
        Ok(()) => println!("\nreport written to {}", out.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    if report.pass() {
        ExitCode::SUCCESS
    } else {
        for cell in report.failures() {
            eprintln!("FAILED cell {}", cell.key());
        }
        ExitCode::FAILURE
    }
}
