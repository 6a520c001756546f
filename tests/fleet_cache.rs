//! Integration tests for the fleet-scale mitigation-config cache: the
//! warm-start determinism contract (guard-accepted warm results equal
//! cold-tuned results for identical fingerprints under a fixed root
//! seed), the cost ordering (warm strictly cheaper than cold), and the
//! drift-epoch invalidation wiring.

use vaqem_suite::device::backend::DeviceModel;
use vaqem_suite::device::drift::DriftModel;
use vaqem_suite::device::noise::NoiseParameters;
use vaqem_suite::mathkit::rng::SeedStream;
use vaqem_suite::mitigation::dd::DdSequence;
use vaqem_suite::pauli::models::tfim_paper;
use vaqem_suite::runtime::{BatchDispatch, CostModel, WorkloadProfile};
use vaqem_suite::vaqem::backend::QuantumBackend;
use vaqem_suite::vaqem::pipeline::{
    run_pipeline, run_pipeline_with_cache, PipelineConfig, Strategy,
};
use vaqem_suite::vaqem::vqe::VqeProblem;
use vaqem_suite::vaqem::window_tuner::{
    FleetCacheSession, MitigationConfigStore, WarmTuneReport, WindowTuner, WindowTunerConfig,
};

fn fleet_problem() -> VqeProblem {
    let ansatz = vaqem_suite::ansatz::su2::EfficientSu2::new(
        4,
        2,
        vaqem_suite::ansatz::su2::Entanglement::Linear,
    )
    .circuit()
    .unwrap();
    VqeProblem::new("fleet_it_4q", tfim_paper(4), ansatz).unwrap()
}

fn tuner_config() -> WindowTunerConfig {
    WindowTunerConfig {
        sweep_resolution: 4,
        dd_sequence: DdSequence::Xy4,
        max_repetitions: 8,
        guard_repeats: 2,
        ..WindowTunerConfig::default()
    }
}

fn warm_run(
    tuner: &WindowTuner,
    params: &[f64],
    store: &mut MitigationConfigStore,
    epoch: u64,
    calibration: &NoiseParameters,
) -> WarmTuneReport {
    let mut session = FleetCacheSession {
        store,
        device: "it-dev",
        epoch,
        calibration,
    };
    tuner.tune_dd_warm(params, &mut session).unwrap()
}

/// The headline pin: under a fixed root seed, a guard-accepted warm
/// replay of a cold-tuned run (identical fingerprints) produces the
/// *identical* mitigation config while spending strictly fewer machine
/// evaluations. Seeds are scanned deterministically for one whose cold
/// guard accepts, so the test exercises the publish-then-replay path.
#[test]
fn guard_accepted_warm_results_equal_cold_for_identical_fingerprints() {
    let problem = fleet_problem();
    let params = vec![0.3; problem.num_params()];
    let calibration = NoiseParameters::uniform(4);

    let mut exercised = false;
    for seed in 78..90 {
        let backend =
            QuantumBackend::new(NoiseParameters::uniform(4), SeedStream::new(seed)).with_shots(128);
        let tuner = WindowTuner::new(&problem, &backend, tuner_config());
        let mut store = MitigationConfigStore::new(1024);

        // Cold: the warm path over an empty store must equal the plain
        // tuner bit for bit.
        let cold = warm_run(&tuner, &params, &mut store, 0, &calibration);
        let plain = tuner.tune_dd(&params).unwrap();
        assert_eq!(cold.tuned, plain, "seed {seed}: cold-with-store != plain");
        assert_eq!(cold.stats.hits, 0);
        if cold.stats.guard_rejected {
            assert!(store.is_empty(), "rejected runs must publish nothing");
            continue;
        }
        assert_eq!(store.len(), cold.stats.misses, "accepted choices published");

        // Warm: identical fingerprints -> identical guard-accepted config.
        let warm = warm_run(&tuner, &params, &mut store, 0, &calibration);
        assert_eq!(warm.stats.hits, cold.stats.misses);
        assert_eq!(warm.stats.misses, 0);
        assert!(!warm.stats.guard_rejected, "replay must re-accept");
        assert_eq!(
            warm.tuned.config, cold.tuned.config,
            "seed {seed}: guard-accepted warm config != cold config"
        );
        assert!(
            warm.tuned.evaluations < cold.tuned.evaluations,
            "warm must be strictly cheaper: {} vs {}",
            warm.tuned.evaluations,
            cold.tuned.evaluations
        );
        exercised = true;
        break;
    }
    assert!(exercised, "no scanned seed had an accepting cold guard");
}

/// Warm-start EM tuning is strictly cheaper than cold in priced machine
/// minutes, using the measured evaluation counts of a real warm replay.
#[test]
fn warm_tuning_is_strictly_cheaper_in_machine_minutes() {
    let problem = fleet_problem();
    let params = vec![0.3; problem.num_params()];
    let calibration = NoiseParameters::uniform(4);
    for seed in 78..90 {
        let backend =
            QuantumBackend::new(NoiseParameters::uniform(4), SeedStream::new(seed)).with_shots(128);
        let tuner = WindowTuner::new(&problem, &backend, tuner_config());
        let mut store = MitigationConfigStore::new(1024);
        let cold = warm_run(&tuner, &params, &mut store, 0, &calibration);
        if cold.stats.guard_rejected {
            continue;
        }
        let warm = warm_run(&tuner, &params, &mut store, 0, &calibration);

        let cost = CostModel::ibm_cloud_2021();
        let dispatch = BatchDispatch::local(8);
        let profile = WorkloadProfile {
            num_qubits: 4,
            circuit_ns: 12_000.0,
            iterations: 80,
            measurement_groups: problem.groups().len(),
            windows: cold.stats.misses,
            sweep_resolution: 4,
            shots: 128,
        };
        let cold_min = cost.em_minutes_for_evaluations(
            &profile,
            &dispatch,
            cold.tuned.evaluations,
            cold.stats.misses + 1,
        );
        let warm_min = cost.em_minutes_for_evaluations(
            &profile,
            &dispatch,
            warm.tuned.evaluations,
            warm.stats.misses + 1,
        );
        assert!(
            warm_min < cold_min,
            "warm minutes {warm_min} must be under cold {cold_min}"
        );
        return;
    }
    panic!("no scanned seed had an accepting cold guard");
}

/// A calibration-epoch crossing invalidates the device's cached configs:
/// the `EpochTracker` fires, `invalidate_before` drops the stale entries,
/// and the next tuning run at the new epoch re-tunes from scratch.
#[test]
fn drift_epoch_crossing_invalidates_and_forces_retune() {
    let problem = fleet_problem();
    let params = vec![0.3; problem.num_params()];
    let calibration = NoiseParameters::uniform(4);
    for seed in 78..90 {
        let backend =
            QuantumBackend::new(NoiseParameters::uniform(4), SeedStream::new(seed)).with_shots(128);
        let tuner = WindowTuner::new(&problem, &backend, tuner_config());
        let mut store = MitigationConfigStore::new(1024);
        let cold = warm_run(&tuner, &params, &mut store, 0, &calibration);
        if cold.stats.guard_rejected {
            continue;
        }
        let published = store.len();
        assert!(published > 0);

        // Walk the drift clock across a recalibration boundary.
        let drift = DriftModel::new(SeedStream::new(9)).with_calibration_period_hours(12.0);
        let mut tracker = drift.epoch_tracker();
        assert_eq!(tracker.observe(1.0), Some(0));
        assert_eq!(tracker.observe(11.0), None);
        let new_epoch = tracker.observe(13.0).expect("crossing fires");
        assert_eq!(new_epoch, 1);
        assert_eq!(drift.epoch_at(13.0), 1);
        let dropped = store.invalidate_before("it-dev", new_epoch);
        assert_eq!(dropped, published, "all epoch-0 entries dropped");
        assert!(store.is_empty());

        // The new epoch misses everywhere and re-tunes cold.
        let retune = warm_run(&tuner, &params, &mut store, new_epoch, &calibration);
        assert_eq!(retune.stats.hits, 0);
        assert_eq!(retune.stats.misses, cold.stats.misses);
        assert_eq!(retune.tuned.evaluations, cold.tuned.evaluations);
        // The drifted device still produces drift (sanity on the hook's
        // host model).
        let d = DeviceModel::ibmq_casablanca();
        assert_ne!(
            drift.noise_at(&d, 1.0).qubit(0).t1_ns,
            drift.noise_at(&d, 13.0).qubit(0).t1_ns
        );
        return;
    }
    panic!("no scanned seed had an accepting cold guard");
}

/// The pipeline-level warm-start path: a cache-session run over an empty
/// store matches the plain pipeline strategy for strategy, and a second
/// run over the populated store warm-starts (hits > 0) while producing
/// the identical guard-accepted strategy results.
#[test]
fn pipeline_warm_start_reproduces_cold_results() {
    let problem = {
        let ansatz = vaqem_suite::ansatz::su2::EfficientSu2::new(
            2,
            1,
            vaqem_suite::ansatz::su2::Entanglement::Linear,
        )
        .circuit()
        .unwrap();
        VqeProblem::new("fleet_pipe_2q", tfim_paper(2), ansatz).unwrap()
    };
    let noise = NoiseParameters::uniform(2);
    let config = PipelineConfig::quick();
    let strategies = [Strategy::MemBaseline, Strategy::VaqemXy];

    let plain = run_pipeline(&problem, &noise, &config, &strategies).unwrap();
    assert!(plain.cache_usage.is_none());

    let mut store = MitigationConfigStore::new(1024);
    let mut session = FleetCacheSession {
        store: &mut store,
        device: "pipe-dev",
        epoch: 0,
        calibration: &noise,
    };
    let cold = run_pipeline_with_cache(&problem, &noise, &config, &strategies, Some(&mut session))
        .unwrap();
    let cold_usage = cold.cache_usage.expect("session supplied");
    assert_eq!(cold_usage.hits, 0);
    for (a, b) in plain.results.iter().zip(&cold.results) {
        assert_eq!(a.energy, b.energy, "cold cache run must match plain");
        assert_eq!(a.config, b.config);
    }

    if cold_usage.guard_rejections == 0 && cold_usage.misses > 0 {
        let mut session = FleetCacheSession {
            store: &mut store,
            device: "pipe-dev",
            epoch: 0,
            calibration: &noise,
        };
        let warm =
            run_pipeline_with_cache(&problem, &noise, &config, &strategies, Some(&mut session))
                .unwrap();
        let warm_usage = warm.cache_usage.expect("session supplied");
        assert_eq!(warm_usage.hits, cold_usage.misses);
        assert_eq!(warm_usage.misses, 0);
        for (a, b) in cold.results.iter().zip(&warm.results) {
            assert_eq!(a.energy, b.energy, "warm pipeline must reproduce cold");
            assert_eq!(a.config, b.config);
        }
    }
}
