//! Criterion benches for the fleet cache: a cold per-window DD tuning run
//! vs. a warm-started replay against a pre-populated config store — the
//! wall-clock the fingerprint cache exists for — plus the store's raw
//! lookup/insert overhead (which must be negligible next to a single
//! machine evaluation).

use criterion::{criterion_group, criterion_main, BenchmarkId as CriterionId, Criterion};
use vaqem::backend::QuantumBackend;
use vaqem::vqe::VqeProblem;
use vaqem::window_tuner::{
    FleetCacheSession, MitigationConfigStore, WindowTuner, WindowTunerConfig,
};
use vaqem_ansatz::su2::{EfficientSu2, Entanglement};
use vaqem_device::noise::NoiseParameters;
use vaqem_mathkit::rng::SeedStream;
use vaqem_mitigation::dd::DdSequence;
use vaqem_pauli::models::tfim_paper;

fn fleet_fixture() -> (VqeProblem, QuantumBackend, Vec<f64>, NoiseParameters) {
    let ansatz = EfficientSu2::new(4, 2, Entanglement::Linear)
        .circuit()
        .expect("ansatz");
    let problem = VqeProblem::new("bench_fleet", tfim_paper(4), ansatz).expect("problem");
    let noise = NoiseParameters::uniform(4);
    let backend = QuantumBackend::new(noise.clone(), SeedStream::new(78)).with_shots(128);
    let params = vec![0.3; problem.num_params()];
    (problem, backend, params, noise)
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

fn bench_cold_vs_warm_tuning(c: &mut Criterion) {
    let (problem, backend, params, noise) = fleet_fixture();
    let tuner = WindowTuner::new(&problem, &backend, tuner_config());
    let mut group = c.benchmark_group("fleet_dd_tuning");
    group.sample_size(10);

    group.bench_function(CriterionId::from_parameter("cold"), |b| {
        b.iter(|| tuner.tune_dd(&params).expect("cold tuning"))
    });

    // Pre-populate the store once, then measure warm replays against it.
    let mut store = MitigationConfigStore::new(1024);
    {
        let mut session = FleetCacheSession {
            store: &mut store,
            device: "bench-dev",
            epoch: 0,
            calibration: &noise,
        };
        tuner
            .tune_dd_warm(&params, &mut session)
            .expect("seeding run");
    }
    group.bench_function(CriterionId::from_parameter("warm"), |b| {
        b.iter(|| {
            let mut session = FleetCacheSession {
                store: &mut store,
                device: "bench-dev",
                epoch: 0,
                calibration: &noise,
            };
            tuner
                .tune_dd_warm(&params, &mut session)
                .expect("warm tuning")
        })
    });
    group.finish();
}

fn bench_store_operations(c: &mut Criterion) {
    let (problem, backend, params, noise) = fleet_fixture();
    // Harvest real fingerprints so the keys hashed are representative.
    let cache = problem
        .schedule_groups(&backend, &params)
        .expect("schedules");
    let scheduled = vaqem_mitigation::combined::MitigationConfig::baseline().apply(
        cache.schedules().first().expect("group"),
        backend.durations(),
    );
    let pulse = backend.durations().single_qubit_ns();
    let windows = scheduled.idle_windows(pulse);
    let cfg = tuner_config();
    let fingerprints: Vec<_> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            vaqem::window_tuner::window_fingerprint(
                vaqem::window_tuner::TuningMode::Dd(DdSequence::Xy4),
                w,
                i,
                &scheduled,
                &noise,
                pulse,
                &cfg,
            )
        })
        .collect();
    let choice = vaqem::window_tuner::StoredChoice::Window(vaqem::window_tuner::CachedChoice {
        fraction_of_max: 0.5,
        value: 2.0,
        objective: -1.0,
    });

    let mut group = c.benchmark_group("fleet_store");
    group.bench_function(CriterionId::from_parameter("insert_get"), |b| {
        b.iter(|| {
            let mut store = MitigationConfigStore::new(1024);
            for fp in &fingerprints {
                store.insert("bench-dev", 0, *fp, choice.clone());
            }
            fingerprints
                .iter()
                .filter(|fp| store.get("bench-dev", 0, fp).is_some())
                .count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cold_vs_warm_tuning, bench_store_operations);
criterion_main!(benches);
