//! Fig. 15: total VQA execution time broken into angle tuning (sim or
//! Qiskit Runtime), EM tuning, and queuing — per benchmark.
//!
//! Workload profiles come from the measured Table I characteristics; the
//! chemistry benchmarks use the Runtime path (as in the paper), the TFIM
//! benchmarks the simulation path. The `EM-batch` column prices the same
//! EM tuning under the batched `Executor::run_batch` dispatch model
//! (one parallel batch per window) on the local core count.
//!
//! The store columns replay each workload's per-window lookups against a
//! fresh, deliberately small `ConfigStore` (capacity 24) for two rounds
//! (cold then warm) and surface the store's own hit/miss/eviction
//! counters. Workloads whose window count fits the capacity warm-start
//! every window on round 2; the larger ones (e.g. UCCSD's 50 windows)
//! thrash the LRU — a sequential scan evicts entries before their
//! re-access — so their evictions column is non-zero and their warm rate
//! collapses. `EM-warm` prices the second round at its *measured* hit
//! rate via `em_tuning_minutes_warm`: the recurring-client cost the
//! fleet cache leaves on the bill, including the capacity-sizing
//! penalty.
//!
//! The run ends with a live `FleetService::metrics_report()` dump from
//! a miniature two-client daemon session: the per-shard, per-device,
//! per-client observability surface the fleet layers add on top of the
//! per-workload pricing above.

use vaqem::benchmarks::{characteristics, BenchmarkId};
use vaqem_mathkit::rng::SeedStream;
use vaqem_runtime::cache::ConfigStore;
use vaqem_runtime::cost::{AngleTuningMode, BatchDispatch, CostModel, WorkloadProfile};

fn main() {
    let model = CostModel::ibm_cloud_2021();
    let seeds = SeedStream::new(1515);
    let dispatch = BatchDispatch::local(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );

    println!("=== Fig. 15: execution time breakdown (minutes) ===\n");
    println!(
        "{:<18} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>8} {:>5} {:>5} {:>6} {:>8}",
        "bench",
        "angles-sim",
        "angles-QR",
        "EM-tune",
        "EM-batch",
        "queuing",
        "total",
        "speedup",
        "hits",
        "miss",
        "evict",
        "EM-warm"
    );

    for id in BenchmarkId::ALL {
        let c = characteristics(id).expect("benchmark builds");
        let mode = match id {
            BenchmarkId::LiIon | BenchmarkId::UccsdH2 => AngleTuningMode::QiskitRuntime,
            _ => AngleTuningMode::IdealSimulation,
        };
        let profile = WorkloadProfile {
            num_qubits: id.num_qubits(),
            circuit_ns: c.makespan_ns,
            iterations: 400,
            measurement_groups: c.measurement_groups,
            windows: c.windows,
            sweep_resolution: 8,
            shots: 2048,
        };
        let b = model.breakdown(&profile, mode, &seeds, c.label);
        let em_batched = model.em_tuning_minutes_batched(&profile, &dispatch);
        let speedup = model.em_tuning_batch_speedup(&profile, &dispatch);

        // Two rounds of per-window fingerprint traffic against a fresh
        // capacity-24 store: round 1 cold (misses + inserts), round 2
        // warm where capacity allows. The second-round hit rate prices
        // the recurring-client EM bill.
        let mut store: ConfigStore<usize, usize> = ConfigStore::new(24);
        let mut round2_hits = 0usize;
        for round in 0..2 {
            for w in 0..profile.windows {
                match store.get(c.label, 0, &w) {
                    Some(_) if round == 1 => round2_hits += 1,
                    Some(_) => {}
                    None => store.insert(c.label, 0, w, round),
                }
            }
        }
        let m = *store.metrics();
        let warm_rate = round2_hits as f64 / profile.windows.max(1) as f64;
        let em_warm = model.em_tuning_minutes_warm(&profile, &dispatch, warm_rate, 4);

        println!(
            "{:<18} {:>12.1} {:>12.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>7.1}x {:>5} {:>5} {:>6} {:>8.1}",
            c.label,
            b.angle_tuning_sim_min,
            b.angle_tuning_runtime_min,
            b.em_tuning_min,
            em_batched,
            b.queuing_min,
            b.total_min(),
            speedup,
            m.hits,
            m.misses,
            m.evictions,
            em_warm,
        );
    }
    println!("\n(paper: queuing dominates; EM tuning < 1 h; Runtime angle tuning is the");
    println!(" largest compute component for the chemistry apps. EM-batch re-prices the");
    println!(" EM-tuning stage under batched parallel dispatch on this machine's cores;");
    println!(" hits/miss/evict are ConfigStore counters from a cold+warm window replay");
    println!(" against a capacity-24 store — workloads with more windows than capacity");
    println!(" thrash the LRU and evict — and EM-warm prices the warm round at its");
    println!(" measured hit rate.)");

    print_fleet_observability();
}

/// Runs a miniature fleet daemon — one device, two clients, one cold
/// session then one warm — and prints its structured metrics report:
/// the reactor's event counters, per-device fairness lanes, per-client
/// quota usage and attributed store traffic, and per-shard metrics.
fn print_fleet_observability() {
    use vaqem::window_tuner::WindowTunerConfig;
    use vaqem_ansatz::su2::{EfficientSu2, Entanglement};
    use vaqem_circuit::schedule::DurationModel;
    use vaqem_device::backend::DeviceModel;
    use vaqem_device::drift::DriftModel;
    use vaqem_device::noise::{NoiseParameters, QubitNoise};
    use vaqem_fleet_service::{
        DeviceSpec, FleetService, FleetServiceConfig, SessionKind, SessionRequest, TenancyConfig,
    };

    let num_qubits = 3;
    let problem = vaqem::vqe::VqeProblem::new(
        "fig15_probe_3q",
        vaqem_pauli::models::tfim_paper(num_qubits),
        EfficientSu2::new(num_qubits, 1, Entanglement::Linear)
            .circuit()
            .expect("ansatz builds"),
    )
    .expect("problem builds");
    // The Fig. 5 regime (solid coherence, strong quasi-static
    // detuning): idle-window DD genuinely helps, so the cold session's
    // guard accepts, the store fills, and the warm session hits.
    let q = QubitNoise {
        t1_ns: 120_000.0,
        t2_ns: 90_000.0,
        quasi_static_sigma_rad_ns: 2.0e-3,
        telegraph_rate_per_ns: 2.0e-6,
        readout_p01: 0.012,
        readout_p10: 0.025,
        gate_error_1q: 1.5e-4,
    };
    let device = DeviceSpec {
        name: "fig15-probe".into(),
        model: DeviceModel::new(
            "fig15-probe",
            num_qubits,
            vec![(0, 1), (1, 2)],
            DurationModel::ibm_default(),
            NoiseParameters::from_qubits(vec![q; num_qubits]),
        ),
        drift: DriftModel::new(SeedStream::new(1515).substream("drift")),
    };
    let store_dir = std::env::temp_dir().join(format!("vaqem-fig15-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let config = FleetServiceConfig {
        store_dir: store_dir.clone(),
        shards: 2,
        capacity_per_shard: 64,
        shots: 256,
        tuner: WindowTunerConfig {
            sweep_resolution: 3,
            max_repetitions: 4,
            guard_repeats: 3,
            ..Default::default()
        },
        circuit_ns: 8_000.0,
        estimate_windows: 4,
        dispatch: BatchDispatch::local(2),
        tenancy: TenancyConfig::default(),
    };
    let service = FleetService::open(config, vec![device], problem.clone(), SeedStream::new(1515))
        .expect("probe service opens");
    for client in ["probe-cold", "probe-warm"] {
        let rx = service.submit(SessionRequest {
            client: client.to_string(),
            t_hours: 1.0,
            params: vec![0.3; problem.num_params()],
            device: None,
            kind: SessionKind::Dd,
        });
        rx.recv().expect("worker alive").expect("probe tunes");
    }
    println!("\n=== Fleet-service observability (miniature 2-client daemon) ===\n");
    print!("{}", service.metrics_report());
    service.shutdown().expect("probe checkpoint");
    let _ = std::fs::remove_dir_all(&store_dir);
}
