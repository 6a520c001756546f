//! # vaqem-bench
//!
//! Shared infrastructure for the figure/table regeneration binaries and the
//! Criterion benches. Every table and figure of the paper's evaluation has
//! a `src/bin/` binary that prints the corresponding rows/series; see
//! `DESIGN.md` at the repository root for the experiment index and for
//! paper-vs-measured comparisons.
//!
//! Set `VAQEM_QUICK=1` to run the heavyweight pipeline binaries with
//! reduced shots/iterations (useful for smoke-testing; the printed shapes
//! remain, with more statistical noise).

use vaqem::pipeline::PipelineConfig;
use vaqem_circuit::circuit::QuantumCircuit;
use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind, ScheduledCircuit};
use vaqem_device::backend::DeviceModel;
use vaqem_device::noise::NoiseParameters;
use vaqem_mathkit::rng::SeedStream;
use vaqem_optim::spsa::SpsaConfig;
use vaqem_sim::counts::Counts;
use vaqem_sim::machine::MachineExecutor;
use vaqem_sim::statevector::StateVector;

/// Returns `true` when `VAQEM_QUICK=1` is set.
pub fn quick_mode() -> bool {
    std::env::var("VAQEM_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The pipeline configuration the fig12/fig13 binaries use: paper-shaped,
/// but sized to finish in minutes on a laptop; `VAQEM_QUICK=1` shrinks it
/// further.
pub fn evaluation_config() -> PipelineConfig {
    if quick_mode() {
        PipelineConfig {
            spsa: SpsaConfig::paper_default().with_iterations(60),
            shots: 192,
            sweep_resolution: 3,
            max_repetitions: 8,
            seeds: SeedStream::new(2024),
            eval_repeats: 1,
        }
    } else {
        PipelineConfig {
            spsa: SpsaConfig::paper_default().with_iterations(200),
            shots: 512,
            sweep_resolution: 5,
            max_repetitions: 12,
            seeds: SeedStream::new(2024),
            eval_repeats: 2,
        }
    }
}

/// Schedules a concrete circuit ALAP under IBM-default durations.
///
/// # Panics
///
/// Panics on parameterized circuits (bench inputs are always bound).
pub fn alap(qc: &QuantumCircuit) -> ScheduledCircuit {
    schedule(qc, &DurationModel::ibm_default(), ScheduleKind::Alap).expect("bound circuit")
}

/// The 2-qubit noise environment used by the micro-benchmarks: the first
/// two qubits of `ibmq_casablanca`.
pub fn casablanca_2q() -> NoiseParameters {
    DeviceModel::ibmq_casablanca().noise().subset(&[0, 1])
}

/// The single-qubit environment of casablanca's qubit 0.
pub fn casablanca_1q() -> NoiseParameters {
    DeviceModel::ibmq_casablanca().noise().subset(&[0])
}

/// Hellinger fidelity of machine counts against the ideal distribution of
/// the same circuit.
pub fn fidelity_vs_ideal(qc: &QuantumCircuit, executor: &MachineExecutor, job: u64) -> f64 {
    let measured = executor.run_job(&alap(qc), job);
    let ideal = ideal_counts(qc, executor.shots());
    measured.hellinger_fidelity(&ideal)
}

/// Ideal (noise- and sampling-free) reference counts for a circuit.
pub fn ideal_counts(qc: &QuantumCircuit, shots: u64) -> Counts {
    StateVector::run(qc)
        .expect("bound circuit")
        .exact_counts(shots)
}

pub mod rpcload {
    //! The fixture shared by the `fleetd` daemon binary and the
    //! `loadgen` harness: a fleet of small 2-qubit devices running a
    //! deliberately light tuning problem, so a load run measures the
    //! RPC front-end and reactor — admission, fairness, quota,
    //! framing — rather than simulator physics.

    use vaqem::vqe::VqeProblem;
    use vaqem::window_tuner::WindowTunerConfig;
    use vaqem_ansatz::su2::{EfficientSu2, Entanglement};
    use vaqem_circuit::schedule::DurationModel;
    use vaqem_device::backend::DeviceModel;
    use vaqem_device::classes::DeviceClass;
    use vaqem_device::drift::DriftModel;
    use vaqem_device::noise::NoiseParameters;
    use vaqem_fleet_service::{
        ClientQuota, DeviceSpec, FleetServiceConfig, SessionKind, SessionRequest, TenancyConfig,
    };
    use vaqem_mathkit::rng::SeedStream;
    use vaqem_runtime::BatchDispatch;

    const NUM_QUBITS: usize = 2;

    /// The tuning problem both binaries agree on (`params` lengths must
    /// match across the wire).
    pub fn problem() -> VqeProblem {
        let ansatz = EfficientSu2::new(NUM_QUBITS, 1, Entanglement::Linear)
            .circuit()
            .expect("ansatz builds");
        VqeProblem::new(
            "rpcload_tfim_2q",
            vaqem_pauli::models::tfim_paper(NUM_QUBITS),
            ansatz,
        )
        .expect("problem builds")
    }

    /// One light fleet device.
    pub fn device(index: usize, seed: u64) -> DeviceSpec {
        let name = format!("rpc-fleet-{index}");
        DeviceSpec {
            model: DeviceModel::new(
                &name,
                NUM_QUBITS,
                vec![(0, 1)],
                DurationModel::ibm_default(),
                NoiseParameters::uniform(NUM_QUBITS),
            ),
            drift: DriftModel::new(SeedStream::new(seed).substream(&format!("drift-{name}"))),
            name,
        }
    }

    /// The daemon configuration: light tuner, and the `greedy-*` tenant
    /// class capped at one in-flight session so quota-probers bounce
    /// with the typed rejection.
    pub fn service_config(store_dir: std::path::PathBuf) -> FleetServiceConfig {
        FleetServiceConfig {
            store_dir,
            shards: 4,
            capacity_per_shard: 128,
            shots: 64,
            tuner: WindowTunerConfig {
                sweep_resolution: 2,
                max_repetitions: 2,
                guard_repeats: 1,
                ..Default::default()
            },
            circuit_ns: 8_000.0,
            estimate_windows: 4,
            dispatch: BatchDispatch::local(2),
            tenancy: TenancyConfig {
                quotas: vec![(
                    "greedy-*".into(),
                    ClientQuota {
                        max_in_flight: 1,
                        minutes_per_epoch: f64::INFINITY,
                    },
                )],
                ..TenancyConfig::default()
            },
        }
    }

    /// One synthetic session request (the server rebinds `client` to the
    /// connection identity anyway).
    pub fn request(t_hours: f64) -> SessionRequest {
        SessionRequest {
            client: "loadgen".into(),
            t_hours,
            params: vec![0.3; problem().num_params()],
            device: None,
            kind: SessionKind::Dd,
        }
    }

    /// The 2-qubit fixture above schedules no idle windows — it stresses
    /// framing and scheduling, never the config cache. Replication tests
    /// need *cache traffic* (published entries are what journal shipping
    /// ships), so this 3-qubit variant schedules real windows.
    pub const WINDOWED_QUBITS: usize = 3;

    /// The windowed tuning problem (see [`WINDOWED_QUBITS`]).
    pub fn windowed_problem() -> VqeProblem {
        let ansatz = EfficientSu2::new(WINDOWED_QUBITS, 1, Entanglement::Linear)
            .circuit()
            .expect("ansatz builds");
        VqeProblem::new(
            "rpcload_tfim_3q",
            vaqem_pauli::models::tfim_paper(WINDOWED_QUBITS),
            ansatz,
        )
        .expect("problem builds")
    }

    /// One windowed fleet device: the stable-lab class's per-qubit noise
    /// and chain ZZ coupling, so the scheduler finds idle windows worth
    /// tuning, on a drift clock of its own.
    pub fn windowed_device(index: usize, seed: u64) -> DeviceSpec {
        let name = format!("rpc-windowed-{index}");
        DeviceSpec {
            model: DeviceClass::StableLab.device(&name, WINDOWED_QUBITS),
            drift: DriftModel::new(SeedStream::new(seed).substream(&format!("drift-{name}"))),
            name,
        }
    }

    /// The noise a fleet session on [`windowed_device`]`(index, seed)`
    /// executes under at `t_hours`: the device's drifted noise restricted
    /// to the windowed register, as the daemon builds it.
    pub fn windowed_noise(index: usize, seed: u64, t_hours: f64) -> NoiseParameters {
        let spec = windowed_device(index, seed);
        let layout: Vec<usize> = (0..WINDOWED_QUBITS).collect();
        spec.drift.noise_at(&spec.model, t_hours).subset(&layout)
    }

    /// Daemon configuration for the windowed fixture: the full tuner
    /// (real sweeps, guard repeats) over the same store geometry as
    /// [`service_config`], so a replica opened with either fixture's
    /// geometry can replay the other's journal.
    pub fn windowed_service_config(store_dir: std::path::PathBuf) -> FleetServiceConfig {
        FleetServiceConfig {
            store_dir,
            shards: 4,
            capacity_per_shard: 128,
            shots: 256,
            tuner: WindowTunerConfig {
                sweep_resolution: 3,
                max_repetitions: 8,
                guard_repeats: 3,
                ..Default::default()
            },
            circuit_ns: 12_000.0,
            estimate_windows: 8,
            dispatch: BatchDispatch::local(4),
            tenancy: TenancyConfig::default(),
        }
    }

    /// One windowed session request.
    pub fn windowed_request(t_hours: f64) -> SessionRequest {
        SessionRequest {
            client: "loadgen".into(),
            t_hours,
            params: vec![0.3; windowed_problem().num_params()],
            device: Some(0),
            kind: SessionKind::Dd,
        }
    }

    /// The `--sweep-cores` fixture: the *windowed* devices and problem
    /// (real idle windows, so every completed session publishes cache
    /// entries and exercises the journal) driven by the *light* tuner —
    /// sessions finish in milliseconds, so the measured bottleneck is
    /// the serving stack (pump, journal flushes, reply path) rather
    /// than simulator physics. `width` is the sweep point's device
    /// count; it only sizes the store, at no fewer shards than devices.
    pub fn sweep_service_config(store_dir: std::path::PathBuf, width: usize) -> FleetServiceConfig {
        FleetServiceConfig {
            store_dir,
            shards: width.max(4),
            capacity_per_shard: 128,
            shots: 32,
            tuner: WindowTunerConfig {
                sweep_resolution: 2,
                max_repetitions: 2,
                guard_repeats: 1,
                ..Default::default()
            },
            circuit_ns: 8_000.0,
            estimate_windows: 4,
            dispatch: BatchDispatch::local(2),
            tenancy: TenancyConfig::default(),
        }
    }

    /// One sweep session request: `device: None`, so queue-aware
    /// admission picks the device. At the sweep's seed and closed-loop
    /// load that is always the device with the shortest sampled
    /// cloud-queue wait, because the waits differ by far more than the
    /// queued sessions' estimates (DESIGN.md, *Scaling evidence*).
    pub fn sweep_request(t_hours: f64) -> SessionRequest {
        SessionRequest {
            client: "loadgen".into(),
            t_hours,
            params: vec![0.3; windowed_problem().num_params()],
            device: None,
            kind: SessionKind::Dd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_and_run() {
        let mut qc = QuantumCircuit::new(1);
        qc.h(0).unwrap();
        qc.measure(0).unwrap();
        let exec = MachineExecutor::new(casablanca_1q(), SeedStream::new(9)).with_shots(256);
        let f = fidelity_vs_ideal(&qc, &exec, 0);
        assert!((0.0..=1.0).contains(&f));
        assert!(casablanca_2q().num_qubits() == 2);
    }

    #[test]
    fn evaluation_config_is_paper_shaped() {
        let c = evaluation_config();
        assert!(c.shots >= 128);
        assert!(c.sweep_resolution >= 3);
    }
}
