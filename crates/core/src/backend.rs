//! The quantum backend abstraction the tuning loop talks to.
//!
//! [`QuantumBackend`] bundles the pieces a real submission path involves:
//! ALAP scheduling under the device duration table, application of an
//! idle-time [`MitigationConfig`], execution on an [`Executor`] substrate,
//! and optional measurement-error mitigation of the returned counts — i.e.
//! everything between "here is a bound circuit" and "here are your counts".
//!
//! The backend is generic over its [`Executor`]: the default is the
//! trajectory [`MachineExecutor`] (the "real machine"), but the ideal
//! [`vaqem_sim::exec::StateVectorSampler`] and the Markovian
//! [`vaqem_sim::exec::DensityExecutor`] plug in behind the same API, so
//! heterogeneous backends coexist in one pipeline. All multi-circuit work
//! flows through [`QuantumBackend::run_jobs`], which dispatches the batch
//! in parallel and post-processes MEM per job.

use crate::error::VaqemError;
use crate::executor::{Executor, Job};
use vaqem_circuit::circuit::QuantumCircuit;
use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind, ScheduledCircuit};
use vaqem_device::noise::NoiseParameters;
use vaqem_mathkit::rng::SeedStream;
use vaqem_mitigation::combined::MitigationConfig;
use vaqem_mitigation::mem::MeasurementMitigator;
use vaqem_sim::counts::Counts;
use vaqem_sim::machine::{MachineExecutor, DEFAULT_SHOTS};

/// A noisy machine endpoint with a fixed duration table and seed stream.
#[derive(Debug, Clone)]
pub struct QuantumBackend<E: Executor = MachineExecutor> {
    executor: E,
    durations: DurationModel,
    mem: Option<MeasurementMitigator>,
    shots: u64,
}

impl QuantumBackend<MachineExecutor> {
    /// Creates a trajectory-machine backend over `noise` with IBM-default
    /// durations.
    pub fn new(noise: NoiseParameters, seeds: SeedStream) -> Self {
        QuantumBackend::from_executor(MachineExecutor::new(noise, seeds))
    }

    /// Replaces the noise parameters (drift experiments).
    pub fn set_noise(&mut self, noise: NoiseParameters) {
        self.executor.set_noise(noise);
    }
}

impl<E: Executor> QuantumBackend<E> {
    /// Creates a backend over an arbitrary execution substrate with
    /// IBM-default durations and [`DEFAULT_SHOTS`].
    pub fn from_executor(executor: E) -> Self {
        QuantumBackend {
            executor,
            durations: DurationModel::ibm_default(),
            mem: None,
            shots: DEFAULT_SHOTS,
        }
    }

    /// Overrides the shot count per execution.
    pub fn with_shots(mut self, shots: u64) -> Self {
        assert!(shots > 0, "shot count must be positive");
        self.shots = shots;
        self
    }

    /// Shots per execution.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Gate duration table.
    pub fn durations(&self) -> &DurationModel {
        &self.durations
    }

    /// The raw execution substrate.
    pub fn executor(&self) -> &E {
        &self.executor
    }

    /// Calibrates and enables measurement-error mitigation (the paper's
    /// baseline applies MEM orthogonally to everything).
    pub fn calibrate_mem(&mut self) {
        let n = self.executor.num_qubits();
        let executor = &self.executor;
        let durations = self.durations.clone();
        let shots = self.shots;
        let mitigator = MeasurementMitigator::calibrate(n, |qc| {
            let s = schedule(qc, &durations, ScheduleKind::Asap).expect("calibration circuit");
            executor.run(&s, shots, u64::MAX) // dedicated stream for calibration
        });
        self.mem = Some(mitigator);
    }

    /// Disables measurement-error mitigation (the "No-EM" comparison).
    pub fn clear_mem(&mut self) {
        self.mem = None;
    }

    /// Returns `true` when MEM is active.
    pub fn mem_enabled(&self) -> bool {
        self.mem.is_some()
    }

    /// Schedules a bound circuit ALAP (the compilation baseline).
    ///
    /// # Errors
    ///
    /// Returns an error for parameterized circuits.
    pub fn schedule(&self, circuit: &QuantumCircuit) -> Result<ScheduledCircuit, VaqemError> {
        Ok(schedule(circuit, &self.durations, ScheduleKind::Alap)?)
    }

    /// Builds one executable [`Job`] from an already-scheduled base
    /// circuit: applies `config` and stamps the backend's shot budget.
    ///
    /// This is the batching primitive: callers schedule the base circuit
    /// once (see `VqeProblem::schedule_groups`) and stamp out one cheap job
    /// per sweep point instead of re-scheduling per evaluation.
    pub fn prepare_job(
        &self,
        base: &ScheduledCircuit,
        config: &MitigationConfig,
        job_index: u64,
    ) -> Job {
        Job {
            scheduled: config.apply(base, &self.durations),
            shots: self.shots,
            seed: job_index,
        }
    }

    /// Builds the job for one ZNE noise scale: applies the schedule-level
    /// part of `config` (GS/DD — [`MitigationConfig::apply`] ignores the
    /// ZNE field), then folds the mitigated schedule `folds` times on its
    /// own timeline ([`vaqem_mitigation::zne::fold_schedule`]), so the
    /// amplified circuit carries the tuned mitigation structure in every
    /// segment. With `folds == 0` this is exactly [`Self::prepare_job`].
    pub fn prepare_zne_job(
        &self,
        base: &ScheduledCircuit,
        config: &MitigationConfig,
        folds: usize,
        job_index: u64,
    ) -> Job {
        let mitigated = config.apply(base, &self.durations);
        Job {
            scheduled: vaqem_mitigation::zne::fold_schedule(&mitigated, folds),
            shots: self.shots,
            seed: job_index,
        }
    }

    /// Runs a batch of jobs in parallel through the executor, applying MEM
    /// post-processing per job when calibrated. Results are in job order
    /// and bit-identical to running the jobs one at a time.
    pub fn run_jobs(&self, jobs: &[Job]) -> Vec<Counts> {
        self.executor
            .run_batch(jobs)
            .into_iter()
            .map(|raw| self.postprocess(raw))
            .collect()
    }

    fn postprocess(&self, raw: Counts) -> Counts {
        match &self.mem {
            Some(m) if m.num_qubits() == raw.num_qubits() => m.mitigate_counts(&raw),
            _ => raw,
        }
    }

    /// Runs a bound circuit with a mitigation configuration applied, MEM
    /// post-processing included when calibrated.
    ///
    /// `job_index` decorrelates the noise streams of repeated runs.
    ///
    /// # Errors
    ///
    /// Returns an error for parameterized circuits.
    pub fn run_with_mitigation(
        &self,
        circuit: &QuantumCircuit,
        config: &MitigationConfig,
        job_index: u64,
    ) -> Result<Counts, VaqemError> {
        let scheduled = self.schedule(circuit)?;
        let job = self.prepare_job(&scheduled, config, job_index);
        let raw = self.executor.run(&job.scheduled, job.shots, job.seed);
        Ok(self.postprocess(raw))
    }

    /// Runs without idle-time mitigation (the scheduling baseline).
    ///
    /// # Errors
    ///
    /// Returns an error for parameterized circuits.
    pub fn run(&self, circuit: &QuantumCircuit, job_index: u64) -> Result<Counts, VaqemError> {
        self.run_with_mitigation(circuit, &MitigationConfig::baseline(), job_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_mitigation::dd::DdSequence;
    use vaqem_sim::exec::{DensityExecutor, StateVectorSampler};

    fn bell() -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        qc.measure_all();
        qc
    }

    #[test]
    fn run_returns_full_shot_count() {
        let backend =
            QuantumBackend::new(NoiseParameters::uniform(2), SeedStream::new(1)).with_shots(512);
        let counts = backend.run(&bell(), 0).unwrap();
        assert_eq!(counts.total(), 512);
        assert_eq!(counts.num_qubits(), 2);
    }

    #[test]
    fn mem_calibration_changes_counts() {
        let mut noise = NoiseParameters::noiseless(2);
        noise.qubit_mut(0).readout_p01 = 0.1;
        noise.qubit_mut(1).readout_p01 = 0.1;
        let mut backend = QuantumBackend::new(noise, SeedStream::new(2)).with_shots(4096);
        let raw = backend.run(&bell(), 0).unwrap();
        backend.calibrate_mem();
        assert!(backend.mem_enabled());
        let mitigated = backend.run(&bell(), 0).unwrap();
        // MEM pushes weight back onto 00/11.
        let raw_good = raw.probability("00") + raw.probability("11");
        let mit_good = mitigated.probability("00") + mitigated.probability("11");
        assert!(mit_good > raw_good, "{mit_good} vs {raw_good}");
        backend.clear_mem();
        assert!(!backend.mem_enabled());
    }

    #[test]
    fn mitigation_config_is_applied() {
        // A circuit with an idle window: DD insertion must not break
        // execution and must keep total shots.
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        for _ in 0..12 {
            qc.sx(1).unwrap();
        }
        qc.cx(0, 1).unwrap();
        qc.measure_all();
        let backend =
            QuantumBackend::new(NoiseParameters::uniform(2), SeedStream::new(3)).with_shots(256);
        let cfg = MitigationConfig::dynamical_decoupling(DdSequence::Xy4, vec![1, 1, 1, 1]);
        let counts = backend.run_with_mitigation(&qc, &cfg, 0).unwrap();
        assert_eq!(counts.total(), 256);
    }

    #[test]
    fn parameterized_circuit_rejected() {
        let mut qc = QuantumCircuit::new(1);
        qc.ry_param(0, 0).unwrap();
        let backend = QuantumBackend::new(NoiseParameters::uniform(1), SeedStream::new(4));
        assert!(backend.run(&qc, 0).is_err());
    }

    #[test]
    fn generic_backends_share_the_api() {
        // The same bound circuit runs on all three substrates behind the
        // same backend type.
        let qc = bell();
        let ideal = QuantumBackend::from_executor(StateVectorSampler::new(2, SeedStream::new(5)))
            .with_shots(1024);
        let density = QuantumBackend::from_executor(DensityExecutor::new(
            NoiseParameters::uniform(2),
            SeedStream::new(5),
        ))
        .with_shots(1024);
        let machine =
            QuantumBackend::new(NoiseParameters::uniform(2), SeedStream::new(5)).with_shots(1024);
        for counts in [
            ideal.run(&qc, 0).unwrap(),
            density.run(&qc, 0).unwrap(),
            machine.run(&qc, 0).unwrap(),
        ] {
            assert_eq!(counts.total(), 1024);
        }
        // The ideal substrate produces no odd-parity Bell outcomes.
        let i = ideal.run(&qc, 1).unwrap();
        assert_eq!(i.get("01") + i.get("10"), 0);
    }

    #[test]
    fn run_jobs_applies_mem_per_job() {
        let mut noise = NoiseParameters::noiseless(2);
        noise.qubit_mut(0).readout_p01 = 0.08;
        noise.qubit_mut(1).readout_p01 = 0.08;
        let mut backend = QuantumBackend::new(noise, SeedStream::new(6)).with_shots(2048);
        backend.calibrate_mem();
        let scheduled = backend.schedule(&bell()).unwrap();
        let jobs: Vec<Job> = (0..4)
            .map(|seed| backend.prepare_job(&scheduled, &MitigationConfig::baseline(), seed))
            .collect();
        let batched = backend.run_jobs(&jobs);
        assert_eq!(batched.len(), 4);
        for (job, counts) in jobs.iter().zip(&batched) {
            let single = backend
                .run_with_mitigation(&bell(), &MitigationConfig::baseline(), job.seed)
                .unwrap();
            assert_eq!(counts, &single, "batch vs single for seed {}", job.seed);
        }
    }
}
