//! The execution abstraction: one trait, three substrates, batched dispatch.
//!
//! Every machine interaction in the feasible flow — tuner sweep points,
//! guard evaluations, final strategy comparisons — reduces to "run this
//! scheduled circuit for `shots` shots under seed `seed`". [`Executor`]
//! names exactly that operation, and [`Executor::run_batch`] dispatches a
//! slice of independent [`Job`]s across all cores (rayon-style parallel
//! map), which is where the wall-clock of the tuning loop goes from
//! per-circuit serial to hardware-saturating.
//!
//! Determinism is load-bearing: each job's randomness is derived from a
//! [`vaqem_mathkit::rng::SeedStream`] and the job's own seed, never from
//! execution order or thread identity. `run_batch` therefore returns
//! bit-identical counts to running the same jobs sequentially — the
//! executor-parity integration tests pin this for all three
//! implementations.
//!
//! Three substrates implement the trait:
//!
//! * [`MachineExecutor`] — the quantum-trajectory "real machine",
//! * [`StateVectorSampler`] — ideal noise-free sampling,
//! * [`DensityExecutor`] — the Markovian calibration-style simulator
//!   (Fig. 9's "noisy simulation").
//!
//! ```
//! use vaqem::executor::{Executor, Job};
//! use vaqem_circuit::circuit::QuantumCircuit;
//! use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind};
//! use vaqem_mathkit::rng::SeedStream;
//! use vaqem_sim::exec::StateVectorSampler;
//!
//! let mut qc = QuantumCircuit::new(1);
//! qc.h(0).unwrap();
//! qc.measure_all();
//! let s = schedule(&qc, &DurationModel::ibm_default(), ScheduleKind::Alap).unwrap();
//!
//! let exec = StateVectorSampler::new(1, SeedStream::new(7));
//! let jobs: Vec<Job> = (0..4)
//!     .map(|seed| Job { scheduled: s.clone(), shots: 64, seed })
//!     .collect();
//! let batched = exec.run_batch(&jobs);
//!
//! // Batched dispatch is bit-identical to running each job alone.
//! assert_eq!(batched[2], exec.run(&s, 64, 2));
//! assert_eq!(batched.len(), 4);
//! ```

use rayon::prelude::*;
use vaqem_circuit::schedule::ScheduledCircuit;
use vaqem_sim::counts::Counts;
use vaqem_sim::exec::{DensityExecutor, StateVectorSampler};
use vaqem_sim::machine::MachineExecutor;

/// One unit of executable work: a concrete, fully scheduled circuit (all
/// mitigation passes already applied), a shot budget, and the seed that
/// decorrelates this job's noise streams from every other job's.
#[derive(Debug, Clone)]
pub struct Job {
    /// The circuit to execute, with mitigation applied.
    pub scheduled: ScheduledCircuit,
    /// Shots for this job.
    pub shots: u64,
    /// Per-job seed (the `job_index` of the sequential API).
    pub seed: u64,
}

/// An execution substrate: scheduled circuits in, histograms out.
///
/// Implementations must be `Send + Sync`: [`Self::run_batch`] fans jobs
/// out across threads, sharing the executor immutably.
pub trait Executor: Send + Sync {
    /// Short human-readable substrate name (for reports and benches).
    fn substrate(&self) -> &'static str;

    /// Width of the register this executor models.
    fn num_qubits(&self) -> usize;

    /// Runs one job.
    ///
    /// Must be a pure function of `(self, scheduled, shots, seed)` — in
    /// particular independent of any other job executed before or after —
    /// so that batching cannot change results.
    fn run(&self, scheduled: &ScheduledCircuit, shots: u64, seed: u64) -> Counts;

    /// Runs a slice of independent jobs, in parallel, returning counts in
    /// job order. Bit-identical to calling [`Self::run`] per job.
    fn run_batch(&self, jobs: &[Job]) -> Vec<Counts> {
        jobs.par_iter()
            .map(|job| self.run(&job.scheduled, job.shots, job.seed))
            .collect()
    }
}

/// Below this many shots a slice is not worth a fork: trajectory setup
/// (schedule compilation, scratch allocation) would dominate.
const MIN_SHOTS_PER_SLICE: u64 = 64;

/// Below this many shots in a whole batch, a machine batch runs on the
/// calling thread. The vendored pool starts fresh OS threads for every
/// parallel call, and a second core can at best halve the batch. In four
/// runs of `bench_executor` on a 2-vCPU x86_64 host, fanning out the fleet
/// batch shape (`machine_batch_4x{32..512}_shots`) lost to running it
/// inline at 128 and 256 shots every time and at 512 shots in three runs;
/// 1,024 shots is the smallest batch at which it won in half the runs.
/// Serving sessions submit 128- and 192-shot batches, and the figure
/// binaries' batches are 768 shots or more.
const MIN_SHOTS_TO_FAN_OUT: u64 = 1024;

impl Executor for MachineExecutor {
    fn substrate(&self) -> &'static str {
        "trajectory-machine"
    }

    fn num_qubits(&self) -> usize {
        self.noise().num_qubits()
    }

    fn run(&self, scheduled: &ScheduledCircuit, shots: u64, seed: u64) -> Counts {
        self.run_job_with_shots(scheduled, shots, seed)
    }

    /// A batch under 1,024 shots in all runs on the calling thread:
    /// starting threads would cost more than they save. It goes through
    /// [`MachineExecutor::run_jobs`], which resolves the batch's gate
    /// matrices and segment tables once. Larger batches fan out. Job-level
    /// parallelism saturates the machine only when the batch is wide;
    /// tuning loops often submit a *few* expensive jobs (sometimes one), so
    /// when there are fewer jobs than threads this splits each job's shot
    /// range into slices and fans the slices out instead. Every
    /// trajectory's RNG is derived solely from `(job seed, shot index)`
    /// ([`MachineExecutor::run_job_shot_range`]), so merged slice counts
    /// are bit-identical to the sequential run.
    fn run_batch(&self, jobs: &[Job]) -> Vec<Counts> {
        machine_run_batch(self, jobs, rayon::current_num_threads())
    }
}

/// Shot-splitting batch dispatch for the machine, parameterized on the
/// thread count so tests can force the split path regardless of the host.
fn machine_run_batch(exec: &MachineExecutor, jobs: &[Job], threads: usize) -> Vec<Counts> {
    if jobs.iter().map(|job| job.shots).sum::<u64>() < MIN_SHOTS_TO_FAN_OUT {
        let batch: Vec<_> = jobs
            .iter()
            .map(|job| (&job.scheduled, job.seed, 0..job.shots))
            .collect();
        return exec.run_jobs(&batch);
    }
    if jobs.len() >= threads {
        return jobs
            .par_iter()
            .map(|job| exec.run_job_with_shots(&job.scheduled, job.shots, job.seed))
            .collect();
    }
    let mut slices: Vec<(usize, std::ops::Range<u64>)> = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let share = (threads / jobs.len()).max(1) as u64;
        let pieces = share.min(job.shots / MIN_SHOTS_PER_SLICE).max(1);
        let chunk = job.shots.div_ceil(pieces);
        let mut start = 0;
        while start < job.shots {
            let end = (start + chunk).min(job.shots);
            slices.push((j, start..end));
            start = end;
        }
    }
    let partials: Vec<(usize, Counts)> = slices
        .par_iter()
        .map(|(j, range)| {
            let job = &jobs[*j];
            (
                *j,
                exec.run_job_shot_range(&job.scheduled, job.seed, range.clone()),
            )
        })
        .collect();
    let mut out: Vec<Counts> = jobs
        .iter()
        .map(|job| Counts::new(job.scheduled.num_qubits()))
        .collect();
    for (j, partial) in &partials {
        out[*j].merge(partial);
    }
    out
}

impl Executor for StateVectorSampler {
    fn substrate(&self) -> &'static str {
        "statevector-ideal"
    }

    fn num_qubits(&self) -> usize {
        self.num_qubits()
    }

    fn run(&self, scheduled: &ScheduledCircuit, shots: u64, seed: u64) -> Counts {
        self.run_job_with_shots(scheduled, shots, seed)
    }
}

impl Executor for DensityExecutor {
    fn substrate(&self) -> &'static str {
        "density-markovian"
    }

    fn num_qubits(&self) -> usize {
        self.num_qubits()
    }

    fn run(&self, scheduled: &ScheduledCircuit, shots: u64, seed: u64) -> Counts {
        self.run_job_with_shots(scheduled, shots, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_circuit::circuit::QuantumCircuit;
    use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind};
    use vaqem_device::noise::NoiseParameters;
    use vaqem_mathkit::rng::SeedStream;

    fn scheduled(n: usize, depth: usize) -> ScheduledCircuit {
        let mut qc = QuantumCircuit::new(n);
        for layer in 0..depth {
            for q in 0..n {
                qc.ry(0.17 * (layer + q + 1) as f64, q).unwrap();
            }
            for q in 0..n.saturating_sub(1) {
                qc.cx(q, q + 1).unwrap();
            }
        }
        qc.measure_all();
        schedule(&qc, &DurationModel::ibm_default(), ScheduleKind::Alap).unwrap()
    }

    fn jobs(n: usize) -> Vec<Job> {
        (0..n as u64)
            .map(|seed| Job {
                scheduled: scheduled(2, 2),
                shots: 128,
                seed,
            })
            .collect()
    }

    fn parity<E: Executor>(executor: &E) {
        let jobs = jobs(9);
        let batched = executor.run_batch(&jobs);
        for (job, counts) in jobs.iter().zip(&batched) {
            let sequential = executor.run(&job.scheduled, job.shots, job.seed);
            assert_eq!(counts, &sequential, "{} diverged", executor.substrate());
            assert_eq!(counts.total(), job.shots);
        }
    }

    #[test]
    fn machine_batch_matches_sequential() {
        parity(&MachineExecutor::new(
            NoiseParameters::uniform(2),
            SeedStream::new(11),
        ));
    }

    #[test]
    fn statevector_batch_matches_sequential() {
        parity(&StateVectorSampler::new(2, SeedStream::new(12)));
    }

    #[test]
    fn density_batch_matches_sequential() {
        parity(&DensityExecutor::new(
            NoiseParameters::uniform(2),
            SeedStream::new(13),
        ));
    }

    /// A narrow batch of wide jobs takes the shot-splitting path; the
    /// merged slices must be bit-identical to unsplit sequential runs.
    #[test]
    fn machine_shot_splitting_matches_sequential() {
        let exec = MachineExecutor::new(NoiseParameters::uniform(2), SeedStream::new(21));
        let jobs: Vec<Job> = (0..2u64)
            .map(|seed| Job {
                scheduled: scheduled(2, 2),
                shots: 700 + seed * 13, // odd sizes exercise chunk remainders
                seed,
            })
            .collect();
        // Force the split path with a synthetic thread count, so the test
        // exercises it even on a narrow host; the batch is big enough to
        // fan out at all.
        assert!(jobs.iter().map(|j| j.shots).sum::<u64>() >= MIN_SHOTS_TO_FAN_OUT);
        let batched = machine_run_batch(&exec, &jobs, 8);
        for (job, counts) in jobs.iter().zip(&batched) {
            assert_eq!(
                counts,
                &Executor::run(&exec, &job.scheduled, job.shots, job.seed)
            );
            assert_eq!(counts.total(), job.shots);
        }
    }

    /// A batch under the fan-out threshold runs inline and still matches
    /// the sequential path job for job.
    #[test]
    fn small_machine_batch_runs_inline_and_matches_sequential() {
        let exec = MachineExecutor::new(NoiseParameters::uniform(2), SeedStream::new(22));
        let jobs = jobs(4);
        assert!(jobs.iter().map(|j| j.shots).sum::<u64>() < MIN_SHOTS_TO_FAN_OUT);
        let batched = machine_run_batch(&exec, &jobs, 8);
        for (job, counts) in jobs.iter().zip(&batched) {
            assert_eq!(
                counts,
                &Executor::run(&exec, &job.scheduled, job.shots, job.seed)
            );
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let exec = StateVectorSampler::new(1, SeedStream::new(1));
        assert!(exec.run_batch(&[]).is_empty());
    }

    #[test]
    fn substrate_names_are_distinct() {
        let m = MachineExecutor::new(NoiseParameters::uniform(1), SeedStream::new(1));
        let s = StateVectorSampler::new(1, SeedStream::new(1));
        let d = DensityExecutor::new(NoiseParameters::uniform(1), SeedStream::new(1));
        let names = [
            Executor::substrate(&m),
            Executor::substrate(&s),
            Executor::substrate(&d),
        ];
        assert_eq!(names.len(), 3);
        assert!(names.windows(2).all(|w| w[0] != w[1]));
    }
}
