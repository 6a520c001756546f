//! Criterion benches for the Executor layer: a tuner-style sweep batch
//! dispatched through `run_batch` (parallel) vs. the same jobs run
//! sequentially — the speedup the batched tuning loop banks on — and the
//! fleet's small batches on both sides of the machine's fan-out rule.

use criterion::{criterion_group, criterion_main, BenchmarkId as CriterionId, Criterion};
use rayon::prelude::*;
use vaqem::executor::{Executor, Job};
use vaqem::vqe::VqeProblem;
use vaqem::QuantumBackend;
use vaqem_ansatz::su2::{EfficientSu2, Entanglement};
use vaqem_bench::rpcload;
use vaqem_device::noise::NoiseParameters;
use vaqem_mathkit::rng::SeedStream;
use vaqem_mitigation::combined::MitigationConfig;
use vaqem_mitigation::dd::DdSequence;
use vaqem_pauli::models::tfim_paper;
use vaqem_sim::machine::MachineExecutor;

/// A tuner-shaped batch: one job per (sweep candidate, measurement group),
/// exactly what one window's sweep dispatches.
fn sweep_jobs(shots: u64) -> (MachineExecutor, Vec<Job>) {
    let ansatz = EfficientSu2::new(4, 1, Entanglement::Linear)
        .circuit()
        .expect("ansatz");
    let problem = VqeProblem::new("bench", tfim_paper(4), ansatz).expect("problem");
    let backend =
        QuantumBackend::new(NoiseParameters::uniform(4), SeedStream::new(99)).with_shots(shots);
    let params = vec![0.3; problem.num_params()];
    let cache = problem
        .schedule_groups(&backend, &params)
        .expect("schedules");
    let mut jobs = Vec::new();
    for (c, reps) in [0usize, 1, 2, 4, 6, 8].into_iter().enumerate() {
        let cfg = MitigationConfig::dynamical_decoupling(DdSequence::Xy4, vec![reps; 16]);
        jobs.extend(problem.energy_jobs(&backend, &cache, &cfg, 1_000 + c as u64));
    }
    (backend.executor().clone(), jobs)
}

fn bench_sweep_batched_vs_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("tuner_sweep_128_shots");
    group.sample_size(10);
    let (executor, jobs) = sweep_jobs(128);
    group.bench_with_input(
        CriterionId::from_parameter("sequential"),
        &jobs,
        |b, jobs| {
            b.iter(|| {
                jobs.iter()
                    .map(|j| Executor::run(&executor, &j.scheduled, j.shots, j.seed))
                    .collect::<Vec<_>>()
            })
        },
    );
    group.bench_with_input(
        CriterionId::from_parameter("run_batch"),
        &jobs,
        |b, jobs| b.iter(|| executor.run_batch(jobs)),
    );
    group.finish();
}

/// A warm fleet session's batch shape: 4 jobs (two DD configurations x
/// two measurement groups) on the fleet fixture's 3-qubit windowed
/// problem, at `shots` a job.
fn fleet_batch(shots: u64) -> (MachineExecutor, Vec<Job>) {
    let problem = rpcload::windowed_problem();
    let noise = rpcload::windowed_noise(0, 7077, 1.0);
    let backend = QuantumBackend::new(noise, SeedStream::new(7077)).with_shots(shots);
    let params = vec![0.3; problem.num_params()];
    let cache = problem
        .schedule_groups(&backend, &params)
        .expect("schedules");
    let mut jobs = Vec::new();
    for (c, reps) in [0usize, 2].into_iter().enumerate() {
        let cfg = MitigationConfig::dynamical_decoupling(DdSequence::Xy4, vec![reps; 16]);
        jobs.extend(problem.energy_jobs(&backend, &cache, &cfg, 1_000 + c as u64));
    }
    assert_eq!(jobs.len(), 4, "two configs x two measurement groups");
    (backend.executor().clone(), jobs)
}

/// Both sides of the machine's fan-out rule. Warm sessions submit 4 x 32
/// shots; each group runs that batch shape at 32 to 512 shots a job (128
/// to 2,048 in all) on the calling thread (`inline`) and fanned out job by
/// job over the pool (`fan_out`, what `run_batch` does with a batch at or
/// over the threshold and at least as many jobs as threads), and through
/// `run_batch` itself, which picks one of the two.
fn bench_fleet_batches(c: &mut Criterion) {
    for shots in [32u64, 64, 128, 256, 512] {
        let (executor, jobs) = fleet_batch(shots);
        let run = |j: &Job| Executor::run(&executor, &j.scheduled, j.shots, j.seed);
        let mut group = c.benchmark_group(format!("machine_batch_4x{shots}_shots"));
        group.bench_with_input(CriterionId::from_parameter("inline"), &jobs, |b, jobs| {
            b.iter(|| jobs.iter().map(run).collect::<Vec<_>>())
        });
        group.bench_with_input(CriterionId::from_parameter("fan_out"), &jobs, |b, jobs| {
            b.iter(|| jobs.par_iter().map(run).collect::<Vec<_>>())
        });
        group.bench_with_input(
            CriterionId::from_parameter("run_batch"),
            &jobs,
            |b, jobs| b.iter(|| executor.run_batch(jobs)),
        );
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_sweep_batched_vs_sequential,
    bench_fleet_batches
);
criterion_main!(benches);
