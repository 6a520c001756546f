//! Criterion benches for the classical tuners and objective evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use vaqem::benchmarks::BenchmarkId;
use vaqem_mathkit::eigen::hermitian_eigenvalues;
use vaqem_mathkit::rng::SeedStream;
use vaqem_optim::spsa::{self, SpsaConfig};

fn bench_spsa_quadratic(c: &mut Criterion) {
    let config = SpsaConfig::paper_default().with_iterations(100);
    c.bench_function("spsa_100_iters_36_params", |b| {
        b.iter(|| {
            spsa::minimize(
                |x| x.iter().map(|v| v * v).sum::<f64>(),
                &vec![1.0; 36],
                &config,
                &SeedStream::new(1),
            )
        })
    });
}

fn bench_ideal_objective(c: &mut Criterion) {
    let problem = BenchmarkId::Tfim6qC2r.problem().expect("benchmark builds");
    let params: Vec<f64> = (0..problem.num_params()).map(|i| 0.1 * i as f64).collect();
    c.bench_function("ideal_energy_6q_tfim", |b| {
        b.iter(|| problem.ideal_energy(&params).expect("evaluates"))
    });
}

fn bench_exact_diagonalization(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_ground_energy");
    group.sample_size(10);
    let h6 = vaqem_pauli::models::tfim_paper(6).to_matrix();
    group.bench_function("tfim_6q_64x64", |b| b.iter(|| hermitian_eigenvalues(&h6)));
    group.finish();
}

criterion_group!(
    benches,
    bench_spsa_quadratic,
    bench_ideal_objective,
    bench_exact_diagonalization
);
criterion_main!(benches);
