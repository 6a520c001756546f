//! Kernel-level criterion suite for the simulation engines.
//!
//! Every optimized hot path is benchmarked side by side with the preserved
//! original in `vaqem_sim::naive`, so the reported speedups compare real
//! code. After the groups run, `main` drains the shim's measurement
//! registry and writes `BENCH_simulators.json` (kernel, qubit count,
//! ns/op, throughput, speedup vs naive) at the workspace root — the
//! committed copy is the performance baseline CI guards.
//!
//! Environment:
//!
//! * `VAQEM_QUICK=1` — smoke budgets (~10x faster, noisier; CI uses this).
//! * `BENCH_SIMULATORS_OUT` — output path (relative to the workspace root;
//!   default `BENCH_simulators.json`).
//! * `BENCH_BASELINE` — when set, compare speedup ratios against this
//!   baseline JSON and exit nonzero if any kernel's speedup regressed by
//!   more than `BENCH_MAX_REGRESSION` (default `0.25`, i.e. 25%).
//!   Speedups are within-machine ratios, so the gate is portable across
//!   runner hardware in a way raw ns/op would not be.

use criterion::{criterion_group, BenchmarkId as CriterionId, Criterion};
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use vaqem::QuantumBackend;
use vaqem_ansatz::su2::{EfficientSu2, Entanglement};
use vaqem_bench::{alap, rpcload};
use vaqem_circuit::circuit::QuantumCircuit;
use vaqem_circuit::gate::Gate;
use vaqem_circuit::schedule::ScheduledCircuit;
use vaqem_device::noise::NoiseParameters;
use vaqem_mathkit::rng::SeedStream;
use vaqem_mathkit::smallmat::{M2, M4};
use vaqem_sim::density::run_markovian;
use vaqem_sim::machine::{LaneBuild, MachineExecutor};
use vaqem_sim::naive;
use vaqem_sim::statevector::StateVector;

fn bound_ansatz(n: usize, reps: usize) -> QuantumCircuit {
    let a = EfficientSu2::new(n, reps, Entanglement::Circular);
    let qc = a.circuit().expect("ansatz builds");
    let params: Vec<f64> = (0..a.num_params()).map(|i| 0.1 * i as f64).collect();
    let mut bound = qc.bind(&params).expect("binding");
    bound.measure_all();
    bound
}

/// Dense statevector evolution: fused kernels vs the original full-index
/// loops with per-gate unitary fetches.
fn bench_sv_evolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("sv_evolve");
    for n in [4usize, 6, 10] {
        let qc = bound_ansatz(n, 2);
        group.bench_with_input(CriterionId::from_parameter(n), &qc, |b, qc| {
            b.iter(|| StateVector::run(qc).expect("runs"))
        });
    }
    group.finish();
    let mut group = c.benchmark_group("sv_evolve_naive");
    for n in [4usize, 6, 10] {
        let qc = bound_ansatz(n, 2);
        group.bench_with_input(CriterionId::from_parameter(n), &qc, |b, qc| {
            b.iter(|| naive::run(qc).expect("runs"))
        });
    }
    group.finish();
}

/// Shot sampling: build-once CDF + binary search + index histogram vs the
/// per-shot linear scan with per-shot bitstring allocation.
fn bench_sv_sample(c: &mut Criterion) {
    let n = 10usize;
    let shots = 4096u64;
    let qc = bound_ansatz(n, 2);
    let sv = StateVector::run(&qc).expect("runs");
    let mut group = c.benchmark_group("sv_sample_4096");
    group.bench_with_input(CriterionId::from_parameter(n), &sv, |b, sv| {
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            sv.sample_counts(&mut rng, shots)
        })
    });
    group.finish();
    let mut group = c.benchmark_group("sv_sample_4096_naive");
    group.bench_with_input(CriterionId::from_parameter(n), &sv, |b, sv| {
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            naive::sample_counts(sv, &mut rng, shots)
        })
    });
    group.finish();
}

/// Raw gate kernels on a live state: half/quarter-space sweeps (parallel at
/// `n = 16`) vs branch-skipping full-index loops.
fn bench_kernels(c: &mut Criterion) {
    let h2 = M2::from_cmatrix(&Gate::H.unitary().unwrap());
    let h_c = Gate::H.unitary().unwrap();
    let cx4 = M4::from_cmatrix(&Gate::Cx.unitary().unwrap());
    let cx_c = Gate::Cx.unitary().unwrap();
    let mut group = c.benchmark_group("kernel_m2");
    for n in [10usize, 16] {
        let mut sv = StateVector::zero_state(n);
        group.bench_function(CriterionId::from_parameter(n), |b| {
            b.iter(|| sv.apply_m2(&h2, n / 2))
        });
    }
    group.finish();
    let mut group = c.benchmark_group("kernel_m2_naive");
    for n in [10usize, 16] {
        let mut sv = StateVector::zero_state(n);
        group.bench_function(CriterionId::from_parameter(n), |b| {
            b.iter(|| naive::apply_single(&mut sv, &h_c, n / 2))
        });
    }
    group.finish();
    let mut group = c.benchmark_group("kernel_m4");
    for n in [10usize, 16] {
        let mut sv = StateVector::zero_state(n);
        group.bench_function(CriterionId::from_parameter(n), |b| {
            b.iter(|| sv.apply_m4(&cx4, 0, n - 1))
        });
    }
    group.finish();
    let mut group = c.benchmark_group("kernel_m4_naive");
    for n in [10usize, 16] {
        let mut sv = StateVector::zero_state(n);
        group.bench_function(CriterionId::from_parameter(n), |b| {
            b.iter(|| naive::apply_two(&mut sv, &cx_c, 0, n - 1))
        });
    }
    group.finish();
}

/// Trajectory sampling: compiled schedule + scratch reuse + fusion vs the
/// per-shot-allocating original (identical RNG streams, identical counts).
fn bench_machine_trajectories(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine_256_shots");
    for n in [4usize, 10] {
        let s = alap(&bound_ansatz(n, 2));
        let exec = MachineExecutor::new(NoiseParameters::uniform(n), SeedStream::new(1));
        group.bench_with_input(CriterionId::from_parameter(n), &s, |b, s| {
            b.iter(|| exec.run_job_with_shots(s, 256, 7))
        });
    }
    group.finish();
    let mut group = c.benchmark_group("machine_256_shots_naive");
    for n in [4usize, 10] {
        let s = alap(&bound_ansatz(n, 2));
        let noise = NoiseParameters::uniform(n);
        let seeds = SeedStream::new(1);
        group.bench_with_input(CriterionId::from_parameter(n), &s, |b, s| {
            b.iter(|| naive::machine_run_job_with_shots(&noise, &seeds, s, 256, 7))
        });
    }
    group.finish();
}

/// The fleet fixture's group-0 job: the windowed 3-qubit TFIM at 0.3
/// angles, scheduled as a fleet session schedules it on
/// `windowed_device(0, 7077)` under that device's noise at 1 h.
fn fleet_group0_job() -> (NoiseParameters, ScheduledCircuit) {
    let problem = rpcload::windowed_problem();
    let noise = rpcload::windowed_noise(0, 7077, 1.0);
    let backend = QuantumBackend::new(noise.clone(), SeedStream::new(1));
    let params = vec![0.3; problem.num_params()];
    let groups = problem
        .schedule_groups(&backend, &params)
        .expect("fixture schedules");
    (noise, groups.schedules()[0].clone())
}

/// A serving-size trajectory job: 32 shots of the fleet fixture's 3-qubit
/// group-0 schedule, the unit a warm session's sweep and guard batches are
/// made of. `machine_job_setup` times the same job over an empty shot range
/// (schedule compile, scratch and histogram), so `main` can split the job
/// into per-job set-up and per-shot time.
fn bench_machine_serving_job(c: &mut Criterion) {
    let (noise, s) = fleet_group0_job();
    let n = s.num_qubits();
    let seeds = SeedStream::new(1);
    let exec = MachineExecutor::new(noise.clone(), seeds);
    let mut group = c.benchmark_group("machine_32_shots");
    group.bench_with_input(CriterionId::from_parameter(n), &s, |b, s| {
        b.iter(|| exec.run_job_with_shots(s, 32, 7))
    });
    group.finish();
    let mut group = c.benchmark_group("machine_32_shots_naive");
    group.bench_with_input(CriterionId::from_parameter(n), &s, |b, s| {
        b.iter(|| naive::machine_run_job_with_shots(&noise, &seeds, s, 32, 7))
    });
    group.finish();
    let mut group = c.benchmark_group("machine_job_setup");
    group.bench_with_input(CriterionId::from_parameter(n), &s, |b, s| {
        b.iter(|| exec.run_job_shot_range(s, 7, 0..0))
    });
    group.finish();
}

/// Markovian density evolution: O(4^n) sub-block sweeps vs O(8^n)
/// embed-and-multiply.
fn bench_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_markovian");
    for n in [2usize, 4] {
        let s = alap(&bound_ansatz(n, 2));
        let noise = NoiseParameters::uniform(n);
        group.bench_with_input(CriterionId::from_parameter(n), &s, |b, s| {
            b.iter(|| run_markovian(s, &noise))
        });
    }
    group.finish();
    let mut group = c.benchmark_group("density_markovian_naive");
    for n in [2usize, 4] {
        let s = alap(&bound_ansatz(n, 2));
        let noise = NoiseParameters::uniform(n);
        group.bench_with_input(CriterionId::from_parameter(n), &s, |b, s| {
            b.iter(|| naive::density_run_markovian(s, &noise))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sv_evolve,
    bench_sv_sample,
    bench_kernels,
    bench_machine_trajectories,
    bench_machine_serving_job,
    bench_density
);

// ---------------------------------------------------------------------------
// Machine-readable report + regression gate.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Row {
    kernel: String,
    qubits: usize,
    ns_per_op: f64,
    ops_per_sec: f64,
    iters: u64,
    speedup_vs_naive: Option<f64>,
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

fn resolve(path: &str) -> PathBuf {
    let p = Path::new(path);
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        workspace_root().join(p)
    }
}

fn build_rows(measurements: &[criterion::Measurement]) -> Vec<Row> {
    let mut rows: Vec<Row> = measurements
        .iter()
        .filter_map(|m| {
            let (kernel, param) = m.label.rsplit_once('/')?;
            let qubits: usize = param.parse().ok()?;
            Some(Row {
                kernel: kernel.to_string(),
                qubits,
                ns_per_op: m.mean_ns,
                ops_per_sec: 1e9 / m.mean_ns.max(1e-9),
                iters: m.iters,
                speedup_vs_naive: None,
            })
        })
        .collect();
    for i in 0..rows.len() {
        if rows[i].kernel.ends_with("_naive") {
            continue;
        }
        let naive_kernel = format!("{}_naive", rows[i].kernel);
        if let Some(naive_row) = rows
            .iter()
            .find(|r| r.kernel == naive_kernel && r.qubits == rows[i].qubits)
        {
            rows[i].speedup_vs_naive = Some(naive_row.ns_per_op / rows[i].ns_per_op);
        }
    }
    rows
}

fn render_json(rows: &[Row]) -> String {
    let mut out =
        String::from("{\n  \"schema\": \"vaqem-bench-simulators/v1\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = match r.speedup_vs_naive {
            Some(s) => format!(", \"speedup_vs_naive\": {s:.3}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"qubits\": {}, \"ns_per_op\": {:.1}, \"ops_per_sec\": {:.1}, \"iters\": {}{}}}{}\n",
            r.kernel,
            r.qubits,
            r.ns_per_op,
            r.ops_per_sec,
            r.iters,
            speedup,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pulls `"key": <number>` out of a one-result-per-line JSON row. Only the
/// writer above produces the files this reads, so a full JSON parser is
/// not needed.
fn field_f64(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Compares current speedup ratios against the baseline file; returns the
/// list of regressions beyond `max_regression` (fractional, e.g. `0.25`).
fn find_regressions(baseline: &str, rows: &[Row], max_regression: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for line in baseline.lines() {
        let (Some(kernel), Some(qubits), Some(base_speedup)) = (
            field_str(line, "kernel"),
            field_f64(line, "qubits"),
            field_f64(line, "speedup_vs_naive"),
        ) else {
            continue;
        };
        let Some(row) = rows
            .iter()
            .find(|r| r.kernel == kernel && r.qubits == qubits as usize)
        else {
            failures.push(format!("{kernel}/{qubits}: missing from current run"));
            continue;
        };
        let current = row.speedup_vs_naive.unwrap_or(0.0);
        let floor = base_speedup * (1.0 - max_regression);
        if current < floor {
            failures.push(format!(
                "{kernel}/{qubits}: speedup {current:.2}x < {floor:.2}x \
                 (baseline {base_speedup:.2}x - {:.0}%)",
                max_regression * 100.0
            ));
        }
    }
    failures
}

/// Prints the serving-size job's cost split: per-job set-up and per-shot
/// time, from the `machine_32_shots` and `machine_job_setup` rows.
fn print_job_split(rows: &[Row]) {
    let find = |kernel: &str| rows.iter().find(|r| r.kernel == kernel);
    if let (Some(job), Some(setup)) = (find("machine_32_shots"), find("machine_job_setup")) {
        println!(
            "machine_32_shots/{}: {:.1} us per job = {:.1} us set-up + 32 x {:.3} us per shot",
            job.qubits,
            job.ns_per_op / 1e3,
            setup.ns_per_op / 1e3,
            (job.ns_per_op - setup.ns_per_op) / 32.0 / 1e3,
        );
    }
}

fn main() {
    // The machine rows run the widest trajectory lane build this CPU
    // supports; their ratios depend on it.
    println!(
        "trajectory lane interpreter: {} build",
        LaneBuild::detected().name()
    );
    benches();
    let rows = build_rows(&criterion::drain_measurements());
    print_job_split(&rows);
    let out = resolve(
        &std::env::var("BENCH_SIMULATORS_OUT").unwrap_or_else(|_| "BENCH_simulators.json".into()),
    );
    std::fs::write(&out, render_json(&rows)).expect("write bench report");
    println!("wrote {}", out.display());
    if let Ok(baseline_path) = std::env::var("BENCH_BASELINE") {
        let tol: f64 = std::env::var("BENCH_MAX_REGRESSION")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.25);
        let baseline = std::fs::read_to_string(resolve(&baseline_path)).expect("read baseline");
        let failures = find_regressions(&baseline, &rows, tol);
        if failures.is_empty() {
            println!(
                "regression gate: all kernels within {:.0}% of baseline speedups",
                tol * 100.0
            );
        } else {
            eprintln!("performance regression vs {baseline_path}:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
