//! Property-based parity suite for the optimized simulation hot paths.
//!
//! Every optimized engine in `vaqem-sim` keeps its pre-optimization
//! implementation alive in [`vaqem_sim::naive`] as an executable oracle.
//! These properties drive both sides with randomized circuits (widths
//! 1–10, mixed gate sets, random angles and delays) and pin the contracts
//! the kernel rewrites promise:
//!
//! * raw gate kernels are **bit-identical** to the original index-filtered
//!   loops (same arithmetic, same order);
//! * the fused circuit runner matches the gate-at-a-time reference to
//!   1e-12 (fusion reassociates products, so exact equality is not owed);
//! * CDF shot sampling consumes the RNG stream exactly like the original
//!   linear scan (bit-identical histograms);
//! * exact-counts apportionment always totals the requested shots;
//! * the trajectory machine is deterministic and shot-range splitting
//!   merges back to the sequential run bit for bit;
//! * the machine's counts equal the per-op reference trajectory loop at
//!   every width 1–7 and on every lane build the host supports, under noise
//!   that makes every rare per-lane event common;
//! * the density engine's sub-block sweeps match the embed-and-multiply
//!   originals to 1e-12.
//!
//! Cases derive from a fixed root seed (override with `PROPTEST_RNG_SEED`)
//! so failures replay deterministically.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vaqem_circuit::circuit::QuantumCircuit;
use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind, ScheduledCircuit};
use vaqem_device::noise::{NoiseParameters, QubitNoise};
use vaqem_mathkit::c64;
use vaqem_mathkit::complex::Complex64;
use vaqem_mathkit::rng::SeedStream;
use vaqem_sim::machine::{LaneBuild, MachineExecutor, LANES};
use vaqem_sim::statevector::StateVector;
use vaqem_sim::{density, naive};

/// One randomized gate-mix element: `(kind, angle, qubit pick, qubit pick)`.
/// Qubit picks are reduced modulo the circuit width at build time so one
/// strategy serves every width.
type OpSpec = (u8, f64, usize, usize);

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    (0u8..14, -3.0f64..3.0, 0usize..10, 0usize..10)
}

/// Materializes a random op list into a concrete circuit of width `n`.
fn build_circuit(n: usize, ops: &[OpSpec]) -> QuantumCircuit {
    let mut qc = QuantumCircuit::new(n);
    for &(kind, theta, a, b) in ops {
        let q = a % n;
        let q2 = b % n;
        match kind {
            0 => qc.h(q).unwrap(),
            1 => qc.x(q).unwrap(),
            2 => qc.y(q).unwrap(),
            3 => qc.z(q).unwrap(),
            4 => qc.sx(q).unwrap(),
            5 => qc.rx(theta, q).unwrap(),
            6 => qc.ry(theta, q).unwrap(),
            7 => qc.rz(theta, q).unwrap(),
            8 => qc.s(q).unwrap(),
            9..=11 => {
                if n < 2 {
                    continue;
                }
                let q2 = if q2 == q { (q + 1) % n } else { q2 };
                match kind {
                    9 => qc.cx(q, q2).unwrap(),
                    10 => qc.cz(q, q2).unwrap(),
                    _ => qc.swap(q, q2).unwrap(),
                }
            }
            12 => qc.id(q).unwrap(),
            _ => qc.delay(theta.abs() * 1_000.0, q).unwrap(),
        };
    }
    qc
}

fn sched(qc: &QuantumCircuit) -> ScheduledCircuit {
    schedule(qc, &DurationModel::ibm_default(), ScheduleKind::Asap).unwrap()
}

fn random_state(n: usize, parts: &[(f64, f64)]) -> Vec<Complex64> {
    (0..1usize << n)
        .map(|i| {
            let (re, im) = parts[i % parts.len()];
            c64(re + i as f64 * 1e-3, im - i as f64 * 1e-3)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_kernel_run_matches_naive_reference(
        n in 1usize..11,
        ops in collection::vec(op_strategy(), 0..24),
    ) {
        let qc = build_circuit(n, &ops);
        let fast = StateVector::run(&qc).unwrap();
        let slow = naive::run(&qc).unwrap();
        for (i, (a, b)) in fast.amplitudes().iter().zip(slow.amplitudes()).enumerate() {
            prop_assert!(
                a.approx_eq(*b, 1e-12),
                "amplitude {i} diverged: {a:?} vs {b:?} (width {n}, {} ops)",
                ops.len()
            );
        }
    }

    #[test]
    fn gate_kernels_are_bit_identical_to_naive_loops(
        n in 1usize..9,
        parts in collection::vec((-1.0f64..1.0, -1.0f64..1.0), 4..16),
        kind in 0u8..12,
        theta in -3.0f64..3.0,
        picks in (0usize..10, 0usize..10),
    ) {
        let amps = random_state(n, &parts);
        let qc = build_circuit(n, &[(kind, theta, picks.0, picks.1)]);
        let mut fast = StateVector::from_amplitudes(amps.clone());
        let mut slow = StateVector::from_amplitudes(amps);
        for ins in qc.instructions() {
            let u = ins.gate.unitary().unwrap();
            match ins.qubits.len() {
                1 => {
                    fast.apply_single(&u, ins.qubits[0]);
                    naive::apply_single(&mut slow, &u, ins.qubits[0]);
                }
                _ => {
                    fast.apply_two(&u, ins.qubits[0], ins.qubits[1]);
                    naive::apply_two(&mut slow, &u, ins.qubits[0], ins.qubits[1]);
                }
            }
        }
        prop_assert_eq!(fast.amplitudes(), slow.amplitudes());
    }

    #[test]
    fn cdf_sampling_is_bit_identical_to_linear_scan(
        n in 1usize..9,
        ops in collection::vec(op_strategy(), 1..16),
        seed in 0u64..1_000_000,
        shots in 1u64..600,
    ) {
        let sv = StateVector::run(&build_circuit(n, &ops)).unwrap();
        let fast = sv.sample_counts(&mut StdRng::seed_from_u64(seed), shots);
        let slow = naive::sample_counts(&sv, &mut StdRng::seed_from_u64(seed), shots);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn exact_counts_always_total_shots(
        n in 1usize..11,
        ops in collection::vec(op_strategy(), 1..16),
        shots in 1u64..5_000,
    ) {
        let sv = StateVector::run(&build_circuit(n, &ops)).unwrap();
        prop_assert_eq!(sv.exact_counts(shots).total(), shots);
    }

    #[test]
    fn density_sweeps_match_embedded_reference(
        n in 1usize..4,
        ops in collection::vec(op_strategy(), 1..10),
    ) {
        let s = sched(&build_circuit(n, &ops));
        let noise = NoiseParameters::uniform(n);
        let fast = density::run_markovian(&s, &noise);
        let slow = naive::density_run_markovian(&s, &noise);
        let diff = fast.matrix().max_abs_diff(slow.matrix());
        prop_assert!(diff < 1e-12, "density engines diverged by {diff}");
    }
}

/// Noise under which every rare trajectory event is common: telegraph flips
/// within a gate slot, amplitude-damping jumps (T1 of a few segments),
/// dephasing flips, gate-error Paulis on one gate in five (splitting fused
/// runs), ZZ on every pair, and qubits with no quasi-static detuning beside
/// ones with a strong one.
fn eventful_noise(n: usize) -> NoiseParameters {
    let qubits = (0..n)
        .map(|q| QubitNoise {
            t1_ns: 400.0,
            t2_ns: 500.0,
            quasi_static_sigma_rad_ns: if q % 3 == 1 { 0.0 } else { 4.0e-3 },
            telegraph_rate_per_ns: 1.0e-3,
            readout_p01: 0.05,
            readout_p10: 0.08,
            gate_error_1q: 0.2,
        })
        .collect();
    let mut noise = NoiseParameters::from_qubits(qubits);
    for a in 0..n {
        for b in a + 1..n {
            noise.set_zz(a, b, 5.0e-4);
            noise.set_cx_error(a, b, 0.2);
        }
    }
    noise
}

proptest! {
    // Trajectory properties run whole shot loops per case, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn trajectory_machine_is_deterministic_and_split_invariant(
        n in 1usize..4,
        ops in collection::vec(op_strategy(), 1..10),
        shots in 1u64..180,
        split in 0u64..180,
        job in 0u64..32,
    ) {
        let mut qc = build_circuit(n, &ops);
        qc.measure_all();
        let s = sched(&qc);
        let exec = MachineExecutor::new(NoiseParameters::uniform(n), SeedStream::new(1234));
        let full = exec.run_job_with_shots(&s, shots, job);
        prop_assert_eq!(full.total(), shots);
        // Re-running is bit-identical (no hidden global state).
        prop_assert_eq!(&full, &exec.run_job_with_shots(&s, shots, job));
        // Any split point merges back to the sequential histogram.
        let k = split % (shots + 1);
        let mut merged = exec.run_job_shot_range(&s, job, 0..k);
        merged.merge(&exec.run_job_shot_range(&s, job, k..shots));
        prop_assert_eq!(&full, &merged);
    }

    #[test]
    fn trajectory_lanes_match_naive_reference_at_every_split(
        n in 1usize..8,
        ops in collection::vec(op_strategy(), 1..12),
        groups in 0u64..4,
        rest in 1u64..LANES as u64,
        job in 0u64..32,
    ) {
        // Every width runs lanes abreast, through the same interpreter from
        // 1 qubit to 7; shot counts leave the last lane group part-full.
        let shots = groups * LANES as u64 + rest;
        let s = sched(&build_circuit(n, &ops));
        let noise = eventful_noise(n);
        let seeds = SeedStream::new(4321);
        let exec = MachineExecutor::new(noise.clone(), seeds);
        let reference = naive::machine_run_job_with_shots(&noise, &seeds, &s, shots, job);
        prop_assert_eq!(&exec.run_job_with_shots(&s, shots, job), &reference);
        // Every build of the lane interpreter this CPU runs, at every split
        // point, so ranges start and end mid-group.
        for build in LaneBuild::ALL.into_iter().filter(|b| b.is_supported()) {
            for k in 0..=shots {
                let mut merged = exec.run_job_shot_range_on(build, &s, job, 0..k);
                merged.merge(&exec.run_job_shot_range_on(build, &s, job, k..shots));
                prop_assert!(
                    merged == reference,
                    "{} build, split {k}: {merged:?} != {reference:?}",
                    build.name()
                );
            }
        }
    }
}
