//! Property-based tests over the workspace's core invariants:
//! state normalization, channel trace preservation, scheduling validity,
//! mitigation semantics preservation, and the paper's §V soundness bounds.

use proptest::prelude::*;
use vaqem_suite::circuit::circuit::QuantumCircuit;
use vaqem_suite::circuit::gate::Gate;
use vaqem_suite::circuit::schedule::{schedule, DurationModel, ScheduleKind};
use vaqem_suite::circuit::unitary::{circuit_unitary, equal_up_to_phase};
use vaqem_suite::mathkit::matrix::CMatrix;
use vaqem_suite::mathkit::rng::SeedStream;
use vaqem_suite::mitigation::dd::{DdPass, DdSequence};
use vaqem_suite::mitigation::scheduling::GsPass;
use vaqem_suite::pauli::hamiltonian::PauliSum;
use vaqem_suite::pauli::pauli::{PauliOp, PauliString};
use vaqem_suite::sim::channels::KrausChannel;
use vaqem_suite::sim::statevector::StateVector;
use vaqem_suite::vaqem::soundness::{assert_mixed_state_bound, assert_pure_state_bound};

const SLOT: f64 = 35.56;

/// Strategy: a random concrete circuit on `n` qubits.
fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = QuantumCircuit> {
    let gate = prop_oneof![
        (0..n).prop_map(|q| (0u8, q, 0usize, 0.0f64)),
        (0..n).prop_map(|q| (1u8, q, 0usize, 0.0f64)),
        (0..n).prop_map(|q| (2u8, q, 0usize, 0.0f64)),
        ((0..n), (-3.2f64..3.2)).prop_map(|(q, t)| (3u8, q, 0usize, t)),
        ((0..n), (-3.2f64..3.2)).prop_map(|(q, t)| (4u8, q, 0usize, t)),
        ((0..n), (0..n)).prop_map(|(a, b)| (5u8, a, b, 0.0f64)),
    ];
    proptest::collection::vec(gate, 1..max_len).prop_map(move |ops| {
        let mut qc = QuantumCircuit::new(n);
        for (kind, a, b, t) in ops {
            match kind {
                0 => {
                    qc.h(a).unwrap();
                }
                1 => {
                    qc.x(a).unwrap();
                }
                2 => {
                    qc.sx(a).unwrap();
                }
                3 => {
                    qc.ry(t, a).unwrap();
                }
                4 => {
                    qc.rz(t, a).unwrap();
                }
                _ => {
                    if a != b {
                        qc.cx(a, b).unwrap();
                    } else {
                        qc.h(a).unwrap();
                    }
                }
            }
        }
        qc
    })
}

/// Strategy: a random Hermitian Pauli sum on `n` qubits.
fn arb_pauli_sum(n: usize) -> impl Strategy<Value = PauliSum> {
    let term = (proptest::collection::vec(0u8..4, n), -2.0f64..2.0);
    proptest::collection::vec(term, 1..8).prop_map(move |terms| {
        let mut h = PauliSum::new(n);
        for (ops, c) in terms {
            let paulis: Vec<PauliOp> = ops
                .into_iter()
                .map(|o| match o {
                    0 => PauliOp::I,
                    1 => PauliOp::X,
                    2 => PauliOp::Y,
                    _ => PauliOp::Z,
                })
                .collect();
            h.add(c, PauliString::from_ops(paulis));
        }
        h
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn statevector_stays_normalized(qc in arb_circuit(3, 30)) {
        let sv = StateVector::run(&qc).expect("concrete circuit");
        prop_assert!((sv.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_counts_total_matches_shots(qc in arb_circuit(2, 15), shots in 1u64..2000) {
        let sv = StateVector::run(&qc).expect("concrete circuit");
        let seeds = SeedStream::new(1);
        let counts = sv.sample_counts(&mut seeds.rng("prop"), shots);
        prop_assert_eq!(counts.total(), shots);
    }

    #[test]
    fn schedules_are_valid_and_equal_makespan(qc in arb_circuit(3, 25)) {
        let d = DurationModel::ibm_default();
        let asap = schedule(&qc, &d, ScheduleKind::Asap).expect("schedules");
        let alap = schedule(&qc, &d, ScheduleKind::Alap).expect("schedules");
        asap.validate().expect("asap valid");
        alap.validate().expect("alap valid");
        prop_assert!((asap.total_ns() - alap.total_ns()).abs() < 1e-6);
    }

    #[test]
    fn idle_windows_lie_within_the_schedule(qc in arb_circuit(3, 25)) {
        let d = DurationModel::ibm_default();
        let s = schedule(&qc, &d, ScheduleKind::Alap).expect("schedules");
        for w in s.idle_windows(SLOT) {
            prop_assert!(w.start_ns >= -1e-9);
            prop_assert!(w.end_ns <= s.total_ns() + 1e-9);
            prop_assert!(w.duration_ns() > SLOT);
            prop_assert!(w.qubit < s.num_qubits());
        }
    }

    #[test]
    fn dd_insertion_keeps_schedules_valid(qc in arb_circuit(3, 25), reps in 0usize..5) {
        let d = DurationModel::ibm_default();
        let s = schedule(&qc, &d, ScheduleKind::Alap).expect("schedules");
        let pass = DdPass::new(DdSequence::Xy4, SLOT);
        let out = pass.apply_uniform(&s, reps);
        out.validate().expect("valid after DD");
    }

    #[test]
    fn gs_moves_keep_schedules_valid(qc in arb_circuit(3, 25), f in 0.0f64..1.0) {
        let d = DurationModel::ibm_default();
        let s = schedule(&qc, &d, ScheduleKind::Alap).expect("schedules");
        let pass = GsPass::new(SLOT);
        let out = pass.apply_uniform(&s, f);
        out.validate().expect("valid after GS");
    }

    #[test]
    fn dd_sequences_preserve_circuit_semantics(qc in arb_circuit(2, 12), seq_idx in 0usize..4) {
        // Appending a full DD sequence mid-circuit is a logical no-op.
        let seq = [DdSequence::Xx, DdSequence::Yy, DdSequence::Xy4, DdSequence::Xy8][seq_idx];
        let u_before = circuit_unitary(&qc).expect("unitary");
        let mut with_dd = qc.clone();
        for g in seq.pulses() {
            with_dd.push(*g, &[0]).unwrap();
        }
        // Move the insertion "mid-circuit" by appending the original again:
        // U * DD * U must equal U * U up to phase.
        let mut doubled = with_dd.clone();
        doubled.compose(&qc).unwrap();
        let mut reference = qc.clone();
        reference.compose(&qc).unwrap();
        let u_dd = circuit_unitary(&doubled).expect("unitary");
        let u_ref = circuit_unitary(&reference).expect("unitary");
        prop_assert!(equal_up_to_phase(&u_dd, &u_ref, 1e-8));
        let _ = u_before;
    }

    #[test]
    fn kraus_channels_are_cptp(gamma in 0.0f64..1.0, p in 0.0f64..1.0) {
        prop_assert!(KrausChannel::amplitude_damping(gamma).is_trace_preserving(1e-10));
        prop_assert!(KrausChannel::phase_damping(gamma).is_trace_preserving(1e-10));
        prop_assert!(KrausChannel::depolarizing(p).is_trace_preserving(1e-10));
        prop_assert!(
            KrausChannel::amplitude_damping(gamma)
                .then(&KrausChannel::depolarizing(p))
                .is_trace_preserving(1e-10)
        );
    }

    #[test]
    fn soundness_pure_states_never_beat_ground(
        h in arb_pauli_sum(2),
        qc in arb_circuit(2, 15),
    ) {
        // Paper §V Property 1: <phi|H|phi> >= E0 for any circuit state.
        let m = h.to_matrix();
        let e0 = h.ground_state_energy();
        let sv = StateVector::run(&qc).expect("concrete circuit");
        let e = assert_pure_state_bound(&m, sv.amplitudes(), e0);
        prop_assert!(e >= e0 - 1e-8);
    }

    #[test]
    fn soundness_mixed_states_never_beat_ground(
        h in arb_pauli_sum(2),
        qc1 in arb_circuit(2, 10),
        qc2 in arb_circuit(2, 10),
        w in 0.0f64..1.0,
    ) {
        // Paper §V Property 2: Tr[H rho] >= E0 for convex mixtures.
        let m = h.to_matrix();
        let e0 = h.ground_state_energy();
        let a = StateVector::run(&qc1).expect("runs");
        let b = StateVector::run(&qc2).expect("runs");
        let rho_a = CMatrix::vec_outer(a.amplitudes(), a.amplitudes());
        let rho_b = CMatrix::vec_outer(b.amplitudes(), b.amplitudes());
        let rho = &rho_a.scale(vaqem_suite::mathkit::c64(w, 0.0))
            + &rho_b.scale(vaqem_suite::mathkit::c64(1.0 - w, 0.0));
        let e = assert_mixed_state_bound(&m, &rho, e0);
        prop_assert!(e >= e0 - 1e-8);
    }

    #[test]
    fn circuit_inverse_is_inverse(qc in arb_circuit(3, 15)) {
        let mut round_trip = qc.clone();
        round_trip.compose(&qc.inverse()).unwrap();
        let u = circuit_unitary(&round_trip).expect("unitary");
        prop_assert!(u.is_identity(1e-8));
    }
}

#[test]
fn gate_unitaries_are_unitary_exhaustive() {
    // Deterministic sweep over the full fixed gate set (non-proptest).
    let gates = [
        Gate::I,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Sx,
        Gate::Sxdg,
        Gate::Cx,
        Gate::Cz,
        Gate::Swap,
    ];
    for g in gates {
        assert!(g.unitary().unwrap().is_unitary(1e-12), "{g}");
    }
}
