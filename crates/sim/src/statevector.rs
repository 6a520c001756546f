//! Ideal statevector simulation.
//!
//! [`StateVector`] is the noise-free engine used for (a) the angle-tuning
//! phase of the feasible VAQEM flow (paper Fig. 11: "Noise-free Computation
//! Model"), (b) exact reference distributions for Hellinger fidelity, and
//! (c) exact expectation values `<psi|H|psi>`.
//!
//! Gate application runs through the half/quarter-index-space kernels in
//! [`crate::kernels`], circuit execution fuses runs of single-qubit gates
//! via [`crate::fusion`], and shot sampling goes through the shared
//! build-once CDF in [`crate::sampling`]. The pre-optimization
//! implementations survive in [`crate::naive`] as the parity oracle and
//! benchmark baseline.
//!
//! Qubit 0 is the least significant bit of the amplitude index.

use crate::counts::Counts;
use crate::fusion;
use crate::kernels;
use crate::sampling::CdfSampler;
use rand::Rng;
use vaqem_circuit::circuit::QuantumCircuit;
use vaqem_circuit::error::CircuitError;
use vaqem_circuit::gate::Gate;
use vaqem_mathkit::complex::Complex64;
use vaqem_mathkit::matrix::CMatrix;
use vaqem_mathkit::smallmat::{M2, M4};
use vaqem_mathkit::stats;

/// A pure quantum state over `n` qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// Creates `|0...0>`.
    pub fn zero_state(num_qubits: usize) -> Self {
        let mut amps = vec![Complex64::ZERO; 1 << num_qubits];
        amps[0] = Complex64::ONE;
        StateVector { num_qubits, amps }
    }

    /// Creates a state from raw amplitudes (normalized by the caller).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Self {
        let n = amps.len();
        assert!(
            n.is_power_of_two(),
            "amplitude count must be a power of two"
        );
        StateVector {
            num_qubits: n.trailing_zeros() as usize,
            amps,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Amplitude slice (index 0 = `|0...0>`).
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Mutable amplitude access for the naive reference loops, which
    /// manipulate the state directly.
    pub(crate) fn amps_mut(&mut self) -> &mut [Complex64] {
        &mut self.amps
    }

    /// Two-norm of the state.
    pub fn norm(&self) -> f64 {
        CMatrix::vec_norm(&self.amps)
    }

    /// Renormalizes in place (no-op on the zero vector).
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 1e-300 {
            for a in self.amps.iter_mut() {
                *a = *a / n;
            }
        }
    }

    /// Applies an unpacked 2x2 unitary to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_m2(&mut self, u: &M2, q: usize) {
        assert!(q < self.num_qubits, "qubit out of range");
        kernels::apply_m2(&mut self.amps, 1 << q, u);
    }

    /// Applies an unpacked 4x4 unitary to `(q_hi, q_lo)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or equal qubits.
    pub fn apply_m4(&mut self, u: &M4, q_hi: usize, q_lo: usize) {
        assert!(
            q_hi < self.num_qubits && q_lo < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(q_hi, q_lo, "distinct qubits required");
        kernels::apply_m4(&mut self.amps, 1 << q_hi, 1 << q_lo, u);
    }

    /// Applies a 2x2 unitary to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or `u` is not 2x2.
    pub fn apply_single(&mut self, u: &CMatrix, q: usize) {
        assert_eq!(u.rows(), 2, "expected 2x2");
        self.apply_m2(&M2::from_cmatrix(u), q);
    }

    /// Applies a 4x4 unitary to `(q_hi, q_lo)` where `q_hi` indexes the more
    /// significant bit of the gate space (first operand of [`Gate::Cx`]).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or equal qubits, or a non-4x4 matrix.
    pub fn apply_two(&mut self, u: &CMatrix, q_hi: usize, q_lo: usize) {
        assert_eq!(u.rows(), 4, "expected 4x4");
        self.apply_m4(&M4::from_cmatrix(u), q_hi, q_lo);
    }

    /// Applies `exp(-i theta Z_a Z_b / 2)` (always-on ZZ coupling step).
    pub fn apply_zz(&mut self, theta: f64, a: usize, b: usize) {
        let (ba, bb) = (1usize << a, 1usize << b);
        let plus = Complex64::cis(-theta / 2.0);
        let minus = Complex64::cis(theta / 2.0);
        for (i, amp) in self.amps.iter_mut().enumerate() {
            let parity = ((i & ba != 0) as u8) ^ ((i & bb != 0) as u8);
            *amp *= if parity == 0 { plus } else { minus };
        }
    }

    /// Applies a concrete gate instruction.
    ///
    /// Delays, barriers and identities are no-ops at this level; measurement
    /// is rejected (use sampling instead).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnboundParameter`] for symbolic gates.
    ///
    /// # Panics
    ///
    /// Panics on `Measure` (projective collapse is handled by sampling).
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) -> Result<(), CircuitError> {
        match gate {
            Gate::Barrier | Gate::Delay { .. } | Gate::I => Ok(()),
            Gate::Measure => panic!("apply_gate cannot measure; sample the state instead"),
            g => {
                match qubits.len() {
                    1 => self.apply_m2(&fusion::gate_m2(g)?, qubits[0]),
                    2 => self.apply_m4(&fusion::gate_m4(g)?, qubits[0], qubits[1]),
                    k => panic!("unsupported arity {k}"),
                }
                Ok(())
            }
        }
    }

    /// Runs a full concrete circuit from `|0...0>`, fusing runs of
    /// single-qubit gates into one sweep each.
    ///
    /// Measurements are ignored (the state before measurement is returned);
    /// use [`Self::sample_counts`] for shot results.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnboundParameter`] for symbolic circuits.
    pub fn run(circuit: &QuantumCircuit) -> Result<StateVector, CircuitError> {
        let mut sv = StateVector::zero_state(circuit.num_qubits());
        for op in fusion::fuse_circuit(circuit)? {
            op.apply(&mut sv);
        }
        Ok(sv)
    }

    /// Runs a scheduled circuit from `|0...0>`, ignoring timing (the ideal
    /// engine has no decoherence, so gate start times are irrelevant).
    ///
    /// Measurements, delays, barriers and identities are skipped, exactly
    /// as in [`Self::run`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnboundParameter`] for symbolic circuits.
    pub fn run_scheduled(
        scheduled: &vaqem_circuit::schedule::ScheduledCircuit,
    ) -> Result<StateVector, CircuitError> {
        let mut sv = StateVector::zero_state(scheduled.num_qubits());
        for op in fusion::fuse_scheduled(scheduled)? {
            op.apply(&mut sv);
        }
        Ok(sv)
    }

    /// Born-rule probabilities for every basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Samples a histogram of `shots` measurements of all qubits: one CDF
    /// build, then a binary search per shot, accumulated into an index
    /// histogram (no per-shot string allocation).
    pub fn sample_counts<R: Rng + ?Sized>(&self, rng: &mut R, shots: u64) -> Counts {
        let cdf = CdfSampler::from_amplitudes(&self.amps);
        let mut hist = Vec::new();
        cdf.sample_histogram(rng, shots, &mut hist);
        Counts::from_index_histogram(self.num_qubits, hist)
    }

    /// Exact counts: probabilities apportioned to `shots` by the
    /// largest-remainder method, so the histogram always totals exactly
    /// `shots` (independent rounding could drift by several shots on wide
    /// distributions).
    pub fn exact_counts(&self, shots: u64) -> Counts {
        let alloc = stats::largest_remainder(&self.probabilities(), shots);
        Counts::from_index_histogram(self.num_qubits, alloc)
    }

    /// Exact expectation `<psi|M|psi>` of a dense Hermitian observable.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn expectation(&self, observable: &CMatrix) -> f64 {
        assert_eq!(observable.rows(), self.amps.len(), "dimension mismatch");
        let mv = observable.mul_vec(&self.amps);
        CMatrix::vec_inner(&self.amps, &mv).re
    }

    /// Fidelity `|<self|other>|^2` with another pure state.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits, "width mismatch");
        CMatrix::vec_inner(&self.amps, &other.amps).norm_sqr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_1_SQRT_2;
    use vaqem_mathkit::c64;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn zero_state_is_normalized() {
        let sv = StateVector::zero_state(3);
        assert_eq!(sv.amplitudes().len(), 8);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
        assert!(sv.amplitudes()[0].approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn bell_state_via_run() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        let sv = StateVector::run(&qc).unwrap();
        let a = sv.amplitudes();
        assert!(a[0].approx_eq(c64(FRAC_1_SQRT_2, 0.0), 1e-12));
        assert!(a[3].approx_eq(c64(FRAC_1_SQRT_2, 0.0), 1e-12));
        assert!(a[1].norm() < 1e-12 && a[2].norm() < 1e-12);
    }

    #[test]
    fn ghz_probabilities() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        qc.cx(1, 2).unwrap();
        let sv = StateVector::run(&qc).unwrap();
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[7] - 0.5).abs() < 1e-12);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_two_respects_control_order() {
        // CX with control q1, target q0: |q1=1, q0=0> = index 2 -> index 3.
        let mut sv = StateVector::zero_state(2);
        sv.apply_single(&Gate::X.unitary().unwrap(), 1);
        sv.apply_two(&Gate::Cx.unitary().unwrap(), 1, 0);
        assert!(sv.amplitudes()[3].approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn kernel_paths_match_naive_reference_bitwise() {
        // The optimized single/two-qubit kernels must be bit-identical to
        // the original full-index-space loops on a random state.
        let mut r = rng();
        let amps: Vec<Complex64> = (0..1 << 6)
            .map(|_| c64(r.gen::<f64>() - 0.5, r.gen::<f64>() - 0.5))
            .collect();
        let h = Gate::H.unitary().unwrap();
        let cx = Gate::Cx.unitary().unwrap();
        for q in 0..6 {
            let mut fast = StateVector::from_amplitudes(amps.clone());
            let mut slow = StateVector::from_amplitudes(amps.clone());
            fast.apply_single(&h, q);
            naive::apply_single(&mut slow, &h, q);
            assert_eq!(fast.amplitudes(), slow.amplitudes(), "1q on {q}");
        }
        for (a, b) in [(0, 1), (1, 0), (2, 5), (5, 2), (0, 5)] {
            let mut fast = StateVector::from_amplitudes(amps.clone());
            let mut slow = StateVector::from_amplitudes(amps.clone());
            fast.apply_two(&cx, a, b);
            naive::apply_two(&mut slow, &cx, a, b);
            assert_eq!(fast.amplitudes(), slow.amplitudes(), "2q on ({a},{b})");
        }
    }

    #[test]
    fn fused_run_matches_naive_run() {
        let mut qc = QuantumCircuit::new(4);
        for i in 0..4 {
            qc.h(i).unwrap();
            qc.rz(0.3 * (i + 1) as f64, i).unwrap();
            qc.ry(0.7 - 0.1 * i as f64, i).unwrap();
        }
        for i in 0..3 {
            qc.cx(i, i + 1).unwrap();
        }
        for i in 0..4 {
            qc.rx(0.2 * i as f64, i).unwrap();
        }
        let fast = StateVector::run(&qc).unwrap();
        let slow = naive::run(&qc).unwrap();
        for (a, b) in fast.amplitudes().iter().zip(slow.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn zz_phase_parity() {
        // |11> picks up e^{-i theta/2}; |01> picks up e^{+i theta/2}.
        let theta = 0.8;
        let mut sv = StateVector::from_amplitudes(vec![
            Complex64::ZERO,
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
        ]);
        sv.apply_zz(theta, 0, 1);
        assert!(sv.amplitudes()[1].approx_eq(Complex64::cis(theta / 2.0), 1e-12));
        let mut sv = StateVector::from_amplitudes(vec![
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::ONE,
        ]);
        sv.apply_zz(theta, 0, 1);
        assert!(sv.amplitudes()[3].approx_eq(Complex64::cis(-theta / 2.0), 1e-12));
    }

    #[test]
    fn sampling_matches_probabilities() {
        let mut qc = QuantumCircuit::new(1);
        qc.h(0).unwrap();
        let sv = StateVector::run(&qc).unwrap();
        let counts = sv.sample_counts(&mut rng(), 10_000);
        let p1 = counts.probability("1");
        assert!((p1 - 0.5).abs() < 0.03, "p1 = {p1}");
    }

    #[test]
    fn cdf_sampling_is_bit_identical_to_naive_scan() {
        let mut qc = QuantumCircuit::new(5);
        for i in 0..5 {
            qc.ry(0.4 + 0.3 * i as f64, i).unwrap();
        }
        for i in 0..4 {
            qc.cx(i, i + 1).unwrap();
        }
        let sv = StateVector::run(&qc).unwrap();
        // Same RNG stream through both samplers: identical histograms.
        let fast = sv.sample_counts(&mut rng(), 4096);
        let slow = naive::sample_counts(&sv, &mut rng(), 4096);
        assert_eq!(fast, slow);
    }

    #[test]
    fn exact_counts_have_no_sampling_noise() {
        let mut qc = QuantumCircuit::new(1);
        qc.h(0).unwrap();
        let sv = StateVector::run(&qc).unwrap();
        let counts = sv.exact_counts(1000);
        assert_eq!(counts.get("0"), 500);
        assert_eq!(counts.get("1"), 500);
    }

    #[test]
    fn exact_counts_total_exactly_shots() {
        // A three-way 1/3 split: independent rounding gives 333*3 = 999,
        // largest-remainder apportionment must hand the leftover shot out.
        let a = (1.0f64 / 3.0).sqrt();
        let sv = StateVector::from_amplitudes(vec![
            c64(a, 0.0),
            c64(a, 0.0),
            c64(a, 0.0),
            Complex64::ZERO,
        ]);
        let counts = sv.exact_counts(1000);
        assert_eq!(counts.total(), 1000);
        let naive_total = naive::exact_counts_rounded(&sv, 1000).total();
        assert_eq!(naive_total, 999, "the defect this fixes");
        // 7-qubit uniform superposition: 128 outcomes of 1000/128 shots.
        let mut qc = QuantumCircuit::new(7);
        for i in 0..7 {
            qc.h(i).unwrap();
        }
        let sv = StateVector::run(&qc).unwrap();
        assert_eq!(sv.exact_counts(1000).total(), 1000);
    }

    #[test]
    fn expectation_of_z() {
        let z = Gate::Z.unitary().unwrap();
        let sv = StateVector::zero_state(1);
        assert!((sv.expectation(&z) - 1.0).abs() < 1e-12);
        let mut sv1 = StateVector::zero_state(1);
        sv1.apply_single(&Gate::X.unitary().unwrap(), 0);
        assert!((sv1.expectation(&z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_bounds() {
        let a = StateVector::zero_state(2);
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        let b = StateVector::run(&qc).unwrap();
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-12);
        assert!((a.fidelity(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unitarity_preserves_norm_over_long_circuits() {
        let mut qc = QuantumCircuit::new(4);
        for i in 0..4 {
            qc.h(i).unwrap();
        }
        for layer in 0..10 {
            for i in 0..4 {
                qc.ry(0.1 * (layer * 4 + i) as f64, i).unwrap();
            }
            for i in 0..3 {
                qc.cx(i, i + 1).unwrap();
            }
        }
        let sv = StateVector::run(&qc).unwrap();
        assert!((sv.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "sample the state")]
    fn measure_gate_rejected() {
        let mut sv = StateVector::zero_state(1);
        let _ = sv.apply_gate(&Gate::Measure, &[0]);
    }
}
