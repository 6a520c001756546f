//! Measurement error mitigation (MEM; paper §VII-B "Baseline / MEM").
//!
//! The paper's baseline applies measurement error mitigation orthogonally to
//! VAQEM. This module implements the standard *tensored* scheme: per-qubit
//! assignment matrices are estimated from two calibration circuits (all-0
//! and all-1 preparations), inverted, and applied to a histogram's
//! per-basis-state tallies with [`vaqem_sim::channels::map_per_qubit`] (the
//! map the density engine's readout uses forwards), yielding a
//! quasi-probability distribution that is clipped and renormalized.

use vaqem_circuit::circuit::QuantumCircuit;
use vaqem_mathkit::linalg;
use vaqem_sim::channels::{assignment_matrix, map_per_qubit};
use vaqem_sim::counts::Counts;

/// Per-qubit calibrated readout-assignment matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementMitigator {
    /// `matrices[q] = [[P(0|0), P(0|1)], [P(1|0), P(1|1)]]`.
    matrices: Vec<[[f64; 2]; 2]>,
    /// Inverses of the assignment matrices.
    inverses: Vec<[[f64; 2]; 2]>,
}

impl MeasurementMitigator {
    /// Builds a mitigator from explicit per-qubit error rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is not a probability or an assignment matrix is
    /// singular (error rates of exactly 0.5).
    pub fn from_error_rates(rates: &[(f64, f64)]) -> Self {
        let mut matrices = Vec::with_capacity(rates.len());
        let mut inverses = Vec::with_capacity(rates.len());
        for &(p01, p10) in rates {
            assert!((0.0..=1.0).contains(&p01), "p01 must be a probability");
            assert!((0.0..=1.0).contains(&p10), "p10 must be a probability");
            let a = assignment_matrix(p01, p10);
            let flat = [a[0][0], a[0][1], a[1][0], a[1][1]];
            let inv = linalg::invert_real(&flat, 2)
                .expect("assignment matrix must be invertible (error rate != 0.5)");
            matrices.push(a);
            inverses.push([[inv[0], inv[1]], [inv[2], inv[3]]]);
        }
        MeasurementMitigator { matrices, inverses }
    }

    /// Calibrates against a backend by executing the two tensored
    /// calibration circuits (`|0...0>` and `|1...1>` preparations followed
    /// by measurement) through `execute`.
    pub fn calibrate<F>(num_qubits: usize, mut execute: F) -> Self
    where
        F: FnMut(&QuantumCircuit) -> Counts,
    {
        let mut zeros = QuantumCircuit::new(num_qubits);
        // Anchor with identities so the qubits are "live" on devices that
        // only apply readout error to used qubits.
        for q in 0..num_qubits {
            zeros.id(q).expect("in range");
        }
        zeros.measure_all();
        let mut ones = QuantumCircuit::new(num_qubits);
        for q in 0..num_qubits {
            ones.x(q).expect("in range");
        }
        ones.measure_all();

        let c0 = execute(&zeros);
        let c1 = execute(&ones);
        let mut rates = Vec::with_capacity(num_qubits);
        for q in 0..num_qubits {
            let p01 = marginal_one_probability(&c0, q);
            let p10 = 1.0 - marginal_one_probability(&c1, q);
            // Guard against pathological calibrations.
            rates.push((p01.min(0.49), p10.min(0.49)));
        }
        MeasurementMitigator::from_error_rates(&rates)
    }

    /// Number of calibrated qubits.
    pub fn num_qubits(&self) -> usize {
        self.matrices.len()
    }

    /// Calibrated `(p01, p10)` for qubit `q`.
    pub fn error_rates(&self, q: usize) -> (f64, f64) {
        (self.matrices[q][1][0], self.matrices[q][0][1])
    }

    /// Applies the inverse assignment map to a counts histogram, returning a
    /// mitigated probability per basis state (clipped to `>= 0`,
    /// renormalized; all zero for an empty histogram).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn mitigate(&self, counts: &Counts) -> Vec<f64> {
        assert_eq!(counts.num_qubits(), self.num_qubits(), "width mismatch");
        let mut p = map_per_qubit(&counts.probabilities(), &self.inverses);
        // Clip negative quasi-probabilities and renormalize.
        let mut sum = 0.0;
        for v in p.iter_mut() {
            *v = v.max(0.0);
            sum += *v;
        }
        if sum > 0.0 {
            p.iter_mut().for_each(|v| *v /= sum);
        }
        p
    }

    /// Convenience: mitigated counts scaled back to the original shot
    /// count (rounded).
    pub fn mitigate_counts(&self, counts: &Counts) -> Counts {
        let shots = counts.total() as f64;
        let dist = self.mitigate(counts);
        let hist = dist.iter().map(|p| (p * shots).round() as u64).collect();
        Counts::from_index_histogram(counts.num_qubits(), hist)
    }
}

fn marginal_one_probability(counts: &Counts, q: usize) -> f64 {
    let total = counts.total();
    if total == 0 {
        return 0.0;
    }
    let ones: u64 = counts
        .tallies()
        .iter()
        .enumerate()
        .filter(|&(index, _)| index & (1 << q) != 0)
        .map(|(_, &c)| c)
        .sum();
    ones as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind};
    use vaqem_device::noise::NoiseParameters;
    use vaqem_mathkit::rng::SeedStream;
    use vaqem_sim::machine::MachineExecutor;

    #[test]
    fn perfect_readout_is_identity() {
        let m = MeasurementMitigator::from_error_rates(&[(0.0, 0.0), (0.0, 0.0)]);
        let mut c = Counts::new(2);
        c.record_index_n(0, 600);
        c.record_index_n(3, 400);
        let out = m.mitigate(&c);
        assert!((out[0b00] - 0.6).abs() < 1e-12);
        assert!((out[0b11] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn inverts_known_bias_exactly() {
        // True distribution 100% |0>; readout flips 10% to |1>.
        let m = MeasurementMitigator::from_error_rates(&[(0.1, 0.2)]);
        let mut c = Counts::new(1);
        c.record_index_n(0, 900);
        c.record_index_n(1, 100);
        let out = m.mitigate(&c);
        assert!((out[0] - 1.0).abs() < 1e-9, "{out:?}");
    }

    #[test]
    fn two_qubit_joint_correction() {
        // True |11> measured through (p10 = 0.2) on both qubits.
        let m = MeasurementMitigator::from_error_rates(&[(0.0, 0.2), (0.0, 0.2)]);
        let mut c = Counts::new(2);
        c.record_index_n(0b11, 640);
        c.record_index_n(0b01, 160);
        c.record_index_n(0b10, 160);
        c.record_index_n(0b00, 40);
        let out = m.mitigate(&c);
        assert!((out[0b11] - 1.0).abs() < 1e-9, "{out:?}");
    }

    #[test]
    fn calibration_recovers_error_rates() {
        let mut noise = NoiseParameters::noiseless(2);
        noise.qubit_mut(0).readout_p01 = 0.05;
        noise.qubit_mut(0).readout_p10 = 0.08;
        noise.qubit_mut(1).readout_p01 = 0.02;
        noise.qubit_mut(1).readout_p10 = 0.12;
        let exec = MachineExecutor::new(noise, SeedStream::new(11)).with_shots(20_000);
        let m = MeasurementMitigator::calibrate(2, |qc| {
            let s = schedule(qc, &DurationModel::ibm_default(), ScheduleKind::Asap).unwrap();
            exec.run(&s)
        });
        let (p01, p10) = m.error_rates(0);
        assert!((p01 - 0.05).abs() < 0.01, "{p01}");
        assert!((p10 - 0.08).abs() < 0.01, "{p10}");
        let (p01, p10) = m.error_rates(1);
        assert!((p01 - 0.02).abs() < 0.01, "{p01}");
        assert!((p10 - 0.12).abs() < 0.01, "{p10}");
    }

    #[test]
    fn mitigation_improves_fidelity_on_machine() {
        // Bell state through noisy readout: MEM must improve Hellinger
        // fidelity to the ideal distribution.
        let mut noise = NoiseParameters::noiseless(2);
        for q in 0..2 {
            noise.qubit_mut(q).readout_p01 = 0.04;
            noise.qubit_mut(q).readout_p10 = 0.08;
        }
        let exec = MachineExecutor::new(noise, SeedStream::new(12)).with_shots(8192);
        let run = |qc: &QuantumCircuit| {
            let s = schedule(qc, &DurationModel::ibm_default(), ScheduleKind::Asap).unwrap();
            exec.run(&s)
        };
        let m = MeasurementMitigator::calibrate(2, run);

        let mut bell = QuantumCircuit::new(2);
        bell.h(0).unwrap();
        bell.cx(0, 1).unwrap();
        bell.measure_all();
        let raw = run(&bell);
        let mitigated = m.mitigate_counts(&raw);

        let mut ideal = Counts::new(2);
        ideal.record_index_n(0, 4096);
        ideal.record_index_n(3, 4096);
        let f_raw = raw.hellinger_fidelity(&ideal);
        let f_mit = mitigated.hellinger_fidelity(&ideal);
        assert!(f_mit > f_raw, "MEM should help: {f_mit} vs {f_raw}");
        assert!(f_mit > 0.99, "{f_mit}");
    }

    #[test]
    fn mitigated_distribution_is_normalized() {
        let m = MeasurementMitigator::from_error_rates(&[(0.1, 0.1), (0.05, 0.2)]);
        let mut c = Counts::new(2);
        c.record_index_n(0, 100);
        c.record_index_n(1, 200);
        c.record_index_n(2, 300);
        c.record_index_n(3, 400);
        let out = m.mitigate(&c);
        let total: f64 = out.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(out.iter().all(|&v| v >= 0.0));
    }
}
