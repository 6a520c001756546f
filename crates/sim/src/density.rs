//! Density-matrix simulation with Markovian noise channels.
//!
//! This engine plays the role of a **calibration-derived noisy simulator**
//! (Qiskit's `NoiseModel.from_backend`) in the paper's Fig. 9 comparison. It
//! applies exact Kraus channels — amplitude damping, phase damping,
//! depolarizing — between and after scheduled operations, but deliberately
//! models **only the Markovian part** of [`NoiseParameters`]: quasi-static
//! detuning and ZZ crosstalk are ignored, exactly as a calibration noise
//! model misses them on real hardware. The trajectory engine in
//! [`crate::machine`] models the full set and plays the "real machine".

use crate::channels::{assignment_matrix, map_per_qubit, KrausChannel};
use crate::counts::Counts;
use crate::kernels;
use crate::sampling::CdfSampler;
use vaqem_circuit::gate::Gate;
use vaqem_circuit::schedule::ScheduledCircuit;
use vaqem_device::noise::NoiseParameters;
use vaqem_mathkit::complex::Complex64;
use vaqem_mathkit::matrix::CMatrix;
use vaqem_mathkit::smallmat::{M2, M4};
use vaqem_mathkit::stats;

/// A mixed quantum state over `n` qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    num_qubits: usize,
    rho: CMatrix,
}

impl DensityMatrix {
    /// Creates `|0...0><0...0|`.
    pub fn zero_state(num_qubits: usize) -> Self {
        let dim = 1 << num_qubits;
        let mut rho = CMatrix::zeros(dim, dim);
        rho[(0, 0)] = Complex64::ONE;
        DensityMatrix { num_qubits, rho }
    }

    /// Wraps an existing density matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not square with power-of-two dimension.
    pub fn from_matrix(rho: CMatrix) -> Self {
        assert!(rho.is_square(), "density matrix must be square");
        assert!(rho.rows().is_power_of_two(), "dimension must be 2^n");
        DensityMatrix {
            num_qubits: rho.rows().trailing_zeros() as usize,
            rho,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &CMatrix {
        &self.rho
    }

    /// Trace (should stay 1).
    pub fn trace(&self) -> f64 {
        self.rho.trace().re
    }

    /// Purity `Tr[rho^2]`, 1 for pure states.
    pub fn purity(&self) -> f64 {
        (&self.rho * &self.rho).trace().re
    }

    /// Applies a unitary on one qubit.
    ///
    /// A direct O(4^n) sub-block sweep ([`kernels::dm_apply_kraus_single`]
    /// with a single operator) — the embed-and-multiply original, preserved
    /// as [`crate::naive::density_apply_unitary_single`], was O(8^n).
    pub fn apply_unitary_single(&mut self, u: &CMatrix, q: usize) {
        assert!(q < self.num_qubits, "qubit out of range");
        let dim = 1 << self.num_qubits;
        kernels::dm_apply_kraus_single(
            self.rho.as_mut_slice(),
            dim,
            1 << q,
            &[M2::from_cmatrix(u)],
        );
    }

    /// Applies a unitary on two qubits (first operand = high bit).
    pub fn apply_unitary_two(&mut self, u: &CMatrix, q_hi: usize, q_lo: usize) {
        assert!(
            q_hi < self.num_qubits && q_lo < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(q_hi, q_lo, "operands must differ");
        let dim = 1 << self.num_qubits;
        kernels::dm_apply_m4(
            self.rho.as_mut_slice(),
            dim,
            1 << q_hi,
            1 << q_lo,
            &M4::from_cmatrix(u),
        );
    }

    /// Applies a single-qubit Kraus channel to qubit `q`.
    pub fn apply_channel(&mut self, channel: &KrausChannel, q: usize) {
        assert!(q < self.num_qubits, "qubit out of range");
        let dim = 1 << self.num_qubits;
        let ops: Vec<M2> = channel.ops().iter().map(M2::from_cmatrix).collect();
        kernels::dm_apply_kraus_single(self.rho.as_mut_slice(), dim, 1 << q, &ops);
    }

    /// Applies a two-qubit depolarizing channel with probability `p`:
    /// `rho -> (1-p) rho + p/15 sum_{P != II} P rho P`.
    ///
    /// Evaluated in closed form per sub-block via the Pauli-twirl identity
    /// (see [`kernels::dm_depolarize_two_qubit`]) instead of enumerating the
    /// 15 embedded Pauli pairs.
    pub fn apply_two_qubit_depolarizing(&mut self, p: f64, a: usize, b: usize) {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        assert!(
            a < self.num_qubits && b < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(a, b, "operands must differ");
        if p == 0.0 {
            return;
        }
        let dim = 1 << self.num_qubits;
        kernels::dm_depolarize_two_qubit(self.rho.as_mut_slice(), dim, 1 << a, 1 << b, p);
    }

    /// Diagonal of `rho`: basis-state probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        self.rho.diagonal().iter().map(|z| z.re.max(0.0)).collect()
    }

    /// Expectation `Tr[rho M]` of a dense Hermitian observable.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn expectation(&self, observable: &CMatrix) -> f64 {
        assert_eq!(observable.rows(), self.rho.rows(), "dimension mismatch");
        (&self.rho * observable).trace().re
    }

    /// Basis-state probabilities after pushing the true distribution
    /// through each qubit's readout assignment matrix.
    pub fn readout_probabilities(&self, noise: &NoiseParameters) -> Vec<f64> {
        let maps: Vec<_> = (0..self.num_qubits)
            .map(|q| assignment_matrix(noise.qubit(q).readout_p01, noise.qubit(q).readout_p10))
            .collect();
        map_per_qubit(&self.probabilities(), &maps)
    }

    /// Exact counts under per-qubit readout error: the true distribution is
    /// pushed through each qubit's assignment matrix, then apportioned to
    /// `shots` by the largest-remainder method so the histogram always
    /// totals exactly `shots` (independent rounding, preserved as
    /// [`crate::naive::density_counts_with_readout`], could drift by
    /// several shots).
    pub fn counts_with_readout(&self, noise: &NoiseParameters, shots: u64) -> Counts {
        let p = self.readout_probabilities(noise);
        Counts::from_index_histogram(self.num_qubits, stats::largest_remainder(&p, shots))
    }

    /// Shot-sampled counts under per-qubit readout error, for callers that
    /// want the finite-shot statistics of a real submission rather than the
    /// rounded exact distribution. Uses the same build-once
    /// [`CdfSampler`] as the statevector engine (bit-identical draws to the
    /// original per-shot linear scan).
    pub fn sample_counts_with_readout<R: rand::Rng + ?Sized>(
        &self,
        noise: &NoiseParameters,
        shots: u64,
        rng: &mut R,
    ) -> Counts {
        let p = self.readout_probabilities(noise);
        let cdf = CdfSampler::from_probabilities(p.iter().copied());
        let mut hist = Vec::new();
        cdf.sample_histogram(rng, shots, &mut hist);
        Counts::from_index_histogram(self.num_qubits, hist)
    }
}

/// Runs a scheduled circuit under the **Markovian part** of `noise`,
/// returning the final mixed state (before readout error).
///
/// Idle decoherence is applied per qubit for the wall-clock gaps between its
/// consecutive operations; gate error is applied as a depolarizing channel
/// after each gate. Correlated noise terms in `noise` are intentionally
/// ignored (see module docs).
///
/// # Panics
///
/// Panics if the circuit references qubits beyond `noise`.
pub fn run_markovian(scheduled: &ScheduledCircuit, noise: &NoiseParameters) -> DensityMatrix {
    let n = scheduled.num_qubits();
    assert!(
        noise.num_qubits() >= n,
        "noise parameters must cover the register"
    );
    let mut dm = DensityMatrix::zero_state(n);
    // Track per-qubit last-activity end time; decoherence accrues on the gap.
    let mut last_end = vec![0.0f64; n];
    for op in scheduled.ops() {
        if op.gate == Gate::Barrier {
            continue;
        }
        // Idle decoherence on each operand qubit since its last activity.
        for &q in &op.qubits {
            let gap = op.start_ns - last_end[q];
            if gap > 1e-9 {
                apply_idle(&mut dm, noise, q, gap);
            }
        }
        let is_idle_like = matches!(op.gate, Gate::Measure | Gate::Delay { .. } | Gate::I);
        match op.gate {
            Gate::Measure | Gate::Delay { .. } | Gate::I => {
                // Delay/identity occupy time as pure idling; leave last_end
                // untouched so the gap to the next real op covers their
                // duration and decoherence is applied exactly once.
            }
            ref g => {
                let u = g.unitary().expect("scheduled circuits are concrete");
                match op.qubits.len() {
                    1 => {
                        dm.apply_unitary_single(&u, op.qubits[0]);
                        let p = noise.qubit(op.qubits[0]).gate_error_1q;
                        if p > 0.0 {
                            dm.apply_channel(&KrausChannel::depolarizing(p), op.qubits[0]);
                        }
                    }
                    2 => {
                        dm.apply_unitary_two(&u, op.qubits[0], op.qubits[1]);
                        let p = noise.cx_error(op.qubits[0], op.qubits[1]);
                        if p > 0.0 {
                            dm.apply_two_qubit_depolarizing(p, op.qubits[0], op.qubits[1]);
                        }
                    }
                    k => panic!("unsupported arity {k}"),
                }
                // Decoherence during the gate itself.
                for &q in &op.qubits {
                    if op.duration_ns > 0.0 {
                        apply_idle(&mut dm, noise, q, op.duration_ns);
                    }
                }
            }
        }
        if !is_idle_like {
            for &q in &op.qubits {
                last_end[q] = last_end[q].max(op.end_ns());
            }
        }
    }
    dm
}

fn apply_idle(dm: &mut DensityMatrix, noise: &NoiseParameters, q: usize, dt_ns: f64) {
    let qn = noise.qubit(q);
    if qn.t1_ns.is_finite() {
        let gamma = 1.0 - (-dt_ns / qn.t1_ns).exp();
        dm.apply_channel(&KrausChannel::amplitude_damping(gamma), q);
    }
    let rate = qn.pure_dephasing_rate();
    if rate > 0.0 {
        let lambda = 1.0 - (-dt_ns * rate).exp();
        dm.apply_channel(&KrausChannel::phase_damping(lambda), q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_circuit::circuit::QuantumCircuit;
    use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind};
    use vaqem_device::noise::QubitNoise;

    fn scheduled(qc: &QuantumCircuit) -> ScheduledCircuit {
        schedule(qc, &DurationModel::ibm_default(), ScheduleKind::Asap).unwrap()
    }

    #[test]
    fn zero_state_properties() {
        let dm = DensityMatrix::zero_state(2);
        assert!((dm.trace() - 1.0).abs() < 1e-12);
        assert!((dm.purity() - 1.0).abs() < 1e-12);
        assert_eq!(dm.probabilities()[0], 1.0);
    }

    #[test]
    fn noiseless_run_matches_statevector() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        let dm = run_markovian(&scheduled(&qc), &NoiseParameters::noiseless(2));
        let p = dm.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-10);
        assert!((p[3] - 0.5).abs() < 1e-10);
        assert!((dm.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn noise_reduces_purity_and_preserves_trace() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        qc.delay(20_000.0, 0).unwrap();
        qc.delay(20_000.0, 1).unwrap();
        qc.x(0).unwrap();
        let dm = run_markovian(&scheduled(&qc), &NoiseParameters::uniform(2));
        assert!((dm.trace() - 1.0).abs() < 1e-9, "trace {}", dm.trace());
        assert!(dm.purity() < 0.999, "purity {}", dm.purity());
    }

    #[test]
    fn t1_decay_matches_exponential() {
        // Prepare |1>, idle for t, check excited population = e^{-t/T1}.
        let t1 = 50_000.0;
        let idle = 25_000.0;
        let noise = NoiseParameters::from_qubits(vec![QubitNoise {
            t1_ns: t1,
            t2_ns: 2.0 * t1, // no pure dephasing
            quasi_static_sigma_rad_ns: 0.0,
            telegraph_rate_per_ns: 0.0,
            readout_p01: 0.0,
            readout_p10: 0.0,
            gate_error_1q: 0.0,
        }]);
        let mut qc = QuantumCircuit::new(1);
        qc.x(0).unwrap();
        qc.delay(idle, 0).unwrap();
        qc.id(0).unwrap(); // anchor so the delay's decoherence is applied
        let dm = run_markovian(&scheduled(&qc), &noise);
        let p1 = dm.probabilities()[1];
        let expect = (-(idle + 2.0 * 35.56) / t1).exp(); // delay + x + id slots
        assert!((p1 - expect).abs() < 0.01, "p1 {p1} vs {expect}");
    }

    #[test]
    fn dephasing_kills_plus_state_coherence() {
        let noise = NoiseParameters::from_qubits(vec![QubitNoise {
            t1_ns: f64::INFINITY,
            t2_ns: 10_000.0,
            quasi_static_sigma_rad_ns: 0.0,
            telegraph_rate_per_ns: 0.0,
            readout_p01: 0.0,
            readout_p10: 0.0,
            gate_error_1q: 0.0,
        }]);
        let mut qc = QuantumCircuit::new(1);
        qc.h(0).unwrap();
        qc.delay(60_000.0, 0).unwrap();
        qc.h(0).unwrap();
        let dm = run_markovian(&scheduled(&qc), &noise);
        // Fully dephased |+> returns to maximal mixture after the final H:
        // P(1) approaches 0.5 from below.
        let p1 = dm.probabilities()[1];
        assert!(
            p1 > 0.4,
            "dephasing should randomize the X-basis: p1 = {p1}"
        );
        assert!((dm.trace() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn markovian_engine_is_echo_blind() {
        // The defining limitation (paper Fig. 9): a mid-window X does NOT
        // help against pure Markovian dephasing, so the engine must show no
        // echo benefit.
        let noise = NoiseParameters::from_qubits(vec![QubitNoise {
            t1_ns: f64::INFINITY,
            t2_ns: 20_000.0,
            quasi_static_sigma_rad_ns: 0.0, // ignored by this engine anyway
            telegraph_rate_per_ns: 0.0,
            readout_p01: 0.0,
            readout_p10: 0.0,
            gate_error_1q: 0.0,
        }]);
        let idle = 10_000.0;
        // Without echo: H, delay 2T, X late, H.
        let mut plain = QuantumCircuit::new(1);
        plain.h(0).unwrap();
        plain.delay(2.0 * idle, 0).unwrap();
        plain.x(0).unwrap();
        plain.h(0).unwrap();
        // With echo: H, delay T, X centered, delay T, H.
        let mut echo = QuantumCircuit::new(1);
        echo.h(0).unwrap();
        echo.delay(idle, 0).unwrap();
        echo.x(0).unwrap();
        echo.delay(idle, 0).unwrap();
        echo.h(0).unwrap();
        let p_plain = run_markovian(&scheduled(&plain), &noise).probabilities()[1];
        let p_echo = run_markovian(&scheduled(&echo), &noise).probabilities()[1];
        assert!(
            (p_plain - p_echo).abs() < 1e-6,
            "Markovian dephasing is echo-blind: {p_plain} vs {p_echo}"
        );
    }

    #[test]
    fn gate_error_accumulates() {
        let mut noise = NoiseParameters::noiseless(1);
        noise.qubit_mut(0).gate_error_1q = 0.05;
        let mut qc = QuantumCircuit::new(1);
        for _ in 0..10 {
            qc.x(0).unwrap();
            qc.x(0).unwrap();
        }
        let dm = run_markovian(&scheduled(&qc), &noise);
        // Logically identity, but 20 noisy gates leave the state mixed.
        assert!(dm.purity() < 0.9, "purity {}", dm.purity());
        assert!(dm.probabilities()[0] < 1.0);
    }

    #[test]
    fn readout_error_mixes_counts() {
        let mut noise = NoiseParameters::noiseless(1);
        noise.qubit_mut(0).readout_p01 = 0.1;
        let dm = DensityMatrix::zero_state(1);
        let counts = dm.counts_with_readout(&noise, 1000);
        assert_eq!(counts.get("1"), 100);
        assert_eq!(counts.get("0"), 900);
    }

    /// A state with three equal probabilities: independent rounding loses a
    /// shot (333 * 3 = 999), largest-remainder apportionment does not.
    #[test]
    fn readout_counts_total_exactly_shots() {
        let third = Complex64::new(1.0 / 3.0, 0.0);
        let dm = DensityMatrix::from_matrix(CMatrix::from_diagonal(&[
            third,
            third,
            third,
            Complex64::ZERO,
        ]));
        let noise = NoiseParameters::noiseless(2);
        assert_eq!(dm.counts_with_readout(&noise, 1000).total(), 1000);
        assert_eq!(
            crate::naive::density_counts_with_readout(&dm, &noise, 1000).total(),
            999,
            "the drift the apportionment fixes"
        );
    }

    /// The block-sweep applies must match the embed-and-conjugate originals
    /// preserved in `naive` on every operation the engine uses.
    #[test]
    fn kernel_applies_match_embedded_reference() {
        use crate::naive;
        // A state with broad support and off-diagonal structure.
        let mut dm = DensityMatrix::zero_state(3);
        dm.apply_unitary_single(&Gate::H.unitary().unwrap(), 0);
        dm.apply_unitary_single(&Gate::Sx.unitary().unwrap(), 1);
        dm.apply_unitary_two(&Gate::Cx.unitary().unwrap(), 0, 2);
        dm.apply_channel(&KrausChannel::amplitude_damping(0.2), 1);

        for (fast_op, naive_op) in [
            (
                Box::new(|d: &mut DensityMatrix| {
                    d.apply_unitary_single(&Gate::Rz(0.7.into()).unitary().unwrap(), 2)
                }) as Box<dyn Fn(&mut DensityMatrix)>,
                Box::new(|d: &mut DensityMatrix| {
                    naive::density_apply_unitary_single(
                        d,
                        &Gate::Rz(0.7.into()).unitary().unwrap(),
                        2,
                    )
                }) as Box<dyn Fn(&mut DensityMatrix)>,
            ),
            (
                Box::new(|d: &mut DensityMatrix| {
                    d.apply_unitary_two(&Gate::Cx.unitary().unwrap(), 2, 1)
                }),
                Box::new(|d: &mut DensityMatrix| {
                    naive::density_apply_unitary_two(d, &Gate::Cx.unitary().unwrap(), 2, 1)
                }),
            ),
            (
                Box::new(|d: &mut DensityMatrix| {
                    d.apply_channel(&KrausChannel::depolarizing(0.05), 0)
                }),
                Box::new(|d: &mut DensityMatrix| {
                    naive::density_apply_channel(d, &KrausChannel::depolarizing(0.05), 0)
                }),
            ),
            (
                Box::new(|d: &mut DensityMatrix| d.apply_two_qubit_depolarizing(0.3, 1, 2)),
                Box::new(|d: &mut DensityMatrix| {
                    naive::density_apply_two_qubit_depolarizing(d, 0.3, 1, 2)
                }),
            ),
        ] {
            let mut fast = dm.clone();
            let mut slow = dm.clone();
            fast_op(&mut fast);
            naive_op(&mut slow);
            assert!(fast.matrix().max_abs_diff(slow.matrix()) < 1e-12);
        }
    }

    /// Full-engine parity: the optimized Markovian run agrees with the
    /// preserved embed-based engine on a noisy multi-qubit circuit.
    #[test]
    fn fast_markovian_matches_naive_engine() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        qc.rz(0.4, 1).unwrap();
        qc.delay(5_000.0, 2).unwrap();
        qc.cx(1, 2).unwrap();
        qc.sx(2).unwrap();
        let sched = scheduled(&qc);
        let noise = NoiseParameters::uniform(3);
        let fast = run_markovian(&sched, &noise);
        let slow = crate::naive::density_run_markovian(&sched, &noise);
        assert!(
            fast.matrix().max_abs_diff(slow.matrix()) < 1e-12,
            "diff {}",
            fast.matrix().max_abs_diff(slow.matrix())
        );
        assert!((fast.trace() - 1.0).abs() < 1e-9);
    }

    /// The shared CDF sampler consumes the RNG stream exactly like the
    /// original per-shot linear scan, so same-seed counts are identical.
    #[test]
    fn sampled_readout_counts_are_bit_identical_to_naive_scan() {
        use rand::SeedableRng;
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        let mut noise = NoiseParameters::uniform(2);
        noise.qubit_mut(0).readout_p01 = 0.03;
        noise.qubit_mut(1).readout_p10 = 0.08;
        let dm = run_markovian(&scheduled(&qc), &noise);
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(99);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(99);
        let fast = dm.sample_counts_with_readout(&noise, 2000, &mut rng_a);
        let slow = crate::naive::density_sample_counts_with_readout(&dm, &noise, 2000, &mut rng_b);
        assert_eq!(fast, slow);
        assert_eq!(fast.total(), 2000);
    }

    #[test]
    fn two_qubit_depolarizing_is_trace_preserving() {
        let mut dm = DensityMatrix::zero_state(2);
        dm.apply_unitary_single(&Gate::H.unitary().unwrap(), 0);
        dm.apply_two_qubit_depolarizing(0.3, 0, 1);
        assert!((dm.trace() - 1.0).abs() < 1e-10);
        assert!(dm.purity() < 1.0);
    }

    #[test]
    fn expectation_of_zz_on_bell() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        let dm = run_markovian(&scheduled(&qc), &NoiseParameters::noiseless(2));
        let z = Gate::Z.unitary().unwrap();
        let zz = z.kron(&z);
        assert!((dm.expectation(&zz) - 1.0).abs() < 1e-10);
    }
}
