//! Device (backend) models.
//!
//! [`DeviceModel`] bundles everything a transpile-and-execute flow needs:
//! qubit count, coupling map, duration table, and nominal noise parameters.
//! Four presets mirror the machines the paper evaluates on
//! (§VII-A): `ibmq_casablanca` and `ibmq_jakarta` (7 qubits, "H" topology),
//! `ibmq_guadalupe` (16 qubits), and `ibmq_montreal` (27 qubits, heavy-hex).
//! Per-qubit parameters vary deterministically around the nominal values so
//! that "good" and "bad" qubits exist, as on real hardware (the paper notes
//! TFIM_6q_c_4r is forced onto noisy qubits).

use crate::noise::{NoiseParameters, QubitNoise};
use rand::Rng;
use vaqem_circuit::schedule::DurationModel;
use vaqem_mathkit::rng::SeedStream;

/// A quantum backend: topology, timing, and nominal noise.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    name: String,
    num_qubits: usize,
    coupling: Vec<(usize, usize)>,
    durations: DurationModel,
    noise: NoiseParameters,
}

impl DeviceModel {
    /// Builds a device from explicit parts.
    pub fn new(
        name: impl Into<String>,
        num_qubits: usize,
        coupling: Vec<(usize, usize)>,
        durations: DurationModel,
        noise: NoiseParameters,
    ) -> Self {
        assert_eq!(
            noise.num_qubits(),
            num_qubits,
            "noise parameters must cover every qubit"
        );
        DeviceModel {
            name: name.into(),
            num_qubits,
            coupling,
            durations,
            noise,
        }
    }

    /// Backend name, e.g. `"ibmq_casablanca"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Undirected coupling map.
    pub fn coupling(&self) -> &[(usize, usize)] {
        &self.coupling
    }

    /// Returns `true` if `a` and `b` are directly coupled.
    pub fn are_coupled(&self, a: usize, b: usize) -> bool {
        self.coupling
            .iter()
            .any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    /// Gate duration table.
    pub fn durations(&self) -> &DurationModel {
        &self.durations
    }

    /// Nominal noise parameters (most recent calibration).
    pub fn noise(&self) -> &NoiseParameters {
        &self.noise
    }

    /// The 7-qubit "H"-shaped device the paper ran most experiments on.
    pub fn ibmq_casablanca() -> Self {
        Self::falcon7("ibmq_casablanca", 0xCA5A)
    }

    /// The second 7-qubit device used for the non-Runtime workloads.
    pub fn ibmq_jakarta() -> Self {
        Self::falcon7("ibmq_jakarta", 0x1A4A)
    }

    /// 16-qubit Falcon (heavy-hex fragment).
    pub fn ibmq_guadalupe() -> Self {
        let coupling = vec![
            (0, 1),
            (1, 2),
            (1, 4),
            (2, 3),
            (3, 5),
            (4, 7),
            (5, 8),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (10, 12),
            (11, 14),
            (12, 13),
            (12, 15),
            (13, 14),
        ];
        Self::build("ibmq_guadalupe", 16, coupling, 0x6A7E)
    }

    /// 27-qubit Falcon used for the Qiskit Runtime chemistry workloads.
    pub fn ibmq_montreal() -> Self {
        let coupling = vec![
            (0, 1),
            (1, 2),
            (1, 4),
            (2, 3),
            (3, 5),
            (4, 7),
            (5, 8),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (10, 12),
            (11, 14),
            (12, 13),
            (12, 15),
            (13, 14),
            (14, 16),
            (15, 18),
            (16, 19),
            (17, 18),
            (18, 21),
            (19, 20),
            (19, 22),
            (21, 23),
            (22, 25),
            (23, 24),
            (24, 25),
            (25, 26),
        ];
        Self::build("ibmq_montreal", 27, coupling, 0x304E)
    }

    fn falcon7(name: &str, seed: u64) -> Self {
        // IBM 7-qubit "H" topology: 0-1-2 across the top with 1-3 the stem,
        // 3-5, and 4-5-6 across the bottom.
        let coupling = vec![(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)];
        Self::build(name, 7, coupling, seed)
    }

    fn build(name: &str, n: usize, coupling: Vec<(usize, usize)>, seed: u64) -> Self {
        let stream = SeedStream::new(seed);
        let mut rng = stream.rng("device-fabrication");
        let mut qubits = Vec::with_capacity(n);
        for _ in 0..n {
            let nominal = QubitNoise::default();
            // Log-normal-ish fabrication spread: some qubits are 2-3x worse.
            let t1 = nominal.t1_ns * lognormal_factor(&mut rng, 0.35);
            let t2 = (nominal.t2_ns * lognormal_factor(&mut rng, 0.40)).min(2.0 * t1);
            qubits.push(QubitNoise {
                t1_ns: t1,
                t2_ns: t2,
                quasi_static_sigma_rad_ns: nominal.quasi_static_sigma_rad_ns
                    * lognormal_factor(&mut rng, 0.5),
                telegraph_rate_per_ns: nominal.telegraph_rate_per_ns
                    * lognormal_factor(&mut rng, 0.5),
                readout_p01: (nominal.readout_p01 * lognormal_factor(&mut rng, 0.4)).min(0.2),
                readout_p10: (nominal.readout_p10 * lognormal_factor(&mut rng, 0.4)).min(0.25),
                gate_error_1q: nominal.gate_error_1q * lognormal_factor(&mut rng, 0.4),
            });
        }
        let mut noise = NoiseParameters::from_qubits(qubits);
        for &(a, b) in &coupling {
            noise.set_cx_error(a, b, 1.0e-2 * lognormal_factor(&mut rng, 0.4));
            // Always-on ZZ: ~2π * 40-120 kHz.
            noise.set_zz(a, b, 2.5e-4 * lognormal_factor(&mut rng, 0.4));
        }
        DeviceModel::new(name, n, coupling, DurationModel::ibm_default(), noise)
    }
}

fn lognormal_factor<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    (sigma * vaqem_mathkit::rng::sample_standard_normal(rng)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn casablanca_topology() {
        let d = DeviceModel::ibmq_casablanca();
        assert_eq!(d.num_qubits(), 7);
        assert_eq!(d.name(), "ibmq_casablanca");
        assert!(d.are_coupled(1, 3));
        assert!(d.are_coupled(3, 1));
        assert!(!d.are_coupled(0, 6));
        assert_eq!(d.coupling().len(), 6);
    }

    #[test]
    fn presets_have_expected_sizes() {
        assert_eq!(DeviceModel::ibmq_jakarta().num_qubits(), 7);
        assert_eq!(DeviceModel::ibmq_guadalupe().num_qubits(), 16);
        assert_eq!(DeviceModel::ibmq_montreal().num_qubits(), 27);
    }

    #[test]
    fn coupling_indices_in_range() {
        for d in [
            DeviceModel::ibmq_casablanca(),
            DeviceModel::ibmq_jakarta(),
            DeviceModel::ibmq_guadalupe(),
            DeviceModel::ibmq_montreal(),
        ] {
            for &(a, b) in d.coupling() {
                assert!(a < d.num_qubits() && b < d.num_qubits(), "{}", d.name());
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn fabrication_spread_exists_but_is_bounded() {
        let d = DeviceModel::ibmq_casablanca();
        let t1s: Vec<f64> = (0..7).map(|q| d.noise().qubit(q).t1_ns).collect();
        let min = t1s.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = t1s.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "qubits should differ");
        assert!(min > 10_000.0, "T1 should stay physical: {min}");
        assert!(max < 1_000_000.0, "T1 should stay physical: {max}");
        for q in 0..7 {
            let qn = d.noise().qubit(q);
            assert!(qn.t2_ns <= 2.0 * qn.t1_ns + 1e-9);
        }
    }

    #[test]
    fn devices_are_deterministic() {
        let a = DeviceModel::ibmq_casablanca();
        let b = DeviceModel::ibmq_casablanca();
        assert_eq!(a, b);
    }

    #[test]
    fn different_devices_differ() {
        let a = DeviceModel::ibmq_casablanca();
        let b = DeviceModel::ibmq_jakarta();
        assert_ne!(
            a.noise().qubit(0).t1_ns,
            b.noise().qubit(0).t1_ns,
            "fabrication seeds should differ"
        );
    }

    #[test]
    fn coupled_pairs_have_zz() {
        let d = DeviceModel::ibmq_casablanca();
        let zz: Vec<_> = d.noise().zz_couplings().collect();
        assert_eq!(zz.len(), d.coupling().len());
        for (_, zeta) in zz {
            assert!(zeta > 0.0);
        }
    }
}
