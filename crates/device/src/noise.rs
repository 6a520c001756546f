//! Noise parameterization consumed by the simulators.
//!
//! [`NoiseParameters`] is the full physical description the trajectory
//! executor needs. It separates two classes of noise, which is the crux of
//! reproducing the paper's Fig. 9 (noisy *simulation* vs. the real machine):
//!
//! * **Markovian** terms — T1 amplitude damping, T2 pure dephasing,
//!   depolarizing gate error, readout assignment error. These are what a
//!   calibration-derived Qiskit noise model captures.
//! * **Correlated** terms — quasi-static (low-frequency) detuning and
//!   always-on ZZ coupling between neighbours. These are *not* captured by
//!   calibration noise models, but they are exactly what dynamical
//!   decoupling and echo-based gate scheduling act on.
//!
//! [`NoiseParameters::markovian_only`] strips the correlated terms, yielding
//! the "noisy simulation" model of Fig. 9; the full set plays the "real
//! machine".

use std::collections::{BTreeMap, HashMap};

/// Per-qubit physical noise properties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitNoise {
    /// Amplitude-damping time constant in nanoseconds.
    pub t1_ns: f64,
    /// Total dephasing time constant in nanoseconds (T2 <= 2*T1).
    pub t2_ns: f64,
    /// Standard deviation of the quasi-static angular detuning in rad/ns.
    ///
    /// Sampled once per trajectory (shot); models 1/f flux noise and slow
    /// TLS drift. This is the component an echo refocuses.
    pub quasi_static_sigma_rad_ns: f64,
    /// Telegraph-noise switching rate in 1/ns (two-level-system hops). The
    /// detuning sign flips at this Poisson rate within a trajectory, which
    /// bounds how much a *single* echo can refocus and rewards shorter DD
    /// periods — the mechanism behind interior optima in Fig. 5.
    pub telegraph_rate_per_ns: f64,
    /// Probability of reading 1 when the qubit is 0.
    pub readout_p01: f64,
    /// Probability of reading 0 when the qubit is 1.
    pub readout_p10: f64,
    /// Depolarizing error probability per single-qubit gate.
    pub gate_error_1q: f64,
}

impl QubitNoise {
    /// Pure-dephasing rate `1/T_phi = 1/T2 - 1/(2 T1)` in 1/ns, clamped at 0.
    pub fn pure_dephasing_rate(&self) -> f64 {
        (1.0 / self.t2_ns - 0.5 / self.t1_ns).max(0.0)
    }

    /// Returns a copy with the correlated noise channels removed.
    pub fn markovian_only(&self) -> QubitNoise {
        QubitNoise {
            quasi_static_sigma_rad_ns: 0.0,
            telegraph_rate_per_ns: 0.0,
            ..*self
        }
    }
}

impl Default for QubitNoise {
    /// A median IBM-Falcon-era qubit.
    fn default() -> Self {
        QubitNoise {
            t1_ns: 100_000.0,
            t2_ns: 80_000.0,
            quasi_static_sigma_rad_ns: 1.8e-4,
            telegraph_rate_per_ns: 8.0e-6,
            readout_p01: 0.015,
            readout_p10: 0.03,
            gate_error_1q: 3.0e-4,
        }
    }
}

/// Complete noise description for a device.
///
/// Pair maps are ordered, so [`NoiseParameters::zz_couplings`] yields
/// its pairs in ascending order and equal instances apply their ZZ
/// phases in the same order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NoiseParameters {
    qubits: Vec<QubitNoise>,
    cx_error: BTreeMap<(usize, usize), f64>,
    zz_rad_ns: BTreeMap<(usize, usize), f64>,
}

impl NoiseParameters {
    /// Creates noise parameters for `n` identical default qubits.
    pub fn uniform(n: usize) -> Self {
        NoiseParameters {
            qubits: vec![QubitNoise::default(); n],
            cx_error: BTreeMap::new(),
            zz_rad_ns: BTreeMap::new(),
        }
    }

    /// Creates noise parameters from explicit per-qubit properties.
    pub fn from_qubits(qubits: Vec<QubitNoise>) -> Self {
        NoiseParameters {
            qubits,
            cx_error: BTreeMap::new(),
            zz_rad_ns: BTreeMap::new(),
        }
    }

    /// Number of qubits described.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Per-qubit noise for `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn qubit(&self, q: usize) -> &QubitNoise {
        &self.qubits[q]
    }

    /// Mutable access to qubit noise (used by drift application).
    pub fn qubit_mut(&mut self, q: usize) -> &mut QubitNoise {
        &mut self.qubits[q]
    }

    /// Sets the CX depolarizing error for a directed pair; stored
    /// symmetrically.
    pub fn set_cx_error(&mut self, a: usize, b: usize, p: f64) {
        self.cx_error.insert(ordered(a, b), p);
    }

    /// CX depolarizing error for a pair (default `1e-2` when unset).
    pub fn cx_error(&self, a: usize, b: usize) -> f64 {
        self.cx_error.get(&ordered(a, b)).copied().unwrap_or(1.0e-2)
    }

    /// Sets the always-on ZZ coupling strength (rad/ns) for a pair.
    pub fn set_zz(&mut self, a: usize, b: usize, zeta_rad_ns: f64) {
        self.zz_rad_ns.insert(ordered(a, b), zeta_rad_ns);
    }

    /// Iterates over `(pair, zeta)` ZZ couplings in ascending pair order.
    pub fn zz_couplings(&self) -> impl Iterator<Item = ((usize, usize), f64)> + '_ {
        self.zz_rad_ns.iter().map(|(&k, &v)| (k, v))
    }

    /// Returns a calibration-style model: same Markovian rates, no
    /// correlated noise — what a Qiskit `NoiseModel.from_backend` captures.
    pub fn markovian_only(&self) -> NoiseParameters {
        NoiseParameters {
            qubits: self.qubits.iter().map(QubitNoise::markovian_only).collect(),
            cx_error: self.cx_error.clone(),
            zz_rad_ns: BTreeMap::new(),
        }
    }

    /// Returns a copy with every noise channel disabled (ideal device).
    pub fn noiseless(n: usize) -> NoiseParameters {
        let q = QubitNoise {
            t1_ns: f64::INFINITY,
            t2_ns: f64::INFINITY,
            quasi_static_sigma_rad_ns: 0.0,
            telegraph_rate_per_ns: 0.0,
            readout_p01: 0.0,
            readout_p10: 0.0,
            gate_error_1q: 0.0,
        };
        let mut p = NoiseParameters::from_qubits(vec![q; n]);
        // Explicit zero CX error for any pair.
        for a in 0..n {
            for b in (a + 1)..n {
                p.cx_error.insert((a, b), 0.0);
            }
        }
        p
    }

    /// Extracts the noise description for a subset of physical qubits,
    /// renumbering them `0..layout.len()` in order. CX errors and ZZ
    /// couplings between selected qubits are carried over; couplings to
    /// unselected spectators are dropped.
    ///
    /// This is how a circuit mapped onto physical qubits `layout` sees the
    /// device.
    ///
    /// # Panics
    ///
    /// Panics if `layout` references a qubit out of range or repeats one.
    pub fn subset(&self, layout: &[usize]) -> NoiseParameters {
        let mut index_of = HashMap::new();
        for (virt, &phys) in layout.iter().enumerate() {
            assert!(phys < self.qubits.len(), "layout qubit {phys} out of range");
            assert!(
                index_of.insert(phys, virt).is_none(),
                "layout repeats qubit {phys}"
            );
        }
        let qubits = layout.iter().map(|&p| self.qubits[p]).collect();
        let mut out = NoiseParameters::from_qubits(qubits);
        for (&(a, b), &p) in &self.cx_error {
            if let (Some(&va), Some(&vb)) = (index_of.get(&a), index_of.get(&b)) {
                out.set_cx_error(va, vb, p);
            }
        }
        for (&(a, b), &z) in &self.zz_rad_ns {
            if let (Some(&va), Some(&vb)) = (index_of.get(&a), index_of.get(&b)) {
                out.set_zz(va, vb, z);
            }
        }
        out
    }

    /// Scales T1 and T2 on every qubit by `factor` (drift helper).
    pub fn scale_coherence(&mut self, factor: f64) {
        for q in self.qubits.iter_mut() {
            q.t1_ns *= factor;
            q.t2_ns *= factor;
            // T2 <= 2*T1 must keep holding.
            q.t2_ns = q.t2_ns.min(2.0 * q.t1_ns);
        }
    }
}

fn ordered(a: usize, b: usize) -> (usize, usize) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_qubit_is_physical() {
        let q = QubitNoise::default();
        assert!(q.t2_ns <= 2.0 * q.t1_ns);
        assert!(q.pure_dephasing_rate() > 0.0);
        assert!(q.readout_p01 < 0.5 && q.readout_p10 < 0.5);
    }

    #[test]
    fn pure_dephasing_rate_clamps_at_zero() {
        let q = QubitNoise {
            t1_ns: 100.0,
            t2_ns: 200.0, // T2 = 2*T1: no pure dephasing
            ..QubitNoise::default()
        };
        assert_eq!(q.pure_dephasing_rate(), 0.0);
    }

    #[test]
    fn markovian_only_strips_correlated_noise() {
        let p = NoiseParameters::uniform(3);
        let m = p.markovian_only();
        for q in 0..3 {
            assert_eq!(m.qubit(q).quasi_static_sigma_rad_ns, 0.0);
            assert_eq!(m.qubit(q).telegraph_rate_per_ns, 0.0);
            // Markovian rates preserved.
            assert_eq!(m.qubit(q).t1_ns, p.qubit(q).t1_ns);
            assert_eq!(m.qubit(q).readout_p10, p.qubit(q).readout_p10);
        }
        assert_eq!(m.zz_couplings().count(), 0);
    }

    #[test]
    fn cx_error_is_symmetric() {
        let mut p = NoiseParameters::uniform(3);
        p.set_cx_error(2, 0, 0.02);
        assert_eq!(p.cx_error(0, 2), 0.02);
        assert_eq!(p.cx_error(2, 0), 0.02);
        // Unset pairs fall back to the default.
        assert_eq!(p.cx_error(0, 1), 1.0e-2);
    }

    #[test]
    fn zz_round_trip() {
        let mut p = NoiseParameters::uniform(2);
        p.set_zz(1, 0, 3.0e-4);
        let pairs: Vec<_> = p.zz_couplings().collect();
        assert_eq!(pairs, vec![((0, 1), 3.0e-4)]);
    }

    #[test]
    fn zz_couplings_iterate_in_ascending_pair_order() {
        // Equal instances must apply their ZZ phases in one order, or
        // rounding makes their trajectories differ bit for bit.
        let inserts = [(3, 2), (0, 1), (2, 1), (0, 3), (1, 3)];
        let want = [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)];
        for _ in 0..20 {
            let mut p = NoiseParameters::uniform(4);
            for (i, &(a, b)) in inserts.iter().enumerate() {
                p.set_zz(a, b, 1.0e-5 * (i + 1) as f64);
            }
            let pairs: Vec<(usize, usize)> = p.zz_couplings().map(|(pair, _)| pair).collect();
            assert_eq!(pairs, want);
        }
    }

    #[test]
    fn noiseless_has_no_error() {
        let p = NoiseParameters::noiseless(2);
        assert_eq!(p.qubit(0).gate_error_1q, 0.0);
        assert_eq!(p.cx_error(0, 1), 0.0);
        assert!(p.qubit(0).t1_ns.is_infinite());
    }

    #[test]
    fn subset_renumbers_and_carries_couplings() {
        let mut p = NoiseParameters::uniform(5);
        p.qubit_mut(3).t1_ns = 12_345.0;
        p.set_cx_error(1, 3, 0.05);
        p.set_zz(1, 3, 4.0e-4);
        p.set_zz(0, 1, 1.0e-4); // dropped: qubit 0 not selected
        let s = p.subset(&[1, 3]);
        assert_eq!(s.num_qubits(), 2);
        assert_eq!(s.qubit(1).t1_ns, 12_345.0);
        assert_eq!(s.cx_error(0, 1), 0.05);
        let zz: Vec<_> = s.zz_couplings().collect();
        assert_eq!(zz, vec![((0, 1), 4.0e-4)]);
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn subset_rejects_duplicates() {
        let p = NoiseParameters::uniform(3);
        let _ = p.subset(&[1, 1]);
    }

    #[test]
    fn scale_coherence_keeps_t2_bound() {
        let mut p = NoiseParameters::from_qubits(vec![QubitNoise {
            t1_ns: 100.0,
            t2_ns: 200.0,
            ..QubitNoise::default()
        }]);
        p.scale_coherence(0.5);
        let q = p.qubit(0);
        assert_eq!(q.t1_ns, 50.0);
        assert!(q.t2_ns <= 2.0 * q.t1_ns + 1e-12);
    }
}
