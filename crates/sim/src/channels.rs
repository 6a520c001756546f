//! Quantum noise channels as Kraus operator sets.
//!
//! Used by the density-matrix simulator (the calibration-style "noisy
//! simulation" of the paper's Fig. 9) and validated by CPTP property tests.
//! The channels cover what an IBM calibration captures: amplitude damping
//! (T1), phase damping (pure dephasing from T2) and depolarizing gate
//! error. Classical readout error is one per-qubit map: the density
//! engine pushes its diagonal through [`assignment_matrix`]es with
//! [`map_per_qubit`], and MEM undoes it with their inverses.

use vaqem_mathkit::complex::{c64, Complex64};
use vaqem_mathkit::matrix::{gates2x2, CMatrix};

/// A single-qubit channel: a list of 2x2 Kraus operators.
#[derive(Debug, Clone, PartialEq)]
pub struct KrausChannel {
    ops: Vec<CMatrix>,
}

impl KrausChannel {
    /// Builds a channel from Kraus operators.
    ///
    /// # Panics
    ///
    /// Panics if any operator is not 2x2 or the set is empty.
    pub fn new(ops: Vec<CMatrix>) -> Self {
        assert!(!ops.is_empty(), "channel needs at least one Kraus operator");
        for k in &ops {
            assert_eq!(k.rows(), 2, "single-qubit Kraus operators must be 2x2");
            assert_eq!(k.cols(), 2, "single-qubit Kraus operators must be 2x2");
        }
        KrausChannel { ops }
    }

    /// The identity channel.
    pub fn identity() -> Self {
        KrausChannel::new(vec![CMatrix::identity(2)])
    }

    /// Amplitude damping with decay probability `gamma = 1 - e^{-t/T1}`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= gamma <= 1`.
    pub fn amplitude_damping(gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma must be a probability");
        let k0 = CMatrix::from_rows(&[
            &[Complex64::ONE, Complex64::ZERO],
            &[Complex64::ZERO, c64((1.0 - gamma).sqrt(), 0.0)],
        ]);
        let k1 = CMatrix::from_rows(&[
            &[Complex64::ZERO, c64(gamma.sqrt(), 0.0)],
            &[Complex64::ZERO, Complex64::ZERO],
        ]);
        KrausChannel::new(vec![k0, k1])
    }

    /// Phase damping with dephasing probability `lambda = 1 - e^{-t/Tphi}`,
    /// expressed as a phase-flip channel with `p = (1 - sqrt(1-lambda))/2`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= lambda <= 1`.
    pub fn phase_damping(lambda: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&lambda),
            "lambda must be a probability"
        );
        let p = 0.5 * (1.0 - (1.0 - lambda).sqrt());
        Self::phase_flip(p)
    }

    /// Phase-flip channel: `Z` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    pub fn phase_flip(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let k0 = CMatrix::identity(2).scale(c64((1.0 - p).sqrt(), 0.0));
        let k1 = gates2x2::pauli_z().scale(c64(p.sqrt(), 0.0));
        KrausChannel::new(vec![k0, k1])
    }

    /// Single-qubit depolarizing channel with error probability `p`:
    /// with probability `p` the state is replaced by one of X, Y, Z applied
    /// uniformly.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    pub fn depolarizing(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let k0 = CMatrix::identity(2).scale(c64((1.0 - p).sqrt(), 0.0));
        let kp = (p / 3.0).sqrt();
        KrausChannel::new(vec![
            k0,
            gates2x2::pauli_x().scale(c64(kp, 0.0)),
            gates2x2::pauli_y().scale(c64(kp, 0.0)),
            gates2x2::pauli_z().scale(c64(kp, 0.0)),
        ])
    }

    /// The Kraus operators.
    pub fn ops(&self) -> &[CMatrix] {
        &self.ops
    }

    /// Checks the completeness relation `sum K† K = I` within `tol`.
    pub fn is_trace_preserving(&self, tol: f64) -> bool {
        let mut acc = CMatrix::zeros(2, 2);
        for k in &self.ops {
            acc = &acc + &(&k.adjoint() * k);
        }
        acc.is_identity(tol)
    }

    /// Composes two channels: `other` after `self`.
    pub fn then(&self, other: &KrausChannel) -> KrausChannel {
        let mut ops = Vec::with_capacity(self.ops.len() * other.ops.len());
        for b in &other.ops {
            for a in &self.ops {
                ops.push(b * a);
            }
        }
        KrausChannel::new(ops)
    }
}

/// The 2x2 column-stochastic readout-assignment matrix of one qubit,
/// `A[m][t]` = P(measure m | true t), from its error rates `p01` =
/// P(read 1 | state 0) and `p10` = P(read 0 | state 1).
pub fn assignment_matrix(p01: f64, p10: f64) -> [[f64; 2]; 2] {
    [[1.0 - p01, p10], [p01, 1.0 - p10]]
}

/// Applies one 2x2 map per qubit to a distribution over basis states:
/// `maps[q][out][in]` moves weight between the two values of bit `q`
/// (qubit 0 = LSB), one qubit after another. Assignment matrices push a
/// true distribution through readout error; their inverses undo it (MEM).
///
/// # Panics
///
/// Panics unless `p` has `2^maps.len()` entries.
pub fn map_per_qubit(p: &[f64], maps: &[[[f64; 2]; 2]]) -> Vec<f64> {
    assert_eq!(p.len(), 1 << maps.len(), "one map per qubit required");
    let mut p = p.to_vec();
    let mut next = vec![0.0; p.len()];
    for (q, map) in maps.iter().enumerate() {
        let bit = 1usize << q;
        next.fill(0.0);
        for (i, &pi) in p.iter().enumerate() {
            if pi == 0.0 {
                continue;
            }
            let input = (i & bit != 0) as usize;
            for (out, row) in map.iter().enumerate() {
                next[(i & !bit) | (out << q)] += row[input] * pi;
            }
        }
        std::mem::swap(&mut p, &mut next);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_mathkit::linalg;

    #[test]
    fn all_channels_are_trace_preserving() {
        for gamma in [0.0, 0.1, 0.5, 1.0] {
            assert!(KrausChannel::amplitude_damping(gamma).is_trace_preserving(1e-12));
            assert!(KrausChannel::phase_damping(gamma).is_trace_preserving(1e-12));
        }
        for p in [0.0, 0.01, 0.25, 0.75, 1.0] {
            assert!(KrausChannel::depolarizing(p).is_trace_preserving(1e-12));
            assert!(KrausChannel::phase_flip(p).is_trace_preserving(1e-12));
        }
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        // rho = |1><1| under damping: population -> 1 - gamma.
        let gamma = 0.3;
        let ch = KrausChannel::amplitude_damping(gamma);
        let rho = CMatrix::from_diagonal(&[Complex64::ZERO, Complex64::ONE]);
        let mut out = CMatrix::zeros(2, 2);
        for k in ch.ops() {
            out = &out + &(&(k * &rho) * &k.adjoint());
        }
        assert!((out[(1, 1)].re - (1.0 - gamma)).abs() < 1e-12);
        assert!((out[(0, 0)].re - gamma).abs() < 1e-12);
    }

    #[test]
    fn phase_damping_kills_coherence_not_population() {
        let lambda = 0.5;
        let ch = KrausChannel::phase_damping(lambda);
        // rho = |+><+|.
        let h = 0.5;
        let rho = CMatrix::from_rows(&[&[c64(h, 0.0), c64(h, 0.0)], &[c64(h, 0.0), c64(h, 0.0)]]);
        let mut out = CMatrix::zeros(2, 2);
        for k in ch.ops() {
            out = &out + &(&(k * &rho) * &k.adjoint());
        }
        // Populations untouched; off-diagonal shrinks by sqrt(1-lambda).
        assert!((out[(0, 0)].re - 0.5).abs() < 1e-12);
        assert!((out[(1, 1)].re - 0.5).abs() < 1e-12);
        assert!((out[(0, 1)].re - 0.5 * (1.0 - lambda).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_shrinks_bloch_vector() {
        let p = 0.3;
        let ch = KrausChannel::depolarizing(p);
        let rho = CMatrix::from_diagonal(&[Complex64::ONE, Complex64::ZERO]); // |0><0|
        let mut out = CMatrix::zeros(2, 2);
        for k in ch.ops() {
            out = &out + &(&(k * &rho) * &k.adjoint());
        }
        // <Z> shrinks by factor (1 - 4p/3).
        let z_exp = out[(0, 0)].re - out[(1, 1)].re;
        assert!((z_exp - (1.0 - 4.0 * p / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn channel_composition_is_cptp() {
        let a = KrausChannel::amplitude_damping(0.1);
        let b = KrausChannel::depolarizing(0.05);
        assert!(a.then(&b).is_trace_preserving(1e-12));
    }

    #[test]
    fn readout_assignment_matrix_is_stochastic() {
        let m = assignment_matrix(0.02, 0.05);
        assert!((m[0][0] + m[1][0] - 1.0).abs() < 1e-12);
        assert!((m[0][1] + m[1][1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn map_per_qubit_flips_one_qubit() {
        // Qubit 1 always reads flipped; qubit 0 reads perfectly.
        let maps = [assignment_matrix(0.0, 0.0), assignment_matrix(1.0, 1.0)];
        let out = map_per_qubit(&[0.1, 0.2, 0.3, 0.4], &maps);
        assert_eq!(out, vec![0.3, 0.4, 0.1, 0.2]);
    }

    #[test]
    fn assignment_maps_then_their_inverses_return_the_input() {
        let maps = [
            assignment_matrix(0.02, 0.05),
            assignment_matrix(0.1, 0.2),
            assignment_matrix(0.0, 0.3),
        ];
        let inverses: Vec<[[f64; 2]; 2]> = maps
            .iter()
            .map(|m| {
                let inv = linalg::invert_real(&[m[0][0], m[0][1], m[1][0], m[1][1]], 2).unwrap();
                [[inv[0], inv[1]], [inv[2], inv[3]]]
            })
            .collect();
        let p = [0.05, 0.1, 0.0, 0.25, 0.2, 0.0, 0.15, 0.25];
        let noisy = map_per_qubit(&p, &maps);
        assert!((noisy.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let back = map_per_qubit(&noisy, &inverses);
        for (b, x) in back.iter().zip(p) {
            assert!((b - x).abs() < 1e-12, "{back:?}");
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_gamma_panics() {
        let _ = KrausChannel::amplitude_damping(1.5);
    }
}
