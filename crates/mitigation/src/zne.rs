//! Zero-noise extrapolation (ZNE).
//!
//! One of the orthogonal mitigation techniques the paper surveys (§II-C,
//! refs \[14\], \[24\], \[46\]) and names as a future VAQEM integration target
//! (§IX): its configuration (noise-scale factors, extrapolation order) is
//! exactly the kind of knob the variational framework could tune. This
//! module implements digital ZNE by **global unitary folding** — the
//! circuit `U` is replaced by `U (U† U)^k`, scaling the effective noise by
//! `2k + 1` while preserving semantics — plus Richardson (polynomial) and
//! exponential extrapolation of the measured expectation back to the
//! zero-noise limit.
//!
//! [`fold_schedule`] folds a [`ScheduledCircuit`] **in place on the
//! timeline**: each folded segment replays the original segment's exact
//! op timing (idle windows, DD pulses, repositioned gates included), so
//! ZNE composes losslessly with the tuned GS/DD mitigation — the scale-1
//! member of a folded family *is* the mitigated schedule, bit for bit.
//!
//! The tunable protocol itself is captured by [`ZneConfig`]: which fold
//! counts to execute and which [`Extrapolation`] model to fit. The VAQEM
//! tuner sweeps candidate `ZneConfig`s under the §IX-C acceptance guard
//! exactly as it sweeps DD repetition counts.

use vaqem_circuit::gate::Gate;
use vaqem_circuit::schedule::{ScheduledCircuit, TimedOp};
use vaqem_mathkit::linalg;

/// Noise-scale factor produced by `folds` global folds.
pub fn scale_factor(folds: usize) -> f64 {
    (2 * folds + 1) as f64
}

/// Folds a **scheduled** circuit on its own timeline: the unitary body `U`
/// (every op except measurements) becomes `U (U† U)^folds`, where each
/// appended segment replays the body's exact op timing — reversed for the
/// `U†` segments — and the measurement tail shifts to the end.
///
/// Because timing is preserved segment by segment, the folded schedule
/// carries `2 * folds + 1` copies of the original idle-window structure:
/// DD pulses and repositioned gates inserted by a [`crate::combined::
/// MitigationConfig`] are amplified together with the computation, which
/// is what lets ZNE compose with the tuned mitigation stages instead of
/// destroying their window layout. With `folds == 0` the input is
/// returned unchanged.
///
/// # Panics
///
/// Panics if a body op is parameterized (fold after binding).
pub fn fold_schedule(scheduled: &ScheduledCircuit, folds: usize) -> ScheduledCircuit {
    if folds == 0 {
        return scheduled.clone();
    }
    let (body, tail): (Vec<&TimedOp>, Vec<&TimedOp>) = scheduled
        .ops()
        .iter()
        .partition(|op| !matches!(op.gate, Gate::Measure));
    let span = body.iter().map(|op| op.end_ns()).fold(0.0f64, f64::max);
    let mut ops: Vec<TimedOp> = body.iter().map(|op| (*op).clone()).collect();
    for segment in 1..=(2 * folds) {
        let offset = segment as f64 * span;
        let reversed = segment % 2 == 1; // odd segments replay U†
        for op in &body {
            assert!(
                !op.gate.is_parameterized(),
                "fold_schedule requires a bound circuit"
            );
            let (gate, start_ns) = if reversed {
                (op.gate.inverse(), offset + (span - op.end_ns()))
            } else {
                (op.gate, offset + op.start_ns)
            };
            ops.push(TimedOp {
                gate,
                qubits: op.qubits.clone(),
                start_ns,
                duration_ns: op.duration_ns,
            });
        }
    }
    let shift = 2.0 * folds as f64 * span;
    for op in tail {
        let mut op = op.clone();
        op.start_ns += shift;
        ops.push(op);
    }
    scheduled.with_ops(ops)
}

/// Extrapolates measured expectations to the zero-noise limit with a
/// polynomial (Richardson) fit of degree `points - 1`, or a linear fit when
/// `order` is smaller.
///
/// `samples` are `(noise_scale, expectation)` pairs with distinct scales.
///
/// # Panics
///
/// Panics with fewer than 2 samples, duplicate scales, or when
/// `order + 1 > samples.len()`.
pub fn extrapolate(samples: &[(f64, f64)], order: usize) -> f64 {
    assert!(
        samples.len() >= 2,
        "extrapolation needs at least two samples"
    );
    assert!(
        order < samples.len(),
        "order {order} needs {} samples",
        order + 1
    );
    for (i, (si, _)) in samples.iter().enumerate() {
        for (sj, _) in &samples[..i] {
            assert!((si - sj).abs() > 1e-12, "noise scales must be distinct");
        }
    }
    // Least-squares polynomial fit: solve (A^T A) c = A^T y for
    // c = [c0, c1, ..., c_order]; the zero-noise value is c0.
    let m = samples.len();
    let n = order + 1;
    let mut ata = vec![0.0; n * n];
    let mut aty = vec![0.0; n];
    for &(s, y) in samples {
        let powers: Vec<f64> = (0..n).map(|k| s.powi(k as i32)).collect();
        for i in 0..n {
            aty[i] += powers[i] * y;
            for j in 0..n {
                ata[i * n + j] += powers[i] * powers[j];
            }
        }
    }
    let _ = m;
    let coeffs = linalg::solve_real(&ata, &aty, n).expect("well-conditioned Vandermonde system");
    coeffs[0]
}

/// Extrapolates to zero noise under an exponential-decay model
/// `y(s) = ±|y0| e^{-c s}` — the physically motivated ansatz for
/// depolarizing-dominated noise, fit log-linearly.
///
/// All samples must share a sign and be bounded away from zero for the
/// log fit to exist; otherwise the estimator falls back to the linear
/// (order-1 Richardson) fit, which is always defined. The fallback keeps
/// the estimator total — a tuner sweeping extrapolation models must never
/// panic on a noisy sample set.
///
/// # Panics
///
/// Panics with fewer than 2 samples or duplicate scales (as
/// [`extrapolate`]).
pub fn extrapolate_exponential(samples: &[(f64, f64)]) -> f64 {
    const TINY: f64 = 1e-12;
    let sign = samples
        .first()
        .map(|&(_, y)| if y < 0.0 { -1.0 } else { 1.0 })
        .expect("extrapolation needs at least two samples");
    let log_fit_defined = samples
        .iter()
        .all(|&(_, y)| y.abs() > TINY && (y < 0.0) == (sign < 0.0));
    if !log_fit_defined {
        return extrapolate(samples, 1);
    }
    let logs: Vec<(f64, f64)> = samples.iter().map(|&(s, y)| (s, y.abs().ln())).collect();
    let intercept = extrapolate(&logs, 1);
    sign * intercept.exp()
}

/// The zero-noise extrapolation model fitted over the amplified
/// expectation values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Extrapolation {
    /// Polynomial (Richardson) fit of the given order; the order is
    /// clamped to `samples - 1` at fit time.
    Richardson {
        /// Polynomial order of the fit.
        order: u8,
    },
    /// Exponential-decay fit with a linear fallback
    /// ([`extrapolate_exponential`]).
    Exponential,
}

/// A complete, tunable digital-ZNE protocol: which global fold counts to
/// execute and which extrapolation model to fit over the results.
///
/// This is the knob the VAQEM tuner sweeps (paper §IX): candidate
/// `ZneConfig`s differ in their scale-factor sets and extrapolation
/// model, and the acceptance guard keeps the winner only when it measures
/// at least as well as the un-extrapolated baseline.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ZneConfig {
    /// Global fold counts to execute, e.g. `[0, 1, 2]` for noise scales
    /// `1, 3, 5`. Must hold at least two distinct entries.
    pub folds: Vec<u8>,
    /// Extrapolation model fitted over the `(scale, expectation)` samples.
    pub extrapolation: Extrapolation,
}

impl ZneConfig {
    /// Creates a protocol, validating the fold set.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two folds or duplicate fold counts.
    pub fn new(folds: Vec<u8>, extrapolation: Extrapolation) -> Self {
        assert!(folds.len() >= 2, "ZNE needs at least two noise scales");
        for (i, a) in folds.iter().enumerate() {
            assert!(
                !folds[..i].contains(a),
                "fold counts must be distinct, got {folds:?}"
            );
        }
        ZneConfig {
            folds,
            extrapolation,
        }
    }

    /// The conventional fixed protocol the comparisons use: scales
    /// `1, 3, 5` with a linear fit — "one round of ZNE" the way a
    /// non-variational stack would apply it.
    pub fn standard() -> Self {
        ZneConfig::new(vec![0, 1, 2], Extrapolation::Richardson { order: 1 })
    }

    /// The default candidate set the tuner sweeps: scale-factor sets and
    /// extrapolation models bracketing [`Self::standard`] in cost and
    /// model bias. The standard protocol is always a member, so tuned-ZNE
    /// can never measure worse than fixed-ZNE within one sweep batch.
    pub fn tuned_candidates() -> Vec<ZneConfig> {
        vec![
            ZneConfig::new(vec![0, 1], Extrapolation::Richardson { order: 1 }),
            ZneConfig::standard(),
            ZneConfig::new(vec![0, 1, 2], Extrapolation::Richardson { order: 2 }),
            ZneConfig::new(vec![0, 1, 2], Extrapolation::Exponential),
            ZneConfig::new(vec![0, 2], Extrapolation::Richardson { order: 1 }),
        ]
    }

    /// Number of noise scales executed per objective evaluation.
    pub fn num_scales(&self) -> usize {
        self.folds.len()
    }

    /// Fold counts as `usize`, in execution order.
    pub fn fold_counts(&self) -> Vec<usize> {
        self.folds.iter().map(|&f| f as usize).collect()
    }

    /// The noise-scale factors this protocol executes.
    pub fn scale_factors(&self) -> Vec<f64> {
        self.folds
            .iter()
            .map(|&f| scale_factor(f as usize))
            .collect()
    }

    /// Sum of the scale factors — the circuit-time multiplier one ZNE
    /// objective evaluation costs relative to a single unfolded
    /// execution (the shot count per scale is unchanged; the circuits
    /// are longer). The cost model prices this via
    /// `em_minutes_for_zne_evaluations`.
    pub fn scale_sum(&self) -> f64 {
        self.scale_factors().iter().sum()
    }

    /// Fits the configured extrapolation model over
    /// `(noise_scale, expectation)` samples and returns the zero-noise
    /// estimate.
    ///
    /// # Panics
    ///
    /// Panics on fewer than 2 samples or duplicate scales.
    pub fn extrapolate(&self, samples: &[(f64, f64)]) -> f64 {
        match self.extrapolation {
            Extrapolation::Richardson { order } => {
                extrapolate(samples, (order as usize).min(samples.len() - 1))
            }
            Extrapolation::Exponential => extrapolate_exponential(samples),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_circuit::circuit::QuantumCircuit;
    use vaqem_circuit::unitary::{circuit_unitary, equal_up_to_phase};

    fn test_circuit() -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.ry(0.7, 1).unwrap();
        qc.cx(0, 1).unwrap();
        qc.rz(-0.3, 0).unwrap();
        qc
    }

    #[test]
    fn linear_extrapolation_recovers_intercept() {
        // y = 0.9 - 0.1 s: zero-noise value 0.9.
        let samples = [(1.0, 0.8), (3.0, 0.6), (5.0, 0.4)];
        let z = extrapolate(&samples, 1);
        assert!((z - 0.9).abs() < 1e-10, "{z}");
    }

    #[test]
    fn richardson_recovers_quadratic_intercept() {
        // y = 1.0 - 0.2 s + 0.01 s^2.
        let f = |s: f64| 1.0 - 0.2 * s + 0.01 * s * s;
        let samples = [(1.0, f(1.0)), (3.0, f(3.0)), (5.0, f(5.0))];
        let z = extrapolate(&samples, 2);
        assert!((z - 1.0).abs() < 1e-9, "{z}");
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_scales_rejected() {
        let _ = extrapolate(&[(1.0, 0.5), (1.0, 0.6)], 1);
    }

    #[test]
    fn exponential_extrapolation_recovers_decay_amplitude() {
        // y = 0.8 e^{-0.1 s}: the log-linear fit recovers 0.8 exactly,
        // where the linear fit would undershoot.
        let f = |s: f64| 0.8 * (-0.1 * s).exp();
        let samples = [(1.0, f(1.0)), (3.0, f(3.0)), (5.0, f(5.0))];
        let z = extrapolate_exponential(&samples);
        assert!((z - 0.8).abs() < 1e-9, "{z}");
        // Negative-branch decay recovers the signed amplitude.
        let neg: Vec<(f64, f64)> = samples.iter().map(|&(s, y)| (s, -y)).collect();
        let zn = extrapolate_exponential(&neg);
        assert!((zn + 0.8).abs() < 1e-9, "{zn}");
    }

    #[test]
    fn exponential_extrapolation_falls_back_on_sign_changes() {
        // Mixed signs: the log fit is undefined, so the estimator must
        // agree with the linear fit instead of panicking.
        let samples = [(1.0, 0.1), (3.0, -0.05), (5.0, -0.2)];
        let z = extrapolate_exponential(&samples);
        assert!((z - extrapolate(&samples, 1)).abs() < 1e-12);
    }

    #[test]
    fn fold_schedule_replicates_timing_per_segment() {
        use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind};
        let mut qc = test_circuit();
        qc.measure_all();
        let s = schedule(&qc, &DurationModel::ibm_default(), ScheduleKind::Alap).unwrap();
        let body_ops = s
            .ops()
            .iter()
            .filter(|o| !matches!(o.gate, Gate::Measure))
            .count();
        let span = s
            .ops()
            .iter()
            .filter(|o| !matches!(o.gate, Gate::Measure))
            .map(|o| o.end_ns())
            .fold(0.0f64, f64::max);
        for folds in 0..3usize {
            let folded = fold_schedule(&s, folds);
            folded.validate().unwrap();
            assert_eq!(
                folded.ops().len(),
                (2 * folds + 1) * body_ops + 2,
                "folds = {folds}"
            );
            // Measures shifted past every folded segment.
            let first_measure = folded
                .ops()
                .iter()
                .find(|o| matches!(o.gate, Gate::Measure))
                .unwrap()
                .start_ns;
            assert!(first_measure >= 2.0 * folds as f64 * span - 1e-9);
        }
        // folds = 0 is the identity.
        assert_eq!(fold_schedule(&s, 0).ops(), s.ops());
    }

    #[test]
    fn fold_schedule_preserves_semantics_on_ideal_substrate() {
        // The folded schedule's statevector equals the original's: segment
        // k+1 undoes segment k exactly (gate inverses share durations).
        use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind};
        let qc = test_circuit();
        let s = schedule(&qc, &DurationModel::ibm_default(), ScheduleKind::Alap).unwrap();
        let u = circuit_unitary(&qc).unwrap();
        for folds in 1..3usize {
            let folded = fold_schedule(&s, folds);
            // Rebuild a circuit from the folded timeline in time order and
            // compare unitaries.
            let mut rebuilt = QuantumCircuit::new(qc.num_qubits());
            for op in folded.ops() {
                rebuilt.push(op.gate, &op.qubits).unwrap();
            }
            let uf = circuit_unitary(&rebuilt).unwrap();
            assert!(equal_up_to_phase(&u, &uf, 1e-8), "folds = {folds}");
        }
    }

    #[test]
    fn zne_config_validates_and_prices() {
        assert_eq!(scale_factor(2), 5.0);
        let z = ZneConfig::standard();
        assert_eq!(z.num_scales(), 3);
        assert_eq!(z.scale_factors(), vec![1.0, 3.0, 5.0]);
        assert!((z.scale_sum() - 9.0).abs() < 1e-12);
        assert!(ZneConfig::tuned_candidates().contains(&ZneConfig::standard()));
        for c in ZneConfig::tuned_candidates() {
            assert!(c.num_scales() >= 2);
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn zne_config_rejects_duplicate_folds() {
        let _ = ZneConfig::new(vec![1, 1], Extrapolation::Exponential);
    }

    #[test]
    fn zne_config_extrapolate_dispatches_models() {
        let f = |s: f64| 0.9 * (-0.05 * s).exp();
        let samples = [(1.0, f(1.0)), (3.0, f(3.0)), (5.0, f(5.0))];
        let exp = ZneConfig::new(vec![0, 1, 2], Extrapolation::Exponential);
        assert!((exp.extrapolate(&samples) - 0.9).abs() < 1e-9);
        let lin = ZneConfig::new(vec![0, 1, 2], Extrapolation::Richardson { order: 1 });
        assert!((lin.extrapolate(&samples) - extrapolate(&samples, 1)).abs() < 1e-12);
        // Order clamps to samples - 1 instead of panicking.
        let over = ZneConfig::new(vec![0, 1], Extrapolation::Richardson { order: 5 });
        let two = [(1.0, 0.8), (3.0, 0.6)];
        assert!((over.extrapolate(&two) - 0.9).abs() < 1e-12);
    }
}
