//! Micro-benchmark circuits from the paper's motivation sections.
//!
//! * [`hahn_echo_circuit`] — the Fig. 6 experiment: `H`, a 28.44 µs idle
//!   window built from identity slots, an `X` swept across the window, and a
//!   closing `H` for X-basis measurement.
//! * [`dd_window_circuit`] — the Fig. 5 / Fig. 9 two-qubit micro-benchmark:
//!   a Bell-like pair where one qubit idles through a single large window
//!   while its partner works, leaving a window that DD sequences (or a moved
//!   gate) can fill.

use vaqem_circuit::circuit::QuantumCircuit;
use vaqem_circuit::error::CircuitError;

/// The paper's Fig. 6 window: 799 identity slots of ~35.56 ns = 28.44 µs.
pub const FIG6_WINDOW_SLOTS: usize = 799;
/// Duration of one identity slot in nanoseconds (paper: "approximately
/// 35.56ns").
pub const SLOT_NS: f64 = 35.56;

/// Builds the Hahn-echo position-sweep circuit of Fig. 6.
///
/// `position` in `[0, 1]` places the X pulse within the idle window:
/// `0.0` = as soon as possible (right after the opening H), `1.0` = as late
/// as possible (right before the closing H). The window is `window_slots`
/// identity-slot durations long; the X itself occupies one slot, carved out
/// of the window.
///
/// # Errors
///
/// Propagates circuit-builder errors.
///
/// # Panics
///
/// Panics if `position` is outside `[0, 1]` or `window_slots == 0`.
pub fn hahn_echo_circuit(
    window_slots: usize,
    position: f64,
) -> Result<QuantumCircuit, CircuitError> {
    assert!(
        (0.0..=1.0).contains(&position),
        "position must be in [0, 1]"
    );
    assert!(window_slots > 0, "window must be non-empty");
    let total_ns = window_slots as f64 * SLOT_NS;
    let before_ns = (total_ns - SLOT_NS).max(0.0) * position;
    let after_ns = (total_ns - SLOT_NS).max(0.0) - before_ns;
    let mut qc = QuantumCircuit::new(1);
    qc.h(0)?;
    if before_ns > 0.0 {
        qc.delay(before_ns, 0)?;
    }
    qc.x(0)?;
    if after_ns > 0.0 {
        qc.delay(after_ns, 0)?;
    }
    qc.h(0)?;
    qc.measure(0)?;
    Ok(qc)
}

/// The paper's exact Fig. 6 sweep point: a 28.44 µs window with the X at
/// `position` (the paper finds the optimum near the centre, a "390 ID
/// delay").
pub fn hahn_echo_fig6(position: f64) -> Result<QuantumCircuit, CircuitError> {
    hahn_echo_circuit(FIG6_WINDOW_SLOTS, position)
}

/// Builds the 2-qubit micro-benchmark with one large idle window (Figs. 5
/// and 9): qubit 1 is put in superposition and entangled, then *idles* for
/// `window_slots` slots while qubit 0 runs a busy chain; a final CX and
/// measurement close the circuit. The ideal output distribution is
/// deterministic (`|00>`), so Hellinger fidelity against ideal isolates the
/// idle-window error.
///
/// The returned circuit deliberately leaves the window on qubit 1 **empty**:
/// mitigation passes fill it.
///
/// # Errors
///
/// Propagates circuit-builder errors.
///
/// # Panics
///
/// Panics if `window_slots == 0`.
pub fn dd_window_circuit(window_slots: usize) -> Result<QuantumCircuit, CircuitError> {
    assert!(window_slots > 0, "window must be non-empty");
    let mut qc = QuantumCircuit::new(2);
    // Entangle.
    qc.h(1)?;
    qc.cx(1, 0)?;
    // Qubit 1 idles (explicit window); qubit 0 is kept busy so the schedule
    // cannot close the gap.
    qc.delay(window_slots as f64 * SLOT_NS, 1)?;
    for _ in 0..window_slots {
        qc.sx(0)?;
        qc.sxdg(0)?;
    }
    // Disentangle: ideal outcome |00>.
    qc.cx(1, 0)?;
    qc.h(1)?;
    qc.measure_all();
    Ok(qc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind};
    use vaqem_sim::statevector::StateVector;

    #[test]
    fn hahn_echo_total_duration_is_window_plus_gates() {
        let qc = hahn_echo_fig6(0.5).unwrap();
        let s = schedule(&qc, &DurationModel::ibm_default(), ScheduleKind::Asap).unwrap();
        // 2 H slots + window (799 slots, X carved out) + measure.
        let expect = 2.0 * SLOT_NS + 799.0 * SLOT_NS + 5000.0;
        assert!((s.total_ns() - expect).abs() < 1.0, "{}", s.total_ns());
    }

    #[test]
    fn hahn_echo_position_extremes() {
        for pos in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let qc = hahn_echo_circuit(100, pos).unwrap();
            let s = schedule(&qc, &DurationModel::ibm_default(), ScheduleKind::Asap).unwrap();
            s.validate().unwrap();
        }
        // position 0: no leading delay.
        let qc = hahn_echo_circuit(100, 0.0).unwrap();
        assert_eq!(qc.count_gate("delay"), 1);
        // interior position: two delays.
        let qc = hahn_echo_circuit(100, 0.5).unwrap();
        assert_eq!(qc.count_gate("delay"), 2);
    }

    #[test]
    fn hahn_echo_is_logically_deterministic() {
        // Ideal: H X H |0> = Z|... => |0> with certainty? H X H = Z, and
        // Z|0> = |0>. So ideal outcome is "0".
        let qc = hahn_echo_circuit(50, 0.3).unwrap();
        let sv = StateVector::run(&qc).unwrap();
        assert!(sv.probabilities()[0] > 1.0 - 1e-9);
    }

    #[test]
    fn dd_window_ideal_output_is_00() {
        let qc = dd_window_circuit(40).unwrap();
        let sv = StateVector::run(&qc).unwrap();
        assert!(sv.probabilities()[0] > 1.0 - 1e-9);
    }

    #[test]
    fn dd_window_exposes_one_idle_window() {
        let qc = dd_window_circuit(40).unwrap();
        let s = schedule(&qc, &DurationModel::ibm_default(), ScheduleKind::Alap).unwrap();
        let windows = s.idle_windows(2.0 * SLOT_NS);
        let on_q1: Vec<_> = windows.iter().filter(|w| w.qubit == 1).collect();
        assert_eq!(on_q1.len(), 1, "{windows:?}");
        assert!(on_q1[0].duration_ns() >= 39.0 * SLOT_NS);
    }

    #[test]
    #[should_panic(expected = "position")]
    fn bad_position_rejected() {
        let _ = hahn_echo_circuit(10, 1.5);
    }
}
