//! Single-qubit gate-scheduling mitigation (paper §III-B, §IV-B).
//!
//! Under the ALAP baseline, a single-qubit gate adjacent to an idle window
//! sits at the window's end. [`GsPass`] repositions such gates within their
//! windows by a per-window *position fraction*: `0.0` = as soon as possible
//! (window start), `1.0` = as late as possible (the ALAP baseline). The
//! fraction is the parameter VAQEM tunes; the paper's Fig. 6 shows the
//! optimum typically near the centre, where the moved gate acts as a Hahn
//! echo.

use vaqem_circuit::schedule::{IdleWindow, ScheduledCircuit};

/// A gate-scheduling pass: per-window position fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct GsPass {
    pulse_ns: f64,
}

impl GsPass {
    /// Creates the pass for a device whose single-qubit slot is `pulse_ns`;
    /// windows shorter than one slot are ignored.
    pub fn new(pulse_ns: f64) -> Self {
        GsPass { pulse_ns }
    }

    /// The tunable windows: idle windows whose following op is a movable
    /// single-qubit gate, in canonical `(qubit, start)` order.
    pub fn movable_windows(&self, scheduled: &ScheduledCircuit) -> Vec<IdleWindow> {
        scheduled
            .idle_windows(self.pulse_ns)
            .into_iter()
            .filter(|w| w.next_op_movable)
            .collect()
    }

    /// Applies the pass: `positions[i]` in `[0, 1]` places the movable gate
    /// of the `i`-th window. Missing entries keep the ALAP position (1.0);
    /// extra entries are ignored; out-of-range values are clamped.
    pub fn apply(&self, scheduled: &ScheduledCircuit, positions: &[f64]) -> ScheduledCircuit {
        let windows = self.movable_windows(scheduled);
        let mut ops = scheduled.ops().to_vec();
        for (i, w) in windows.iter().enumerate() {
            let f = positions.get(i).copied().unwrap_or(1.0).clamp(0.0, 1.0);
            let op = &mut ops[w.next_op];
            debug_assert_eq!(op.qubits, vec![w.qubit]);
            // Slide range: the gate may start anywhere in
            // [window.start, window.end] keeping its duration; f = 1 is the
            // original ALAP placement (start at window end).
            let slack = w.duration_ns();
            op.start_ns = w.start_ns + f * slack;
        }
        scheduled.with_ops(ops)
    }

    /// Applies one common fraction to every movable window.
    pub fn apply_uniform(&self, scheduled: &ScheduledCircuit, position: f64) -> ScheduledCircuit {
        let n = self.movable_windows(scheduled).len();
        self.apply(scheduled, &vec![position; n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_circuit::circuit::QuantumCircuit;
    use vaqem_circuit::gate::Gate;
    use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind};

    const SLOT: f64 = 35.56;

    fn movable_circuit(slots: usize) -> ScheduledCircuit {
        // q0: anchor CX, idle window, X, CX — the X is movable.
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        for _ in 0..slots {
            qc.sx(1).unwrap();
        }
        qc.x(0).unwrap();
        qc.cx(0, 1).unwrap();
        schedule(&qc, &DurationModel::ibm_default(), ScheduleKind::Alap).unwrap()
    }

    #[test]
    fn finds_movable_window() {
        let s = movable_circuit(12);
        let pass = GsPass::new(SLOT);
        let ws = pass.movable_windows(&s);
        assert_eq!(ws.len(), 1);
        assert!(ws[0].next_op_movable);
        assert_eq!(ws[0].qubit, 0);
    }

    #[test]
    fn position_one_is_identity() {
        let s = movable_circuit(12);
        let pass = GsPass::new(SLOT);
        let out = pass.apply_uniform(&s, 1.0);
        // Same op start times (order may be stable too).
        let orig_x = s.ops().iter().find(|o| o.gate == Gate::X).unwrap();
        let new_x = out.ops().iter().find(|o| o.gate == Gate::X).unwrap();
        assert!((orig_x.start_ns - new_x.start_ns).abs() < 1e-9);
    }

    #[test]
    fn position_zero_moves_gate_to_window_start() {
        let s = movable_circuit(12);
        let pass = GsPass::new(SLOT);
        let w = pass.movable_windows(&s)[0].clone();
        let out = pass.apply_uniform(&s, 0.0);
        out.validate().unwrap();
        let x = out.ops().iter().find(|o| o.gate == Gate::X).unwrap();
        assert!((x.start_ns - w.start_ns).abs() < 1e-9);
    }

    #[test]
    fn interior_positions_are_valid_schedules() {
        let s = movable_circuit(20);
        let pass = GsPass::new(SLOT);
        for f in [0.1, 0.25, 0.5, 0.77, 0.9] {
            let out = pass.apply_uniform(&s, f);
            out.validate().unwrap_or_else(|e| panic!("f = {f}: {e}"));
        }
    }

    #[test]
    fn semantics_preserved_gate_set_unchanged() {
        let s = movable_circuit(10);
        let pass = GsPass::new(SLOT);
        let out = pass.apply_uniform(&s, 0.4);
        assert_eq!(out.ops().len(), s.ops().len());
        // Same multiset of gates.
        let mut a: Vec<&'static str> = s.ops().iter().map(|o| o.gate.name()).collect();
        let mut b: Vec<&'static str> = out.ops().iter().map(|o| o.gate.name()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_positions_clamped() {
        let s = movable_circuit(10);
        let pass = GsPass::new(SLOT);
        let out = pass.apply(&s, &[7.5]);
        out.validate().unwrap();
        let out = pass.apply(&s, &[-3.0]);
        out.validate().unwrap();
    }

    #[test]
    fn two_qubit_followers_are_not_movable() {
        // Window followed directly by a CX: no movable windows.
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        for _ in 0..8 {
            qc.sx(1).unwrap();
        }
        qc.cx(0, 1).unwrap();
        let s = schedule(&qc, &DurationModel::ibm_default(), ScheduleKind::Alap).unwrap();
        let pass = GsPass::new(SLOT);
        assert!(pass.movable_windows(&s).is_empty());
    }
}
