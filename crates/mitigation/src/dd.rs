//! Dynamical decoupling insertion (paper §III-A, §IV-A).
//!
//! A [`DdSequence`] (XX, YY, XY4, XY8) is inserted into each idle window as
//! `N` repetitions spaced periodically — the paper's "periodic DD
//! distribution" \[10\]. The repetition count per window is the parameter
//! VAQEM tunes variationally: too few repetitions under-correct, too many
//! accumulate gate error (Fig. 5's yellow region), and the optimum is
//! window- and qubit-dependent (Fig. 14).
//!
//! Because every sequence composes to the identity (XY4 to a global phase),
//! insertion never changes circuit semantics — only its interaction with
//! the environment.

use vaqem_circuit::gate::Gate;
use vaqem_circuit::schedule::{IdleWindow, ScheduledCircuit, TimedOp};

/// A dynamical-decoupling base sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DdSequence {
    /// Two X pulses — the basic Hahn-echo pair.
    Xx,
    /// Two Y pulses.
    Yy,
    /// The "universal decoupling" sequence X-Y-X-Y (called XY4 in the
    /// paper; robust to both dephasing and bit-flip noise axes).
    Xy4,
    /// Eight-pulse XY8: XY4 followed by its reverse YXYX.
    Xy8,
}

impl DdSequence {
    /// The pulse gates of one repetition.
    pub fn pulses(self) -> &'static [Gate] {
        match self {
            DdSequence::Xx => &[Gate::X, Gate::X],
            DdSequence::Yy => &[Gate::Y, Gate::Y],
            DdSequence::Xy4 => &[Gate::X, Gate::Y, Gate::X, Gate::Y],
            DdSequence::Xy8 => &[
                Gate::X,
                Gate::Y,
                Gate::X,
                Gate::Y,
                Gate::Y,
                Gate::X,
                Gate::Y,
                Gate::X,
            ],
        }
    }

    /// Pulses per repetition.
    pub fn pulses_per_repetition(self) -> usize {
        self.pulses().len()
    }

    /// Display name matching the paper ("XX", "YY", "XY4", "XY8").
    pub fn name(self) -> &'static str {
        match self {
            DdSequence::Xx => "XX",
            DdSequence::Yy => "YY",
            DdSequence::Xy4 => "XY4",
            DdSequence::Xy8 => "XY8",
        }
    }

    /// Maximum repetitions fitting into `window` with `pulse_ns` pulses.
    pub fn max_repetitions(self, window: &IdleWindow, pulse_ns: f64) -> usize {
        window.max_dd_repetitions(self.pulses_per_repetition(), pulse_ns)
    }
}

/// Spacing strategy for the inserted pulses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DdSpacing {
    /// Pulses centred in equal sub-segments of the window (the paper's
    /// periodic distribution; default).
    #[default]
    Periodic,
    /// Pulses packed back-to-back at the start of the window (ablation
    /// comparison point).
    FrontPacked,
}

/// Builds the timed pulse ops for `repetitions` of `sequence` inside
/// `window`.
///
/// Returns an empty vector for zero repetitions. Pulses never overlap the
/// window edges.
///
/// # Panics
///
/// Panics if the requested repetitions do not fit.
pub fn dd_pulse_ops(
    window: &IdleWindow,
    sequence: DdSequence,
    repetitions: usize,
    pulse_ns: f64,
    spacing: DdSpacing,
) -> Vec<TimedOp> {
    if repetitions == 0 {
        return Vec::new();
    }
    let max = sequence.max_repetitions(window, pulse_ns);
    assert!(
        repetitions <= max,
        "{} repetitions of {} do not fit in a {:.1} ns window (max {})",
        repetitions,
        sequence.name(),
        window.duration_ns(),
        max
    );
    let pulses: Vec<Gate> = sequence
        .pulses()
        .iter()
        .cycle()
        .take(repetitions * sequence.pulses_per_repetition())
        .copied()
        .collect();
    let k = pulses.len();
    let mut ops = Vec::with_capacity(k);
    match spacing {
        DdSpacing::Periodic => {
            let segment = window.duration_ns() / k as f64;
            for (i, g) in pulses.into_iter().enumerate() {
                let centre = window.start_ns + (i as f64 + 0.5) * segment;
                ops.push(TimedOp {
                    gate: g,
                    qubits: vec![window.qubit],
                    start_ns: centre - pulse_ns / 2.0,
                    duration_ns: pulse_ns,
                });
            }
        }
        DdSpacing::FrontPacked => {
            for (i, g) in pulses.into_iter().enumerate() {
                ops.push(TimedOp {
                    gate: g,
                    qubits: vec![window.qubit],
                    start_ns: window.start_ns + i as f64 * pulse_ns,
                    duration_ns: pulse_ns,
                });
            }
        }
    }
    ops
}

/// A DD insertion pass: per-window repetition counts for one sequence type.
#[derive(Debug, Clone, PartialEq)]
pub struct DdPass {
    sequence: DdSequence,
    spacing: DdSpacing,
    pulse_ns: f64,
}

impl DdPass {
    /// Creates a pass for `sequence` with the given pulse duration (the
    /// device's single-qubit slot); windows shorter than one pulse are left
    /// untouched.
    pub fn new(sequence: DdSequence, pulse_ns: f64) -> Self {
        DdPass {
            sequence,
            spacing: DdSpacing::Periodic,
            pulse_ns,
        }
    }

    /// Overrides the spacing strategy.
    pub fn with_spacing(mut self, spacing: DdSpacing) -> Self {
        self.spacing = spacing;
        self
    }

    /// The sequence type.
    pub fn sequence(&self) -> DdSequence {
        self.sequence
    }

    /// Extracts the tunable windows of a scheduled circuit, in canonical
    /// `(qubit, start)` order — the index space for per-window parameters.
    pub fn windows(&self, scheduled: &ScheduledCircuit) -> Vec<IdleWindow> {
        scheduled.idle_windows(self.pulse_ns)
    }

    /// Applies the pass: `repetitions[i]` repetitions in the `i`-th window
    /// (canonical order). Extra entries are ignored; missing entries mean
    /// zero. Counts beyond a window's capacity are clamped to the maximum —
    /// this keeps positional parameter vectors robust across measurement-
    /// basis variants of the same ansatz.
    pub fn apply(&self, scheduled: &ScheduledCircuit, repetitions: &[usize]) -> ScheduledCircuit {
        let windows = self.windows(scheduled);
        let mut ops = scheduled.ops().to_vec();
        for (i, w) in windows.iter().enumerate() {
            let want = repetitions.get(i).copied().unwrap_or(0);
            let reps = want.min(self.sequence.max_repetitions(w, self.pulse_ns));
            ops.extend(dd_pulse_ops(
                w,
                self.sequence,
                reps,
                self.pulse_ns,
                self.spacing,
            ));
        }
        scheduled.with_ops(ops)
    }

    /// Applies the same repetition count to every window.
    pub fn apply_uniform(
        &self,
        scheduled: &ScheduledCircuit,
        repetitions: usize,
    ) -> ScheduledCircuit {
        let n = self.windows(scheduled).len();
        self.apply(scheduled, &vec![repetitions; n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_circuit::circuit::QuantumCircuit;
    use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind};

    const SLOT: f64 = 35.56;

    fn window_circuit(slots: usize) -> ScheduledCircuit {
        // q0 idles `slots` slots between two anchors while q1 works.
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        for _ in 0..slots {
            qc.sx(1).unwrap();
        }
        qc.cx(0, 1).unwrap();
        schedule(&qc, &DurationModel::ibm_default(), ScheduleKind::Alap).unwrap()
    }

    #[test]
    fn sequence_tables() {
        assert_eq!(DdSequence::Xx.pulses_per_repetition(), 2);
        assert_eq!(DdSequence::Xy4.pulses_per_repetition(), 4);
        assert_eq!(DdSequence::Xy8.pulses_per_repetition(), 8);
        assert_eq!(DdSequence::Xy4.name(), "XY4");
    }

    #[test]
    fn sequences_compose_to_identity_up_to_phase() {
        use vaqem_circuit::unitary::{circuit_unitary, equal_up_to_phase};
        for seq in [
            DdSequence::Xx,
            DdSequence::Yy,
            DdSequence::Xy4,
            DdSequence::Xy8,
        ] {
            let mut qc = QuantumCircuit::new(1);
            for g in seq.pulses() {
                qc.push(*g, &[0]).unwrap();
            }
            let u = circuit_unitary(&qc).unwrap();
            let id = vaqem_mathkit::CMatrix::identity(2);
            assert!(
                equal_up_to_phase(&u, &id, 1e-12),
                "{} must be a logical no-op",
                seq.name()
            );
        }
    }

    #[test]
    fn periodic_pulses_fit_inside_window() {
        let s = window_circuit(20);
        let pass = DdPass::new(DdSequence::Xy4, SLOT);
        let windows = pass.windows(&s);
        assert_eq!(windows.len(), 1);
        let w = &windows[0];
        let max = DdSequence::Xy4.max_repetitions(w, SLOT);
        assert!(
            max >= 4,
            "20-slot window should fit several XY4 reps: {max}"
        );
        let ops = dd_pulse_ops(w, DdSequence::Xy4, max, SLOT, DdSpacing::Periodic);
        assert_eq!(ops.len(), max * 4);
        for op in &ops {
            assert!(op.start_ns >= w.start_ns - 1e-9);
            assert!(op.end_ns() <= w.end_ns + 1e-9);
            assert_eq!(op.qubits, vec![w.qubit]);
        }
        // Pulses are ordered and non-overlapping.
        for pair in ops.windows(2) {
            assert!(pair[1].start_ns >= pair[0].end_ns() - 1e-9);
        }
    }

    #[test]
    fn applied_pass_keeps_schedule_valid() {
        let s = window_circuit(16);
        let pass = DdPass::new(DdSequence::Xx, SLOT);
        for reps in 0..=6 {
            let out = pass.apply_uniform(&s, reps);
            out.validate()
                .unwrap_or_else(|e| panic!("reps {reps}: {e}"));
            let extra = out.ops().len() - s.ops().len();
            let max = pass.windows(&s)[0].max_dd_repetitions(2, SLOT);
            assert_eq!(extra, 2 * reps.min(max));
        }
    }

    #[test]
    fn clamping_handles_oversized_requests() {
        let s = window_circuit(8);
        let pass = DdPass::new(DdSequence::Xy8, SLOT);
        let out = pass.apply(&s, &[1000]);
        out.validate().unwrap();
    }

    #[test]
    fn zero_repetitions_is_identity_pass() {
        let s = window_circuit(10);
        let pass = DdPass::new(DdSequence::Xy4, SLOT);
        let out = pass.apply(&s, &[0]);
        assert_eq!(out.ops().len(), s.ops().len());
    }

    #[test]
    fn front_packed_spacing() {
        let s = window_circuit(12);
        let pass = DdPass::new(DdSequence::Xx, SLOT).with_spacing(DdSpacing::FrontPacked);
        let out = pass.apply_uniform(&s, 2);
        out.validate().unwrap();
        let w = pass.windows(&s)[0].clone();
        let inserted: Vec<_> = out
            .ops()
            .iter()
            .filter(|o| o.start_ns >= w.start_ns && o.end_ns() <= w.end_ns + 1e-9)
            .filter(|o| matches!(o.gate, Gate::X))
            .collect();
        assert_eq!(inserted.len(), 4);
        assert!((inserted[0].start_ns - w.start_ns).abs() < 1e-9);
        assert!((inserted[1].start_ns - (w.start_ns + SLOT)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn oversized_direct_insertion_panics() {
        let s = window_circuit(4);
        let pass = DdPass::new(DdSequence::Xy4, SLOT);
        let w = pass.windows(&s)[0].clone();
        let _ = dd_pulse_ops(&w, DdSequence::Xy4, 100, SLOT, DdSpacing::Periodic);
    }
}
