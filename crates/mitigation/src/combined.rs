//! Combined mitigation configuration (the paper's "VAQEM: GS+XY", plus
//! the §IX ZNE extension: "VAQEM: GS+XY+ZNE").
//!
//! [`MitigationConfig`] bundles per-window gate-scheduling positions and DD
//! repetition counts into one applicable object. Gate scheduling is applied
//! first (it moves the window's trailing gate), windows are re-extracted,
//! and DD fills the remaining idle spans — so the two techniques compose
//! without overlapping, mirroring the coordinated tuning of §VIII-A.
//!
//! The optional ZNE stage is different in kind: it is an **execution
//! protocol**, not a schedule transform. [`MitigationConfig::apply`]
//! therefore ignores it; the execution layer (`vaqem`'s
//! `VqeProblem::machine_energy_batch`) reads [`MitigationConfig::zne`],
//! runs the GS/DD-mitigated schedule at each configured noise scale via
//! [`crate::zne::fold_schedule`], and extrapolates the measured
//! expectations to the zero-noise limit.

use crate::dd::{DdPass, DdSequence};
use crate::scheduling::GsPass;
use crate::zne::ZneConfig;
use vaqem_circuit::schedule::{DurationModel, ScheduledCircuit};

/// A complete idle-time mitigation configuration for one circuit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MitigationConfig {
    /// Per-movable-window gate positions in `[0, 1]`; empty = ALAP baseline.
    pub gate_positions: Vec<f64>,
    /// Per-window DD repetition counts; empty = no DD.
    pub dd_repetitions: Vec<usize>,
    /// DD sequence type (used only when `dd_repetitions` is non-empty).
    pub dd_sequence: Option<DdSequence>,
    /// Zero-noise-extrapolation protocol; `None` = no ZNE. Consumed by the
    /// execution layer, not by [`Self::apply`] (see the module docs).
    pub zne: Option<ZneConfig>,
}

impl MitigationConfig {
    /// The untuned baseline: ALAP gates, no DD.
    pub fn baseline() -> Self {
        MitigationConfig::default()
    }

    /// A GS-only configuration.
    pub fn gate_scheduling(positions: Vec<f64>) -> Self {
        MitigationConfig {
            gate_positions: positions,
            ..Default::default()
        }
    }

    /// A DD-only configuration.
    pub fn dynamical_decoupling(sequence: DdSequence, repetitions: Vec<usize>) -> Self {
        MitigationConfig {
            dd_repetitions: repetitions,
            dd_sequence: Some(sequence),
            ..Default::default()
        }
    }

    /// A ZNE-only configuration.
    pub fn zero_noise_extrapolation(zne: ZneConfig) -> Self {
        MitigationConfig {
            zne: Some(zne),
            ..Default::default()
        }
    }

    /// Returns `self` with the ZNE protocol replaced.
    pub fn with_zne(mut self, zne: ZneConfig) -> Self {
        self.zne = Some(zne);
        self
    }

    /// Returns `true` when the configuration changes nothing.
    pub fn is_baseline(&self) -> bool {
        self.gate_positions.is_empty() && self.dd_repetitions.is_empty() && self.zne.is_none()
    }

    /// Applies the configuration to a scheduled circuit under the device's
    /// duration table: its single-qubit slot is both the DD pulse length and
    /// the shortest window either pass touches.
    pub fn apply(
        &self,
        scheduled: &ScheduledCircuit,
        durations: &DurationModel,
    ) -> ScheduledCircuit {
        let pulse = durations.single_qubit_ns();
        let mut current = scheduled.clone();
        if !self.gate_positions.is_empty() {
            current = GsPass::new(pulse).apply(&current, &self.gate_positions);
        }
        if let (Some(seq), false) = (self.dd_sequence, self.dd_repetitions.is_empty()) {
            current = DdPass::new(seq, pulse).apply(&current, &self.dd_repetitions);
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_circuit::circuit::QuantumCircuit;
    use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind};

    fn circuit() -> ScheduledCircuit {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        for _ in 0..20 {
            qc.sx(1).unwrap();
        }
        qc.x(0).unwrap();
        qc.cx(0, 1).unwrap();
        qc.measure_all();
        schedule(&qc, &DurationModel::ibm_default(), ScheduleKind::Alap).unwrap()
    }

    #[test]
    fn baseline_is_identity() {
        let s = circuit();
        let out = MitigationConfig::baseline().apply(&s, &DurationModel::ibm_default());
        assert_eq!(out.ops().len(), s.ops().len());
    }

    #[test]
    fn combined_config_is_valid_schedule() {
        let s = circuit();
        let cfg = MitigationConfig {
            gate_positions: vec![0.5],
            dd_repetitions: vec![2, 2],
            dd_sequence: Some(DdSequence::Xy4),
            ..Default::default()
        };
        let out = cfg.apply(&s, &DurationModel::ibm_default());
        out.validate().unwrap();
        assert!(
            out.ops().len() > s.ops().len(),
            "DD pulses must be inserted"
        );
    }

    #[test]
    fn gs_then_dd_fills_split_windows() {
        // Moving the gate to the middle splits the window in two; DD then
        // fills the sub-windows independently.
        let s = circuit();
        let gs_only =
            MitigationConfig::gate_scheduling(vec![0.5]).apply(&s, &DurationModel::ibm_default());
        let windows_after_gs = gs_only.idle_windows(DurationModel::ibm_default().single_qubit_ns());
        // At least two windows on qubit 0 now (before and after the moved X).
        let q0: Vec<_> = windows_after_gs.iter().filter(|w| w.qubit == 0).collect();
        assert!(q0.len() >= 2, "{q0:?}");
        let cfg = MitigationConfig {
            gate_positions: vec![0.5],
            dd_repetitions: vec![1; windows_after_gs.len()],
            dd_sequence: Some(DdSequence::Xx),
            ..Default::default()
        };
        let out = cfg.apply(&s, &DurationModel::ibm_default());
        out.validate().unwrap();
    }

    #[test]
    fn constructors() {
        assert!(MitigationConfig::baseline().is_baseline());
        assert!(!MitigationConfig::gate_scheduling(vec![0.3]).is_baseline());
        let dd = MitigationConfig::dynamical_decoupling(DdSequence::Xx, vec![1]);
        assert_eq!(dd.dd_sequence, Some(DdSequence::Xx));
        assert!(!dd.is_baseline());
        let zne = MitigationConfig::zero_noise_extrapolation(ZneConfig::standard());
        assert!(!zne.is_baseline(), "ZNE alone is not the baseline");
        let composed = dd.with_zne(ZneConfig::standard());
        assert_eq!(composed.zne, Some(ZneConfig::standard()));
    }

    #[test]
    fn apply_ignores_zne() {
        // ZNE is an execution protocol: the schedule transform is
        // untouched by it (the execution layer folds separately).
        let s = circuit();
        let cfg = MitigationConfig::zero_noise_extrapolation(ZneConfig::standard());
        let out = cfg.apply(&s, &DurationModel::ibm_default());
        assert_eq!(out.ops().len(), s.ops().len());
    }
}
