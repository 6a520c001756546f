//! Fig. 5: circuit fidelity vs. number of XY4 DD sequences in one idle
//! window.
//!
//! Reproduces the paper's observation that DD repetition count has a
//! non-monotonic effect: some counts beat the no-DD reference (blue
//! region), others fall below it (yellow region, gate-error accumulation),
//! and the optima are interior — motivating variational selection.

use vaqem_ansatz::micro::{dd_window_circuit, SLOT_NS};
use vaqem_bench::{alap, casablanca_2q, ideal_counts};
use vaqem_mathkit::rng::SeedStream;
use vaqem_mitigation::dd::{DdPass, DdSequence};
use vaqem_sim::machine::MachineExecutor;

fn main() {
    let window_slots = if vaqem_bench::quick_mode() { 120 } else { 400 };
    let shots = if vaqem_bench::quick_mode() { 512 } else { 2048 };
    let qc = dd_window_circuit(window_slots).expect("micro-benchmark builds");
    let scheduled = alap(&qc);
    let ideal = ideal_counts(&qc, shots);

    // Shape the environment so the *window* physics dominates, as in the
    // paper's micro-benchmark: the busy partner qubit is clean (its long
    // gate chain would otherwise swamp the window effect), the idling qubit
    // sees strong low-frequency dephasing with telegraph switching (so more
    // DD repetitions track the noise better), and each DD pulse carries a
    // visible error cost (so over-filling the window hurts — the yellow
    // region).
    let mut noise = casablanca_2q();
    noise.qubit_mut(0).gate_error_1q = 1.0e-5;
    noise.qubit_mut(0).quasi_static_sigma_rad_ns = 2.0e-5;
    noise.qubit_mut(1).quasi_static_sigma_rad_ns = 2.5e-4;
    noise.qubit_mut(1).telegraph_rate_per_ns = 1.5e-4;
    noise.qubit_mut(1).gate_error_1q = 2.5e-3;
    for q in 0..2 {
        noise.qubit_mut(q).readout_p01 = 0.005;
        noise.qubit_mut(q).readout_p10 = 0.01;
    }
    let executor = MachineExecutor::new(noise, SeedStream::new(505)).with_shots(shots);

    let pass = DdPass::new(DdSequence::Xy4, SLOT_NS);
    let windows = pass.windows(&scheduled);
    let max = windows
        .iter()
        .map(|w| DdSequence::Xy4.max_repetitions(w, SLOT_NS))
        .max()
        .unwrap_or(0);

    let reference = executor.run_job(&scheduled, 0).hellinger_fidelity(&ideal);
    println!("=== Fig. 5: fidelity vs number of XY4 DD sequences ===");
    println!(
        "window: {window_slots} slots ({:.2} us), max repetitions {max}",
        window_slots as f64 * SLOT_NS / 1000.0
    );
    println!("no-DD reference fidelity (red line): {reference:.4}\n");
    println!("{:>6}  {:>10}  {:>8}", "reps", "fidelity", "region");

    let mut best = (0usize, reference);
    for reps in 0..=max {
        let mitigated = pass.apply_uniform(&scheduled, reps);
        let fidelity = executor
            .run_job(&mitigated, 1 + reps as u64)
            .hellinger_fidelity(&ideal);
        let region = if fidelity >= reference {
            "blue"
        } else {
            "yellow"
        };
        println!("{reps:>6}  {fidelity:>10.4}  {region:>8}");
        if fidelity > best.1 {
            best = (reps, fidelity);
        }
    }
    println!(
        "\npeak: {} repetitions -> fidelity {:.4} ({:+.4} vs no-DD)",
        best.0,
        best.1,
        best.1 - reference
    );
}
