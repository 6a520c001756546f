//! Ablation: periodic vs. front-packed DD pulse spacing.
//!
//! The paper uses periodic spacing throughout and lists spacing as an
//! untuned residual knob (§IX-B). This ablation quantifies the design
//! choice: periodic spacing should beat front-packing, which leaves the
//! tail of the window unprotected.

use vaqem_ansatz::micro::{dd_window_circuit, SLOT_NS};
use vaqem_bench::{alap, casablanca_2q, ideal_counts};
use vaqem_mathkit::rng::SeedStream;
use vaqem_mitigation::dd::{DdPass, DdSequence, DdSpacing};
use vaqem_sim::machine::MachineExecutor;

fn main() {
    let window_slots = if vaqem_bench::quick_mode() { 120 } else { 400 };
    let shots = if vaqem_bench::quick_mode() { 512 } else { 2048 };
    let qc = dd_window_circuit(window_slots).expect("micro-benchmark builds");
    let scheduled = alap(&qc);
    let ideal = ideal_counts(&qc, shots);

    let mut noise = casablanca_2q();
    noise.qubit_mut(0).gate_error_1q = 1.0e-5;
    noise.qubit_mut(1).quasi_static_sigma_rad_ns = 2.5e-4;
    noise.qubit_mut(1).telegraph_rate_per_ns = 1.0e-4;
    let executor = MachineExecutor::new(noise, SeedStream::new(701)).with_shots(shots);

    println!("=== Ablation: DD spacing strategy (XY4) ===\n");
    println!("{:>6}  {:>12}  {:>12}", "reps", "periodic", "front-packed");
    let mut periodic_wins = 0usize;
    let mut rows = 0usize;
    for reps in [1usize, 2, 4, 8, 16] {
        let periodic = DdPass::new(DdSequence::Xy4, SLOT_NS)
            .with_spacing(DdSpacing::Periodic)
            .apply_uniform(&scheduled, reps);
        let packed = DdPass::new(DdSequence::Xy4, SLOT_NS)
            .with_spacing(DdSpacing::FrontPacked)
            .apply_uniform(&scheduled, reps);
        let f_p = executor
            .run_job(&periodic, reps as u64)
            .hellinger_fidelity(&ideal);
        let f_f = executor
            .run_job(&packed, 100 + reps as u64)
            .hellinger_fidelity(&ideal);
        println!("{reps:>6}  {f_p:>12.4}  {f_f:>12.4}");
        if f_p > f_f {
            periodic_wins += 1;
        }
        rows += 1;
    }
    println!("\nperiodic wins {periodic_wins}/{rows} repetition counts");
    println!("(design choice validated when periodic spacing dominates)");
}
