//! Reference implementations preserved from the pre-optimization simulator.
//!
//! These are the original full-index-space gate loops, the per-shot linear
//! sampling scan, and the independently-rounded exact-counts path, kept
//! verbatim for two jobs:
//!
//! 1. **Parity oracle** — `tests/sim_kernel_props.rs` and the unit tests in
//!    [`crate::statevector`] check the optimized kernels against these on
//!    random states and circuits (bit-identical for the kernels, bounded by
//!    `1e-12` where fusion legitimately reassociates floating point).
//! 2. **Honest benchmarking** — `bench_simulators` times the optimized and
//!    naive paths side by side, so the committed `BENCH_simulators.json`
//!    speedups are measured against real code, not a strawman.
//!
//! The one departure from the original code: the trajectory executor's
//! detuning phase and quasi-static normal call the `vaqem_mathkit::lanemath`
//! functions the fast path calls, so the two share one definition of each.
//!
//! Nothing in the production paths calls into this module.

use crate::channels::KrausChannel;
use crate::counts::Counts;
use crate::density::DensityMatrix;
use crate::statevector::StateVector;
use rand::Rng;
use vaqem_circuit::circuit::QuantumCircuit;
use vaqem_circuit::error::CircuitError;
use vaqem_circuit::gate::Gate;
use vaqem_circuit::schedule::ScheduledCircuit;
use vaqem_circuit::unitary::{embed_single, embed_two};
use vaqem_device::noise::NoiseParameters;
use vaqem_mathkit::complex::Complex64;
use vaqem_mathkit::lanemath;
use vaqem_mathkit::matrix::CMatrix;

/// Original single-qubit gate loop: visits all `2^n` indices and
/// branch-skips the half where `q` is set.
pub fn apply_single(sv: &mut StateVector, u: &CMatrix, q: usize) {
    assert!(q < sv.num_qubits(), "qubit out of range");
    assert_eq!(u.rows(), 2, "expected 2x2");
    let bit = 1usize << q;
    let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
    let amps = sv.amps_mut();
    for base in 0..amps.len() {
        if base & bit != 0 {
            continue;
        }
        let i0 = base;
        let i1 = base | bit;
        let a0 = amps[i0];
        let a1 = amps[i1];
        amps[i0] = u00 * a0 + u01 * a1;
        amps[i1] = u10 * a0 + u11 * a1;
    }
}

/// Original two-qubit gate loop: visits all `2^n` indices, branch-skips
/// three quarters of them, and collects each amplitude group into a
/// freshly-allocated `Vec`.
pub fn apply_two(sv: &mut StateVector, u: &CMatrix, q_hi: usize, q_lo: usize) {
    assert!(
        q_hi < sv.num_qubits() && q_lo < sv.num_qubits(),
        "qubit out of range"
    );
    assert_ne!(q_hi, q_lo, "distinct qubits required");
    assert_eq!(u.rows(), 4, "expected 4x4");
    let (bh, bl) = (1usize << q_hi, 1usize << q_lo);
    let amps = sv.amps_mut();
    for base in 0..amps.len() {
        if base & bh != 0 || base & bl != 0 {
            continue;
        }
        let idx = [base, base | bl, base | bh, base | bh | bl];
        let a: Vec<Complex64> = idx.iter().map(|&i| amps[i]).collect();
        for (r, &i) in idx.iter().enumerate() {
            let mut acc = Complex64::ZERO;
            for c in 0..4 {
                acc += u[(r, c)] * a[c];
            }
            amps[i] = acc;
        }
    }
}

/// Original gate dispatch: fetches the unitary from the gate every time.
///
/// # Errors
///
/// Returns [`CircuitError::UnboundParameter`] for symbolic gates.
pub fn apply_gate(sv: &mut StateVector, gate: &Gate, qubits: &[usize]) -> Result<(), CircuitError> {
    match gate {
        Gate::Barrier | Gate::Delay { .. } | Gate::I => Ok(()),
        Gate::Measure => panic!("apply_gate cannot measure; sample the state instead"),
        g => {
            let u = g.unitary()?;
            match qubits.len() {
                1 => apply_single(sv, &u, qubits[0]),
                2 => apply_two(sv, &u, qubits[0], qubits[1]),
                k => panic!("unsupported arity {k}"),
            }
            Ok(())
        }
    }
}

/// Original unfused circuit execution: one unitary fetch and one full
/// state sweep per instruction.
///
/// # Errors
///
/// Returns [`CircuitError::UnboundParameter`] for symbolic circuits.
pub fn run(circuit: &QuantumCircuit) -> Result<StateVector, CircuitError> {
    let mut sv = StateVector::zero_state(circuit.num_qubits());
    for inst in circuit.instructions() {
        if matches!(inst.gate, Gate::Measure) {
            continue;
        }
        apply_gate(&mut sv, &inst.gate, &inst.qubits)?;
    }
    Ok(sv)
}

/// Original per-shot sampler: a linear scan over all `2^n` probabilities.
pub fn sample_index<R: Rng + ?Sized>(sv: &StateVector, rng: &mut R) -> usize {
    let r: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, a) in sv.amplitudes().iter().enumerate() {
        acc += a.norm_sqr();
        if r < acc {
            return i;
        }
    }
    sv.amplitudes().len() - 1
}

/// Original shot loop: an `O(2^n)` scan per shot, each outcome recorded
/// into the histogram on its own.
pub fn sample_counts<R: Rng + ?Sized>(sv: &StateVector, rng: &mut R, shots: u64) -> Counts {
    let mut counts = Counts::new(sv.num_qubits());
    for _ in 0..shots {
        counts.record_index(sample_index(sv, rng));
    }
    counts
}

/// Original exact counts: each probability rounded independently, so the
/// totals can drift away from `shots` (the defect
/// [`StateVector::exact_counts`] now fixes with largest-remainder
/// apportionment).
pub fn exact_counts_rounded(sv: &StateVector, shots: u64) -> Counts {
    let mut counts = Counts::new(sv.num_qubits());
    for (i, a) in sv.amplitudes().iter().enumerate() {
        let c = (a.norm_sqr() * shots as f64).round() as u64;
        if c > 0 {
            counts.record_index_n(i, c);
        }
    }
    counts
}

/// Original conditional-phase loop: full `2^n` sweep with a branch per
/// index.
fn phase_if_one(sv: &mut StateVector, phase: Complex64, q: usize) {
    let bit = 1usize << q;
    for (i, a) in sv.amps_mut().iter_mut().enumerate() {
        if i & bit != 0 {
            *a *= phase;
        }
    }
}

/// Original trajectory executor: per-shot allocation of the statevector and
/// environment buffers, per-gate unitary fetches, clone-based MCWF damping.
/// Identical RNG consumption to the compiled executor in
/// [`crate::machine`], which the parity tests exploit.
///
/// # Panics
///
/// Panics if `scheduled` references qubits beyond the noise description.
pub fn machine_run_job_with_shots(
    noise: &vaqem_device::noise::NoiseParameters,
    seeds: &vaqem_mathkit::SeedStream,
    scheduled: &vaqem_circuit::schedule::ScheduledCircuit,
    shots: u64,
    job_index: u64,
) -> Counts {
    let n = scheduled.num_qubits();
    assert!(
        noise.num_qubits() >= n,
        "noise parameters must cover the register"
    );
    let mut counts = Counts::new(n);
    for shot in 0..shots {
        let mut rng = seeds.rng_indexed(
            "machine-trajectory",
            job_index.wrapping_mul(1_000_003) ^ shot,
        );
        let outcome = machine_run_trajectory(noise, scheduled, &mut rng);
        counts.record_index(outcome);
    }
    counts
}

fn machine_run_trajectory(
    noise: &vaqem_device::noise::NoiseParameters,
    scheduled: &vaqem_circuit::schedule::ScheduledCircuit,
    rng: &mut rand::rngs::StdRng,
) -> usize {
    use vaqem_mathkit::rng::sample_standard_normal;
    let n = scheduled.num_qubits();
    let mut sv = StateVector::zero_state(n);

    // Per-trajectory quasi-static environment.
    let mut detuning = vec![0.0f64; n];
    let mut telegraph_sign = vec![1.0f64; n];
    for q in 0..n {
        let qn = noise.qubit(q);
        detuning[q] = qn.quasi_static_sigma_rad_ns * sample_standard_normal(rng);
        if rng.gen::<bool>() {
            telegraph_sign[q] = -1.0;
        }
    }
    let zz: Vec<((usize, usize), f64)> = noise
        .zz_couplings()
        .filter(|((a, b), _)| *a < n && *b < n)
        .collect();

    let mut now = 0.0f64;
    let mut started = vec![false; n]; // decoherence begins at first op
    for op in scheduled.ops() {
        if matches!(op.gate, Gate::Barrier) {
            continue;
        }
        let dt = op.start_ns - now;
        if dt > 1e-9 {
            machine_free_evolution(
                noise,
                &mut sv,
                dt,
                &detuning,
                &mut telegraph_sign,
                &started,
                &zz,
                rng,
            );
            now = op.start_ns;
        }
        match op.gate {
            Gate::Measure | Gate::Delay { .. } | Gate::I => {}
            ref g => {
                apply_gate(&mut sv, g, &op.qubits).expect("scheduled circuits are concrete");
                machine_apply_gate_error(noise, &mut sv, &op.qubits, rng);
            }
        }
        for &q in &op.qubits {
            started[q] = true;
        }
    }
    // Trailing free evolution up to the makespan.
    let tail = scheduled.total_ns() - now;
    if tail > 1e-9 {
        machine_free_evolution(
            noise,
            &mut sv,
            tail,
            &detuning,
            &mut telegraph_sign,
            &started,
            &zz,
            rng,
        );
    }

    // Sample the outcome and apply readout flips.
    let mut index = sample_index(&sv, rng);
    for q in 0..n {
        let qn = noise.qubit(q);
        let bit = 1usize << q;
        let is_one = index & bit != 0;
        let flip_p = if is_one {
            qn.readout_p10
        } else {
            qn.readout_p01
        };
        if rng.gen::<f64>() < flip_p {
            index ^= bit;
        }
    }
    index
}

#[allow(clippy::too_many_arguments)]
fn machine_free_evolution(
    noise: &vaqem_device::noise::NoiseParameters,
    sv: &mut StateVector,
    dt: f64,
    detuning: &[f64],
    telegraph_sign: &mut [f64],
    started: &[bool],
    zz: &[((usize, usize), f64)],
    rng: &mut rand::rngs::StdRng,
) {
    let n = sv.num_qubits();
    for q in 0..n {
        if !started[q] {
            continue;
        }
        let qn = noise.qubit(q);

        if detuning[q] != 0.0 {
            let mut remaining = dt;
            let mut signed_time = 0.0;
            if qn.telegraph_rate_per_ns > 0.0 {
                loop {
                    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    let next_flip = -u.ln() / qn.telegraph_rate_per_ns;
                    if next_flip >= remaining {
                        signed_time += telegraph_sign[q] * remaining;
                        break;
                    }
                    signed_time += telegraph_sign[q] * next_flip;
                    telegraph_sign[q] = -telegraph_sign[q];
                    remaining -= next_flip;
                }
            } else {
                signed_time = telegraph_sign[q] * dt;
            }
            let (sin, cos) = lanemath::sin_cos(detuning[q] * signed_time);
            phase_if_one(sv, Complex64::new(cos, sin), q);
        }

        if qn.t1_ns.is_finite() {
            let gamma = 1.0 - (-dt / qn.t1_ns).exp();
            machine_amplitude_damping_mcwf(sv, q, gamma, rng);
        }

        let rate = qn.pure_dephasing_rate();
        if rate > 0.0 {
            let p = 0.5 * (1.0 - (-dt * rate).exp());
            if rng.gen::<f64>() < p {
                phase_if_one(sv, Complex64::cis(std::f64::consts::PI), q);
            }
        }
    }
    for &((a, b), zeta) in zz {
        if started[a] && started[b] {
            sv.apply_zz(zeta * dt, a, b);
        }
    }
}

fn machine_apply_gate_error(
    noise: &vaqem_device::noise::NoiseParameters,
    sv: &mut StateVector,
    qubits: &[usize],
    rng: &mut rand::rngs::StdRng,
) {
    match qubits.len() {
        1 => {
            let p = noise.qubit(qubits[0]).gate_error_1q;
            if p > 0.0 && rng.gen::<f64>() < p {
                machine_apply_pauli(sv, qubits[0], rng.gen_range(1..4u8));
            }
        }
        2 => {
            let p = noise.cx_error(qubits[0], qubits[1]);
            if p > 0.0 && rng.gen::<f64>() < p {
                loop {
                    let (a, b) = (rng.gen_range(0..4u8), rng.gen_range(0..4u8));
                    if a == 0 && b == 0 {
                        continue;
                    }
                    if a != 0 {
                        machine_apply_pauli(sv, qubits[0], a);
                    }
                    if b != 0 {
                        machine_apply_pauli(sv, qubits[1], b);
                    }
                    break;
                }
            }
        }
        _ => {}
    }
}

fn machine_apply_pauli(sv: &mut StateVector, q: usize, which: u8) {
    let g = match which {
        1 => Gate::X,
        2 => Gate::Y,
        _ => Gate::Z,
    };
    apply_gate(sv, &g, &[q]).expect("paulis are concrete");
}

fn machine_amplitude_damping_mcwf(
    sv: &mut StateVector,
    q: usize,
    gamma: f64,
    rng: &mut rand::rngs::StdRng,
) {
    if gamma <= 0.0 {
        return;
    }
    let bit = 1usize << q;
    let p1: f64 = sv
        .amplitudes()
        .iter()
        .enumerate()
        .filter(|(i, _)| i & bit != 0)
        .map(|(_, a)| a.norm_sqr())
        .sum();
    let p_jump = gamma * p1;
    // Copy amplitudes out, transform, and write back through a fresh vector.
    let mut amps = sv.amplitudes().to_vec();
    if rng.gen::<f64>() < p_jump {
        // Jump: |...1...> -> |...0...>.
        let mut next = vec![Complex64::ZERO; amps.len()];
        for (i, a) in amps.iter().enumerate() {
            if i & bit != 0 {
                next[i & !bit] = *a;
            }
        }
        amps = next;
    } else {
        // No jump: damp the |1> branch.
        let damp = (1.0 - gamma).sqrt();
        for (i, a) in amps.iter_mut().enumerate() {
            if i & bit != 0 {
                *a *= damp;
            }
        }
    }
    let mut next = StateVector::from_amplitudes(amps);
    next.normalize();
    *sv = next;
}

// ---------------------------------------------------------------------------
// Density-matrix engine: the original embed-and-multiply paths.
//
// Every operator was embedded into the full 2^n-dimensional space and
// applied with dense matrix products — O(8^n) per gate versus the O(4^n)
// sub-block sweeps in `crate::kernels`.
// ---------------------------------------------------------------------------

/// Original single-qubit unitary: embed to `2^n` and conjugate.
pub fn density_apply_unitary_single(dm: &mut DensityMatrix, u: &CMatrix, q: usize) {
    let full = embed_single(u, q, dm.num_qubits());
    *dm = DensityMatrix::from_matrix(dm.matrix().conjugate_by(&full));
}

/// Original two-qubit unitary: embed to `2^n` and conjugate.
pub fn density_apply_unitary_two(dm: &mut DensityMatrix, u: &CMatrix, q_hi: usize, q_lo: usize) {
    let full = embed_two(u, q_hi, q_lo, dm.num_qubits());
    *dm = DensityMatrix::from_matrix(dm.matrix().conjugate_by(&full));
}

/// Original Kraus application: one embedded conjugation per operator.
pub fn density_apply_channel(dm: &mut DensityMatrix, channel: &KrausChannel, q: usize) {
    let dim = dm.matrix().rows();
    let mut out = CMatrix::zeros(dim, dim);
    for k in channel.ops() {
        let full = embed_single(k, q, dm.num_qubits());
        out = &out + &dm.matrix().conjugate_by(&full);
    }
    *dm = DensityMatrix::from_matrix(out);
}

/// Original two-qubit depolarizing: explicit sum over the 15 embedded
/// Pauli pairs.
pub fn density_apply_two_qubit_depolarizing(dm: &mut DensityMatrix, p: f64, a: usize, b: usize) {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    if p == 0.0 {
        return;
    }
    let paulis = [
        CMatrix::identity(2),
        Gate::X.unitary().expect("const"),
        Gate::Y.unitary().expect("const"),
        Gate::Z.unitary().expect("const"),
    ];
    let n = dm.num_qubits();
    let dim = dm.matrix().rows();
    let mut sum = CMatrix::zeros(dim, dim);
    for (i, pa) in paulis.iter().enumerate() {
        for (j, pb) in paulis.iter().enumerate() {
            if i == 0 && j == 0 {
                continue;
            }
            let full = &embed_single(pa, a, n) * &embed_single(pb, b, n);
            sum = &sum + &dm.matrix().conjugate_by(&full);
        }
    }
    let next = &dm.matrix().scale(vaqem_mathkit::c64(1.0 - p, 0.0))
        + &sum.scale(vaqem_mathkit::c64(p / 15.0, 0.0));
    *dm = DensityMatrix::from_matrix(next);
}

/// Original Markovian engine: the same schedule walk as
/// [`crate::density::run_markovian`] driving the embed-based applies above.
pub fn density_run_markovian(
    scheduled: &ScheduledCircuit,
    noise: &NoiseParameters,
) -> DensityMatrix {
    let n = scheduled.num_qubits();
    assert!(
        noise.num_qubits() >= n,
        "noise parameters must cover the register"
    );
    let mut dm = DensityMatrix::zero_state(n);
    let mut last_end = vec![0.0f64; n];
    for op in scheduled.ops() {
        if op.gate == Gate::Barrier {
            continue;
        }
        for &q in &op.qubits {
            let gap = op.start_ns - last_end[q];
            if gap > 1e-9 {
                density_apply_idle(&mut dm, noise, q, gap);
            }
        }
        let is_idle_like = matches!(op.gate, Gate::Measure | Gate::Delay { .. } | Gate::I);
        match op.gate {
            Gate::Measure | Gate::Delay { .. } | Gate::I => {}
            ref g => {
                let u = g.unitary().expect("scheduled circuits are concrete");
                match op.qubits.len() {
                    1 => {
                        density_apply_unitary_single(&mut dm, &u, op.qubits[0]);
                        let p = noise.qubit(op.qubits[0]).gate_error_1q;
                        if p > 0.0 {
                            density_apply_channel(
                                &mut dm,
                                &KrausChannel::depolarizing(p),
                                op.qubits[0],
                            );
                        }
                    }
                    2 => {
                        density_apply_unitary_two(&mut dm, &u, op.qubits[0], op.qubits[1]);
                        let p = noise.cx_error(op.qubits[0], op.qubits[1]);
                        if p > 0.0 {
                            density_apply_two_qubit_depolarizing(
                                &mut dm,
                                p,
                                op.qubits[0],
                                op.qubits[1],
                            );
                        }
                    }
                    k => panic!("unsupported arity {k}"),
                }
                for &q in &op.qubits {
                    if op.duration_ns > 0.0 {
                        density_apply_idle(&mut dm, noise, q, op.duration_ns);
                    }
                }
            }
        }
        if !is_idle_like {
            for &q in &op.qubits {
                last_end[q] = last_end[q].max(op.end_ns());
            }
        }
    }
    dm
}

fn density_apply_idle(dm: &mut DensityMatrix, noise: &NoiseParameters, q: usize, dt_ns: f64) {
    let qn = noise.qubit(q);
    if qn.t1_ns.is_finite() {
        let gamma = 1.0 - (-dt_ns / qn.t1_ns).exp();
        density_apply_channel(dm, &KrausChannel::amplitude_damping(gamma), q);
    }
    let rate = qn.pure_dephasing_rate();
    if rate > 0.0 {
        let lambda = 1.0 - (-dt_ns * rate).exp();
        density_apply_channel(dm, &KrausChannel::phase_damping(lambda), q);
    }
}

/// Original exact readout counts: independent per-outcome rounding, which
/// can drift away from `shots` in total.
pub fn density_counts_with_readout(
    dm: &DensityMatrix,
    noise: &NoiseParameters,
    shots: u64,
) -> Counts {
    let p = dm.readout_probabilities(noise);
    let mut counts = Counts::new(dm.num_qubits());
    for (i, &pi) in p.iter().enumerate() {
        let c = (pi * shots as f64).round() as u64;
        if c > 0 {
            counts.record_index_n(i, c);
        }
    }
    counts
}

/// Original shot sampling under readout error: an O(2^n) linear scan of the
/// distribution per shot.
pub fn density_sample_counts_with_readout<R: Rng + ?Sized>(
    dm: &DensityMatrix,
    noise: &NoiseParameters,
    shots: u64,
    rng: &mut R,
) -> Counts {
    let p = dm.readout_probabilities(noise);
    let mut counts = Counts::new(dm.num_qubits());
    for _ in 0..shots {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        let mut picked = p.len() - 1;
        for (i, &pi) in p.iter().enumerate() {
            acc += pi;
            if r < acc {
                picked = i;
                break;
            }
        }
        counts.record_index(picked);
    }
    counts
}
