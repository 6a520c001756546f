//! Cache-friendly amplitude kernels for the statevector and density
//! engines.
//!
//! The original gate-application loops visited all `2^n` indices and
//! branch-skipped the half (or three quarters) that are not the canonical
//! member of their amplitude group. The kernels here iterate the half /
//! quarter index space *directly*: for a single-qubit gate on qubit `q`
//! the state decomposes into contiguous blocks of `2^(q+1)` amplitudes
//! whose lower and upper halves form the `(|0>, |1>)` pairs, so the sweep
//! is two forward streams with unit stride — no wasted index tests, no
//! bounds-checked random access, and the unpacked gate coefficients
//! ([`M2`]/[`M4`]) stay in registers for the whole sweep.
//!
//! Every kernel performs the *same arithmetic on the same amplitudes in
//! the same order* as the original loops, so results are bit-identical —
//! the property `tests/sim_kernel_props.rs` pins against the preserved
//! naive implementations in [`crate::naive`]. The trajectory engine's
//! sweeps are methods of its lane-major state (`sim/lanes.rs`), whose gate
//! sweeps evaluate [`apply_m2`]'s and [`apply_m4`]'s expressions lane by
//! lane.
//!
//! Every sweep runs on the calling thread. Parallelism lives across jobs
//! and shot ranges (the core executor's batch fan-out), not inside one
//! state: no workload simulates more than 10 qubits, far below the size
//! where splitting a sweep over threads pays for starting them.

use vaqem_mathkit::complex::Complex64;
use vaqem_mathkit::smallmat::{M2, M4};

/// Applies a 2x2 matrix to the `(|0>, |1>)` pairs selected by `bit`: a
/// sweep over the half index space.
pub fn apply_m2(amps: &mut [Complex64], bit: usize, u: &M2) {
    let [u00, u01, u10, u11] = u.m;
    let stride = bit << 1;
    let mut base = 0;
    while base < amps.len() {
        let (lo, hi) = amps[base..base + stride].split_at_mut(bit);
        for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
            let x0 = *a0;
            let x1 = *a1;
            *a0 = u00 * x0 + u01 * x1;
            *a1 = u10 * x0 + u11 * x1;
        }
        base += stride;
    }
}

/// Applies a 4x4 matrix to the quadruples selected by `(bit_hi, bit_lo)`
/// (gate-space meaning: `bit_hi` is the more significant gate operand): a
/// sweep over the quarter index space.
pub fn apply_m4(amps: &mut [Complex64], bit_hi: usize, bit_lo: usize, u: &M4) {
    let small = bit_hi.min(bit_lo);
    let big = bit_hi.max(bit_lo);
    let groups = amps.len() >> 2;
    for g in 0..groups {
        // Deposit a zero at the small bit position, then at the big one:
        // enumerates bases with both bits clear in ascending order.
        let x = g & (small - 1) | ((g & !(small - 1)) << 1);
        let base = x & (big - 1) | ((x & !(big - 1)) << 1);
        let i0 = base;
        let i1 = base | bit_lo;
        let i2 = base | bit_hi;
        let i3 = base | bit_hi | bit_lo;
        let a = [amps[i0], amps[i1], amps[i2], amps[i3]];
        let idx = [i0, i1, i2, i3];
        for (r, &i) in idx.iter().enumerate() {
            let mut acc = Complex64::ZERO;
            for (c, &ac) in a.iter().enumerate() {
                acc += u.m[r * 4 + c] * ac;
            }
            amps[i] = acc;
        }
    }
}

/// Deposits a zero at `bit`: maps `g` (an index over the space with `bit`
/// removed) to the corresponding full-space index with `bit` clear,
/// ascending in `g`.
#[inline]
fn deposit_zero(g: usize, bit: usize) -> usize {
    (g & (bit - 1)) | ((g & !(bit - 1)) << 1)
}

// ---------------------------------------------------------------------------
// Density-matrix sweeps.
//
// The density engine's original applies embedded every operator to the full
// `2^n`-dimensional space and multiplied dense matrices: O(8^n) per gate.
// A k-qubit operator only couples rows (and, independently, columns) that
// differ in its operand bits, so `U rho U†` decomposes into independent
// 2x2 (or 4x4) sub-block transforms over the (row-group, col-group) grid —
// O(4^n) with the operator coefficients in registers.
// ---------------------------------------------------------------------------

/// Density-matrix sweep `rho -> sum_k K rho K†` for 2x2 Kraus operators on
/// the qubit selected by `bit`. `rho` is row-major `dim x dim`. A unitary is
/// the single-operator case.
pub fn dm_apply_kraus_single(rho: &mut [Complex64], dim: usize, bit: usize, kraus: &[M2]) {
    debug_assert_eq!(rho.len(), dim * dim);
    let ops: Vec<(M2, M2)> = kraus.iter().map(|k| (*k, k.adjoint())).collect();
    let stride = bit << 1;
    let mut row_base = 0;
    while row_base < dim {
        for r0 in row_base..row_base + bit {
            let rr0 = r0 * dim;
            let rr1 = (r0 | bit) * dim;
            let mut col_base = 0;
            while col_base < dim {
                for c0 in col_base..col_base + bit {
                    let c1 = c0 | bit;
                    let m00 = rho[rr0 + c0];
                    let m01 = rho[rr0 + c1];
                    let m10 = rho[rr1 + c0];
                    let m11 = rho[rr1 + c1];
                    let mut o00 = Complex64::ZERO;
                    let mut o01 = Complex64::ZERO;
                    let mut o10 = Complex64::ZERO;
                    let mut o11 = Complex64::ZERO;
                    for (k, kd) in &ops {
                        // T = K M, then O += T K†.
                        let t00 = k.m[0] * m00 + k.m[1] * m10;
                        let t01 = k.m[0] * m01 + k.m[1] * m11;
                        let t10 = k.m[2] * m00 + k.m[3] * m10;
                        let t11 = k.m[2] * m01 + k.m[3] * m11;
                        o00 += t00 * kd.m[0] + t01 * kd.m[2];
                        o01 += t00 * kd.m[1] + t01 * kd.m[3];
                        o10 += t10 * kd.m[0] + t11 * kd.m[2];
                        o11 += t10 * kd.m[1] + t11 * kd.m[3];
                    }
                    rho[rr0 + c0] = o00;
                    rho[rr0 + c1] = o01;
                    rho[rr1 + c0] = o10;
                    rho[rr1 + c1] = o11;
                }
                col_base += stride;
            }
        }
        row_base += stride;
    }
}

/// Density-matrix sweep `rho -> U rho U†` for a 4x4 unitary on the qubits
/// selected by `(bit_hi, bit_lo)` (gate-space meaning: `bit_hi` is the more
/// significant operand). `rho` is row-major `dim x dim`.
pub fn dm_apply_m4(rho: &mut [Complex64], dim: usize, bit_hi: usize, bit_lo: usize, u: &M4) {
    debug_assert_eq!(rho.len(), dim * dim);
    let ud = u.adjoint();
    let small = bit_hi.min(bit_lo);
    let big = bit_hi.max(bit_lo);
    let offs = [0, bit_lo, bit_hi, bit_hi | bit_lo];
    let quads = dim >> 2;
    for gr in 0..quads {
        let rb = deposit_zero(deposit_zero(gr, small), big);
        for gc in 0..quads {
            let cb = deposit_zero(deposit_zero(gc, small), big);
            let mut b = [Complex64::ZERO; 16];
            for (i, &ro) in offs.iter().enumerate() {
                let row = (rb | ro) * dim;
                for (j, &co) in offs.iter().enumerate() {
                    b[i * 4 + j] = rho[row + (cb | co)];
                }
            }
            let out = u.mul(&M4 { m: b }).mul(&ud);
            for (i, &ro) in offs.iter().enumerate() {
                let row = (rb | ro) * dim;
                for (j, &co) in offs.iter().enumerate() {
                    rho[row + (cb | co)] = out.m[i * 4 + j];
                }
            }
        }
    }
}

/// Density-matrix two-qubit depolarizing channel on the qubits selected by
/// `(bit_a, bit_b)`: `rho -> (1-p) rho + p/15 sum_{P != II} P rho P†`.
///
/// Uses the Pauli-twirl identity `sum_{all 16} P B P† = 4 tr(B) I` (valid
/// for *any* 4x4 block `B`), so each (row-group, col-group) sub-block maps
/// to `(1 - 16p/15) B + (4p/15) tr(B) I` — no Pauli enumeration at all.
pub fn dm_depolarize_two_qubit(
    rho: &mut [Complex64],
    dim: usize,
    bit_a: usize,
    bit_b: usize,
    p: f64,
) {
    debug_assert_eq!(rho.len(), dim * dim);
    let keep = 1.0 - p - p / 15.0;
    let mix = 4.0 * p / 15.0;
    let small = bit_a.min(bit_b);
    let big = bit_a.max(bit_b);
    let offs = [0, small, big, big | small];
    let quads = dim >> 2;
    for gr in 0..quads {
        let rb = deposit_zero(deposit_zero(gr, small), big);
        for gc in 0..quads {
            let cb = deposit_zero(deposit_zero(gc, small), big);
            let mut tr = Complex64::ZERO;
            for &o in &offs {
                tr += rho[(rb | o) * dim + (cb | o)];
            }
            for &ro in &offs {
                let row = (rb | ro) * dim;
                for &co in &offs {
                    rho[row + (cb | co)] *= keep;
                }
            }
            let add = tr * mix;
            for &o in &offs {
                rho[(rb | o) * dim + (cb | o)] += add;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use vaqem_mathkit::c64;
    use vaqem_mathkit::matrix::gates2x2;

    fn random_matrix(n: usize, seed: u64) -> vaqem_mathkit::matrix::CMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dim = 1usize << n;
        vaqem_mathkit::matrix::CMatrix::from_vec(
            dim,
            dim,
            (0..dim * dim)
                .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect(),
        )
    }

    #[test]
    fn dm_sweeps_match_embedded_conjugation() {
        use vaqem_circuit::unitary::{embed_single, embed_two};
        let n = 3usize;
        let dim = 1usize << n;
        let u1 = gates2x2::ry(0.37);
        let u2 = gates2x2::rz(1.2).kron(&gates2x2::sx());
        for q in 0..n {
            let reference = random_matrix(n, 11 + q as u64);
            let expect = reference.conjugate_by(&embed_single(&u1, q, n));
            let mut fast = reference.clone();
            dm_apply_kraus_single(fast.as_mut_slice(), dim, 1 << q, &[M2::from_cmatrix(&u1)]);
            assert!(fast.max_abs_diff(&expect) < 1e-12, "single on {q}");
        }
        for (qh, ql) in [(0usize, 1usize), (1, 0), (0, 2), (2, 1)] {
            let reference = random_matrix(n, 29);
            let expect = reference.conjugate_by(&embed_two(&u2, qh, ql, n));
            let mut fast = reference.clone();
            dm_apply_m4(
                fast.as_mut_slice(),
                dim,
                1 << qh,
                1 << ql,
                &M4::from_cmatrix(&u2),
            );
            assert!(fast.max_abs_diff(&expect) < 1e-12, "pair ({qh},{ql})");
        }
    }

    #[test]
    fn dm_twirl_matches_explicit_pauli_sum() {
        use vaqem_circuit::unitary::embed_single;
        use vaqem_mathkit::matrix::CMatrix;
        let n = 3usize;
        let dim = 1usize << n;
        let (a, b) = (0usize, 2usize);
        let p = 0.23;
        let reference = random_matrix(n, 5);
        let paulis = [
            CMatrix::identity(2),
            gates2x2::pauli_x(),
            gates2x2::pauli_y(),
            gates2x2::pauli_z(),
        ];
        let mut sum = CMatrix::zeros(dim, dim);
        for (i, pa) in paulis.iter().enumerate() {
            for (j, pb) in paulis.iter().enumerate() {
                if i == 0 && j == 0 {
                    continue;
                }
                let full = &embed_single(pa, a, n) * &embed_single(pb, b, n);
                sum = &sum + &reference.conjugate_by(&full);
            }
        }
        let expect = &reference.scale(c64(1.0 - p, 0.0)) + &sum.scale(c64(p / 15.0, 0.0));
        let mut fast = reference.clone();
        dm_depolarize_two_qubit(fast.as_mut_slice(), dim, 1 << a, 1 << b, p);
        assert!(fast.max_abs_diff(&expect) < 1e-12);
    }
}
