//! Amplitude storage and random streams for trajectories run abreast.
//!
//! The trajectory engine ([`crate::machine`]) runs one step interpreter
//! over `L` shots at a time, whatever the register's width. [`LaneMajor`]
//! is the state that interpreter drives: `L` register states interleaved
//! amplitude by amplitude, amplitude `i` holding the real parts of all
//! lanes, then their imaginary parts. A 3-qubit register is only 8
//! amplitudes, too few to fill a vector unit, so the vectors run across
//! shots instead: each sweep walks the index space once and updates all
//! lanes with the same coefficients. Every method acts on all `L` lanes at
//! once unless its name ends in `_lane`, and per-lane arguments arrive as
//! `[_; L]` arrays.
//!
//! Every lane performs the *same arithmetic in the same order* as one
//! trajectory of the per-op reference ([`crate::naive`]): the gate sweeps
//! are the [`Complex64`] expressions of [`crate::kernels`]' `apply_m2` and
//! `apply_m4`, the phase, population, damping and ZZ sweeps those of the
//! reference's index-filtered loops, each evaluated lane by lane in place
//! (which the compiler vectorizes across lanes). Sums keep their
//! association, and Rust never contracts `a * b + c` into a fused
//! multiply-add. A lane's amplitudes are therefore bit-identical to the
//! single-trajectory state it stands for, whatever vector width the
//! compiler picks.
//!
//! The sweeps are `#[inline(always)]` so that each build of the lane
//! interpreter (`machine::LaneBuild`) compiles them for its own vector
//! unit.
//!
//! [`ZzPhase`] is a segment's ZZ coupling with its phase factors resolved
//! once per batch.

use rand::Rng;
use vaqem_mathkit::complex::Complex64;
use vaqem_mathkit::smallmat::{M2, M4};

/// Always-on ZZ coupling over one free-evolution segment, with its phase
/// factors resolved: amplitudes whose two bits agree take `plus`
/// (`e^{-i theta/2}`), the others `minus` (`e^{+i theta/2}`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ZzPhase {
    bit_a: usize,
    bit_b: usize,
    plus: Complex64,
    minus: Complex64,
}

impl ZzPhase {
    /// The factors of `exp(-i theta Z_a Z_b / 2)`, computed exactly as the
    /// statevector engine's `apply_zz` computes them.
    pub(crate) fn new(a: usize, b: usize, theta: f64) -> Self {
        ZzPhase {
            bit_a: 1 << a,
            bit_b: 1 << b,
            plus: Complex64::cis(-theta / 2.0),
            minus: Complex64::cis(theta / 2.0),
        }
    }

    /// The factor for amplitude index `i`.
    #[inline]
    pub(crate) fn factor(&self, i: usize) -> Complex64 {
        if (i & self.bit_a != 0) == (i & self.bit_b != 0) {
            self.plus
        } else {
            self.minus
        }
    }
}

/// One amplitude index across `L` lanes.
#[derive(Debug, Clone, Copy)]
struct LaneAmp<const L: usize> {
    re: [f64; L],
    im: [f64; L],
}

impl<const L: usize> LaneAmp<L> {
    const ZERO: Self = LaneAmp {
        re: [0.0; L],
        im: [0.0; L],
    };

    /// Lane `l` as a complex number.
    #[inline(always)]
    fn get(&self, l: usize) -> Complex64 {
        Complex64::new(self.re[l], self.im[l])
    }

    /// Overwrites lane `l`.
    #[inline(always)]
    fn set(&mut self, l: usize, z: Complex64) {
        self.re[l] = z.re;
        self.im[l] = z.im;
    }
}

/// Applies `u` to one `(|0>, |1>)` amplitude pair on lane `l`: the
/// single-trajectory kernel's `u00 * x0 + u01 * x1`, `u10 * x0 + u11 * x1`.
#[inline(always)]
fn m2_lane<const L: usize>(u: &M2, a0: &mut LaneAmp<L>, a1: &mut LaneAmp<L>, l: usize) {
    let [u00, u01, u10, u11] = u.m;
    let (x0, x1) = (a0.get(l), a1.get(l));
    a0.set(l, u00 * x0 + u01 * x1);
    a1.set(l, u10 * x0 + u11 * x1);
}

/// `L` trajectory states advanced in lock-step, stored lane-major (see the
/// module docs).
#[derive(Debug, Clone)]
pub(crate) struct LaneMajor<const L: usize> {
    amps: Vec<LaneAmp<L>>,
}

impl<const L: usize> LaneMajor<L> {
    /// Visits the `(bit-clear, bit-set)` amplitude pairs in ascending order.
    #[inline(always)]
    fn for_pairs(&mut self, bit: usize, mut f: impl FnMut(&mut LaneAmp<L>, &mut LaneAmp<L>)) {
        for block in self.amps.chunks_exact_mut(bit << 1) {
            let (lo, hi) = block.split_at_mut(bit);
            for (a0, a1) in lo.iter_mut().zip(hi.iter_mut()) {
                f(a0, a1);
            }
        }
    }

    /// All lanes in `|0...0>`.
    #[inline(always)]
    pub(crate) fn zero_state(num_qubits: usize) -> Self {
        let mut state = LaneMajor {
            amps: vec![LaneAmp::ZERO; 1 << num_qubits],
        };
        state.reset_zero();
        state
    }

    /// Resets every lane to `|0...0>` without reallocating.
    #[inline(always)]
    pub(crate) fn reset_zero(&mut self) {
        self.amps.fill(LaneAmp::ZERO);
        self.amps[0].re = [1.0; L];
    }

    /// Applies `u` to qubit `q`.
    #[inline(always)]
    pub(crate) fn apply_m2(&mut self, u: &M2, q: usize) {
        self.for_pairs(1 << q, |a0, a1| {
            for l in 0..L {
                m2_lane(u, a0, a1, l);
            }
        });
    }

    /// Applies `u` to qubit `q` of one lane.
    #[inline(always)]
    pub(crate) fn apply_m2_lane(&mut self, u: &M2, q: usize, lane: usize) {
        self.for_pairs(1 << q, |a0, a1| m2_lane(u, a0, a1, lane));
    }

    /// Applies `u` to `(q_hi, q_lo)`.
    #[inline(always)]
    pub(crate) fn apply_m4(&mut self, u: &M4, q_hi: usize, q_lo: usize) {
        let (bit_hi, bit_lo) = (1usize << q_hi, 1usize << q_lo);
        let small = bit_hi.min(bit_lo);
        let big = bit_hi.max(bit_lo);
        for g in 0..self.amps.len() >> 2 {
            // The quarter-space enumeration of `kernels::apply_m4`.
            let x = g & (small - 1) | ((g & !(small - 1)) << 1);
            let base = x & (big - 1) | ((x & !(big - 1)) << 1);
            let idx = [base, base | bit_lo, base | bit_hi, base | bit_hi | bit_lo];
            let a = idx.map(|i| self.amps[i]);
            for (r, &i) in idx.iter().enumerate() {
                // Each lane sums `u[r][c] * a[c]` over `c` in order, as
                // the single-trajectory kernel does.
                let mut acc = LaneAmp::ZERO;
                for (c, ac) in a.iter().enumerate() {
                    let u = u.m[r * 4 + c];
                    for l in 0..L {
                        acc.set(l, acc.get(l) + u * ac.get(l));
                    }
                }
                self.amps[i] = acc;
            }
        }
    }

    /// Multiplies each lane's `bit`-set amplitudes by its phase and returns
    /// each lane's excited population taken after the multiply: the values
    /// of a [`Self::phase_if_one`] sweep followed by a [`Self::population`]
    /// sweep, in one pass.
    #[inline(always)]
    pub(crate) fn phase_and_population(&mut self, bit: usize, phase: &[Complex64; L]) -> [f64; L] {
        let mut acc = [0.0; L];
        self.for_pairs(bit, |_, a| {
            for l in 0..L {
                let z = a.get(l) * phase[l];
                a.set(l, z);
                acc[l] += z.norm_sqr();
            }
        });
        acc
    }

    /// Each lane's excited population on `bit`: the sum of `|a|^2` over its
    /// `bit`-set amplitudes in ascending index order.
    #[inline(always)]
    pub(crate) fn population(&self, bit: usize) -> [f64; L] {
        let mut acc = [0.0; L];
        for block in self.amps.chunks_exact(bit << 1) {
            for a in &block[bit..] {
                for (l, acc) in acc.iter_mut().enumerate() {
                    *acc += a.get(l).norm_sqr();
                }
            }
        }
        acc
    }

    /// Multiplies each lane's `bit`-set amplitudes by its phase.
    #[inline(always)]
    pub(crate) fn phase_if_one(&mut self, bit: usize, phase: &[Complex64; L]) {
        self.for_pairs(bit, |_, a| {
            for (l, &z) in phase.iter().enumerate() {
                a.set(l, a.get(l) * z);
            }
        });
    }

    /// Multiplies one lane's `bit`-set amplitudes by `phase`.
    #[inline(always)]
    pub(crate) fn phase_if_one_lane(&mut self, bit: usize, phase: Complex64, lane: usize) {
        self.for_pairs(bit, |_, a| a.set(lane, a.get(lane) * phase));
    }

    /// MCWF no-jump update with the renormalization folded in: each lane's
    /// `bit`-clear amplitudes scale by `scale0`, its `bit`-set ones by
    /// `scale1`. The trajectory engine passes `scale0 = 1/sqrt(1 - gamma*p1)`
    /// and `scale1 = sqrt(1-gamma) * scale0`, the analytic post-damping norm
    /// of a normalized input state.
    #[inline(always)]
    pub(crate) fn mcwf_no_jump(&mut self, bit: usize, scale0: &[f64; L], scale1: &[f64; L]) {
        self.for_pairs(bit, |a0, a1| {
            for l in 0..L {
                a0.re[l] *= scale0[l];
                a0.im[l] *= scale0[l];
                a1.re[l] *= scale1[l];
                a1.im[l] *= scale1[l];
            }
        });
    }

    /// MCWF jump on one lane: its `bit`-set branch moves to the `bit`-clear
    /// one scaled by `inv_norm` (`1/sqrt(p1)`, the post-jump norm of a
    /// normalized input state), and the `bit`-set half zeroes.
    #[inline(always)]
    pub(crate) fn mcwf_jump_lane(&mut self, bit: usize, inv_norm: f64, lane: usize) {
        self.for_pairs(bit, |a0, a1| {
            a0.re[lane] = a1.re[lane] * inv_norm;
            a0.im[lane] = a1.im[lane] * inv_norm;
            a1.re[lane] = 0.0;
            a1.im[lane] = 0.0;
        });
    }

    /// Applies the couplings' phase factors in order, one sweep for all: an
    /// amplitude takes the same products in the same order as one sweep
    /// per coupling would give it.
    #[inline(always)]
    pub(crate) fn apply_zz(&mut self, couplings: &[ZzPhase]) {
        for (i, a) in self.amps.iter_mut().enumerate() {
            for zz in couplings {
                let z = zz.factor(i);
                for l in 0..L {
                    a.set(l, a.get(l) * z);
                }
            }
        }
    }

    /// Samples one lane's basis index: one uniform draw against the
    /// running sum of `|a|^2` in ascending index order.
    #[inline(always)]
    pub(crate) fn sample_lane<R: Rng>(&self, rng: &mut R, lane: usize) -> usize {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            acc += a.get(lane).norm_sqr();
            if r < acc {
                return i;
            }
        }
        self.amps.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use crate::statevector::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;
    use vaqem_circuit::gate::Gate;
    use vaqem_mathkit::c64;

    const L: usize = crate::machine::LANES;

    /// The lanes the one-lane sweeps are checked on: one in the middle and
    /// the last.
    const ONE_LANE_CHECKS: [usize; 2] = [L / 2 + 1, L - 1];

    /// Lane-major states whose lanes hold distinct random amplitudes, and
    /// the same lanes as ordinary state vectors.
    fn random_lanes(n: usize, seed: u64) -> (LaneMajor<L>, Vec<StateVector>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lanes = LaneMajor::<L>::zero_state(n);
        let mut svs = Vec::new();
        for l in 0..L {
            let amps: Vec<Complex64> = (0..1usize << n)
                .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                .collect();
            for (i, a) in amps.iter().enumerate() {
                lanes.amps[i].re[l] = a.re;
                lanes.amps[i].im[l] = a.im;
            }
            svs.push(StateVector::from_amplitudes(amps));
        }
        (lanes, svs)
    }

    fn assert_lanes_eq(lanes: &LaneMajor<L>, svs: &[StateVector], what: &str) {
        for (l, sv) in svs.iter().enumerate() {
            for (i, a) in sv.amplitudes().iter().enumerate() {
                let got = (lanes.amps[i].re[l], lanes.amps[i].im[l]);
                assert_eq!(got, (a.re, a.im), "{what}: lane {l}, amplitude {i}");
            }
        }
    }

    // The reference trajectory's index-filtered loops: a full sweep with a
    // branch per index.

    fn filtered_phase(sv: &mut StateVector, bit: usize, phase: Complex64) {
        for (i, a) in sv.amps_mut().iter_mut().enumerate() {
            if i & bit != 0 {
                *a *= phase;
            }
        }
    }

    fn filtered_population(sv: &StateVector, bit: usize) -> f64 {
        sv.amplitudes()
            .iter()
            .enumerate()
            .filter(|(i, _)| i & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    fn filtered_no_jump(sv: &mut StateVector, bit: usize, scale0: f64, scale1: f64) {
        for (i, a) in sv.amps_mut().iter_mut().enumerate() {
            *a *= if i & bit != 0 { scale1 } else { scale0 };
        }
    }

    fn filtered_jump(sv: &mut StateVector, bit: usize, inv_norm: f64) {
        let prev = sv.amplitudes().to_vec();
        for (i, a) in sv.amps_mut().iter_mut().enumerate() {
            *a = if i & bit != 0 {
                Complex64::ZERO
            } else {
                prev[i | bit] * inv_norm
            };
        }
    }

    #[test]
    fn lane_sweeps_are_bit_identical_to_single_trajectory_kernels() {
        let n = 4;
        let u2 = crate::fusion::gate_m2(&Gate::Ry(0.83.into())).unwrap();
        // A dense 4x4, so that every product enters each row's sum and the
        // summation order shows (a permutation like CX would hide it).
        let mut entries = StdRng::seed_from_u64(7);
        let u4 = M4 {
            m: std::array::from_fn(|_| c64(entries.gen::<f64>() - 0.5, entries.gen::<f64>() - 0.5)),
        };
        let phases: [Complex64; L] = std::array::from_fn(|l| Complex64::cis(0.3 + l as f64));
        // Distinct no-jump scales per lane, one lane left unscaled.
        let scale0: [f64; L] = std::array::from_fn(|l| 0.8 + 0.05 * l as f64);
        let scale1: [f64; L] =
            std::array::from_fn(|l| if l == 2 { 1.0 } else { 0.55 + 0.03 * l as f64 });
        let zz = [ZzPhase::new(1, 3, 0.77), ZzPhase::new(0, 2, -0.31)];
        // The one-lane sweeps hit a lane in the first vector, one in the
        // middle and the last.
        let (m2_lane, phase_lane, jump_lane) = (2, L / 2 + 1, L - 1);
        for q in 0..n {
            let bit = 1 << q;
            let (mut lanes, mut svs) = random_lanes(n, 40 + q as u64);
            lanes.apply_m2(&u2, q);
            lanes.apply_m2_lane(&u2, q, m2_lane);
            let pop = lanes.phase_and_population(bit, &phases);
            lanes.phase_if_one_lane(bit, Complex64::cis(PI), phase_lane);
            lanes.mcwf_no_jump(bit, &scale0, &scale1);
            lanes.mcwf_jump_lane(bit, 1.7, jump_lane);
            lanes.apply_m4(&u4, q, (q + 2) % n);
            lanes.apply_zz(&zz);
            for (l, sv) in svs.iter_mut().enumerate() {
                sv.apply_m2(&u2, q);
                if l == m2_lane {
                    sv.apply_m2(&u2, q);
                }
                filtered_phase(sv, bit, phases[l]);
                assert_eq!(filtered_population(sv, bit), pop[l], "population, lane {l}");
                if l == phase_lane {
                    filtered_phase(sv, bit, Complex64::cis(PI));
                }
                filtered_no_jump(sv, bit, scale0[l], scale1[l]);
                if l == jump_lane {
                    filtered_jump(sv, bit, 1.7);
                }
                sv.apply_m4(&u4, q, (q + 2) % n);
                // One sweep per coupling, as the reference path runs them.
                sv.apply_zz(0.77, 1, 3);
                sv.apply_zz(-0.31, 0, 2);
            }
            assert_lanes_eq(&lanes, &svs, &format!("qubit {q}"));
            let populations = lanes.population(bit);
            for (l, sv) in svs.iter().enumerate() {
                assert_eq!(filtered_population(sv, bit), populations[l]);
                let mut a = StdRng::seed_from_u64(l as u64);
                let mut b = a.clone();
                assert_eq!(
                    lanes.sample_lane(&mut a, l),
                    naive::sample_index(sv, &mut b)
                );
            }
        }
    }

    #[test]
    fn fused_phase_population_matches_separate_sweeps() {
        let phases: [Complex64; L] = std::array::from_fn(|l| Complex64::cis(0.73 + 0.1 * l as f64));
        for q in 0..6 {
            let bit = 1usize << q;
            let (mut fused, mut svs) = random_lanes(6, 17);
            let mut separate = fused.clone();
            let p_fused = fused.phase_and_population(bit, &phases);
            separate.phase_if_one(bit, &phases);
            let p_separate = separate.population(bit);
            for (l, sv) in svs.iter_mut().enumerate() {
                filtered_phase(sv, bit, phases[l]);
                let expect = filtered_population(sv, bit);
                assert_eq!(p_fused[l], expect, "fused, qubit {q}, lane {l}");
                assert_eq!(p_separate[l], expect, "separate, qubit {q}, lane {l}");
            }
            assert_lanes_eq(&fused, &svs, &format!("fused, qubit {q}"));
            assert_lanes_eq(&separate, &svs, &format!("separate, qubit {q}"));
            // One lane takes a phase of its own; the others keep theirs.
            for lane in ONE_LANE_CHECKS {
                let phase = Complex64::cis(-1.1 + lane as f64);
                fused.phase_if_one_lane(bit, phase, lane);
                filtered_phase(&mut svs[lane], bit, phase);
                assert_lanes_eq(&fused, &svs, &format!("lane {lane}, qubit {q}"));
            }
        }
    }

    #[test]
    fn mcwf_sweeps_match_index_filtered_loops() {
        let scale0: [f64; L] = std::array::from_fn(|l| 1.07 + 0.01 * l as f64);
        let scale1: [f64; L] = std::array::from_fn(|l| 0.85 - 0.02 * l as f64);
        for q in 0..5 {
            let bit = 1usize << q;
            let (mut lanes, mut svs) = random_lanes(5, 23);
            lanes.mcwf_no_jump(bit, &scale0, &scale1);
            for (l, sv) in svs.iter_mut().enumerate() {
                filtered_no_jump(sv, bit, scale0[l], scale1[l]);
            }
            assert_lanes_eq(&lanes, &svs, &format!("no-jump on {q}"));

            // A jump moves one lane's branch; the others stay as they are.
            let (mut lanes, mut svs) = random_lanes(5, 29);
            for lane in ONE_LANE_CHECKS {
                lanes.mcwf_jump_lane(bit, scale0[lane], lane);
                filtered_jump(&mut svs[lane], bit, scale0[lane]);
                assert_lanes_eq(&lanes, &svs, &format!("jump on {q}, lane {lane}"));
            }
        }
    }

    #[test]
    fn excited_population_matches_filtered_sum() {
        let (lanes, svs) = random_lanes(7, 3);
        for q in 0..7 {
            let bit = 1usize << q;
            let populations = lanes.population(bit);
            for (l, sv) in svs.iter().enumerate() {
                assert_eq!(
                    populations[l],
                    filtered_population(sv, bit),
                    "qubit {q}, lane {l}"
                );
            }
        }
    }
}
