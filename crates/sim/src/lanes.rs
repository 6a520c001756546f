//! Amplitude storage and random streams for trajectories run abreast.
//!
//! The trajectory engine ([`crate::machine`]) runs one step interpreter
//! over `L` shots at a time. [`LaneState`] is the state that interpreter
//! drives: every method acts on all `L` lanes at once unless its name ends
//! in `_lane`, and per-lane arguments arrive as `[_; L]` arrays. Two layouts
//! implement it:
//!
//! * [`LaneMajor`] — `L` small-register states interleaved amplitude by
//!   amplitude: amplitude `i` holds the real parts of all lanes, then their
//!   imaginary parts. A 3-qubit register is only 8 amplitudes, too few to
//!   fill a vector unit, so the vectors run across shots instead: each
//!   sweep walks the index space once and updates all lanes with the same
//!   gate coefficients.
//! * [`StateVector`] — one lane in the ordinary layout, through the
//!   sweeps in [`crate::kernels`].
//!
//! Every lane performs the *same arithmetic in the same order* as the
//! single-trajectory kernels: each sweep is the [`Complex64`] expression of
//! the matching kernel in [`crate::kernels`], evaluated lane by lane in
//! place (which the compiler vectorizes across lanes), sums keep their
//! association, and Rust never contracts `a * b + c` into a fused
//! multiply-add. A lane's amplitudes are therefore bit-identical to the
//! single-trajectory state it stands for, whatever vector width the
//! compiler picks.
//!
//! [`LaneMajor`]'s sweeps are `#[inline(always)]` so that each build of the
//! lane interpreter (`machine::LaneBuild`) compiles them for its own
//! vector unit.
//!
//! [`ZzPhase`] is a segment's ZZ coupling with its phase factors resolved
//! once per job.

use crate::kernels;
use crate::statevector::StateVector;
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
    /// The factors of `exp(-i theta Z_a Z_b / 2)`, computed exactly as
    /// [`StateVector::apply_zz`] computes them.
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

/// `L` trajectory states advanced in lock-step.
pub(crate) trait LaneState<const L: usize> {
    /// All lanes in `|0...0>`.
    fn zero_state(num_qubits: usize) -> Self;
    /// Resets every lane to `|0...0>` without reallocating.
    fn reset_zero(&mut self);
    /// Applies `u` to qubit `q`.
    fn apply_m2(&mut self, u: &M2, q: usize);
    /// Applies `u` to qubit `q` of one lane.
    fn apply_m2_lane(&mut self, u: &M2, q: usize, lane: usize);
    /// Applies `u` to `(q_hi, q_lo)`.
    fn apply_m4(&mut self, u: &M4, q_hi: usize, q_lo: usize);
    /// Multiplies each lane's `bit`-set amplitudes by its phase and returns
    /// each lane's excited population taken after the multiply.
    fn phase_and_population(&mut self, bit: usize, phase: &[Complex64; L]) -> [f64; L];
    /// Each lane's excited population on `bit`.
    fn population(&self, bit: usize) -> [f64; L];
    /// Multiplies each lane's `bit`-set amplitudes by its phase.
    fn phase_if_one(&mut self, bit: usize, phase: &[Complex64; L]);
    /// Multiplies one lane's `bit`-set amplitudes by `phase`.
    fn phase_if_one_lane(&mut self, bit: usize, phase: Complex64, lane: usize);
    /// MCWF no-jump update: each lane's `bit`-clear amplitudes scale by
    /// `scale0`, its `bit`-set ones by `scale1`.
    fn mcwf_no_jump(&mut self, bit: usize, scale0: &[f64; L], scale1: &[f64; L]);
    /// MCWF jump on one lane: its `bit`-set branch moves to the `bit`-clear
    /// one scaled by `inv_norm`.
    fn mcwf_jump_lane(&mut self, bit: usize, inv_norm: f64, lane: usize);
    /// Applies the couplings' phase factors in order, one sweep for all.
    fn apply_zz(&mut self, couplings: &[ZzPhase]);
    /// Samples one lane's basis index: one uniform draw against the
    /// running sum of `|a|^2` in ascending index order.
    fn sample_lane<R: Rng>(&self, rng: &mut R, lane: usize) -> usize;
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

/// `L` small-register states stored lane-major (see the module docs).
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
}

impl<const L: usize> LaneState<L> for LaneMajor<L> {
    #[inline(always)]
    fn zero_state(num_qubits: usize) -> Self {
        let mut state = LaneMajor {
            amps: vec![LaneAmp::ZERO; 1 << num_qubits],
        };
        state.reset_zero();
        state
    }

    #[inline(always)]
    fn reset_zero(&mut self) {
        self.amps.fill(LaneAmp::ZERO);
        self.amps[0].re = [1.0; L];
    }

    #[inline(always)]
    fn apply_m2(&mut self, u: &M2, q: usize) {
        self.for_pairs(1 << q, |a0, a1| {
            for l in 0..L {
                m2_lane(u, a0, a1, l);
            }
        });
    }

    #[inline(always)]
    fn apply_m2_lane(&mut self, u: &M2, q: usize, lane: usize) {
        self.for_pairs(1 << q, |a0, a1| m2_lane(u, a0, a1, lane));
    }

    #[inline(always)]
    fn apply_m4(&mut self, u: &M4, q_hi: usize, q_lo: usize) {
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

    #[inline(always)]
    fn phase_and_population(&mut self, bit: usize, phase: &[Complex64; L]) -> [f64; L] {
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

    #[inline(always)]
    fn population(&self, bit: usize) -> [f64; L] {
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

    #[inline(always)]
    fn phase_if_one(&mut self, bit: usize, phase: &[Complex64; L]) {
        self.for_pairs(bit, |_, a| {
            for (l, &z) in phase.iter().enumerate() {
                a.set(l, a.get(l) * z);
            }
        });
    }

    #[inline(always)]
    fn phase_if_one_lane(&mut self, bit: usize, phase: Complex64, lane: usize) {
        self.for_pairs(bit, |_, a| a.set(lane, a.get(lane) * phase));
    }

    #[inline(always)]
    fn mcwf_no_jump(&mut self, bit: usize, scale0: &[f64; L], scale1: &[f64; L]) {
        self.for_pairs(bit, |a0, a1| {
            for l in 0..L {
                a0.re[l] *= scale0[l];
                a0.im[l] *= scale0[l];
                a1.re[l] *= scale1[l];
                a1.im[l] *= scale1[l];
            }
        });
    }

    #[inline(always)]
    fn mcwf_jump_lane(&mut self, bit: usize, inv_norm: f64, lane: usize) {
        self.for_pairs(bit, |a0, a1| {
            a0.re[lane] = a1.re[lane] * inv_norm;
            a0.im[lane] = a1.im[lane] * inv_norm;
            a1.re[lane] = 0.0;
            a1.im[lane] = 0.0;
        });
    }

    #[inline(always)]
    fn apply_zz(&mut self, couplings: &[ZzPhase]) {
        for (i, a) in self.amps.iter_mut().enumerate() {
            for zz in couplings {
                let z = zz.factor(i);
                for l in 0..L {
                    a.set(l, a.get(l) * z);
                }
            }
        }
    }

    #[inline(always)]
    fn sample_lane<R: Rng>(&self, rng: &mut R, lane: usize) -> usize {
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

/// One trajectory in the ordinary layout: the width-independent path.
impl LaneState<1> for StateVector {
    fn zero_state(num_qubits: usize) -> Self {
        StateVector::zero_state(num_qubits)
    }

    fn reset_zero(&mut self) {
        StateVector::reset_zero(self);
    }

    fn apply_m2(&mut self, u: &M2, q: usize) {
        StateVector::apply_m2(self, u, q);
    }

    fn apply_m2_lane(&mut self, u: &M2, q: usize, _lane: usize) {
        StateVector::apply_m2(self, u, q);
    }

    fn apply_m4(&mut self, u: &M4, q_hi: usize, q_lo: usize) {
        StateVector::apply_m4(self, u, q_hi, q_lo);
    }

    fn phase_and_population(&mut self, bit: usize, phase: &[Complex64; 1]) -> [f64; 1] {
        [kernels::phase_and_excited_population(
            self.amps_mut(),
            bit,
            phase[0],
        )]
    }

    fn population(&self, bit: usize) -> [f64; 1] {
        [kernels::excited_population(self.amplitudes(), bit)]
    }

    fn phase_if_one(&mut self, bit: usize, phase: &[Complex64; 1]) {
        kernels::phase_if_one(self.amps_mut(), bit, phase[0]);
    }

    fn phase_if_one_lane(&mut self, bit: usize, phase: Complex64, _lane: usize) {
        kernels::phase_if_one(self.amps_mut(), bit, phase);
    }

    fn mcwf_no_jump(&mut self, bit: usize, scale0: &[f64; 1], scale1: &[f64; 1]) {
        kernels::mcwf_no_jump(self.amps_mut(), bit, scale0[0], scale1[0]);
    }

    fn mcwf_jump_lane(&mut self, bit: usize, inv_norm: f64, _lane: usize) {
        kernels::mcwf_jump(self.amps_mut(), bit, inv_norm);
    }

    fn apply_zz(&mut self, couplings: &[ZzPhase]) {
        kernels::zz_phase(self.amps_mut(), couplings);
    }

    fn sample_lane<R: Rng>(&self, rng: &mut R, _lane: usize) -> usize {
        self.sample_index(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vaqem_circuit::gate::Gate;
    use vaqem_mathkit::c64;

    const L: usize = crate::machine::LANES;

    /// Lane-major states whose lanes hold distinct random amplitudes, and
    /// the same lanes as ordinary state vectors.
    fn random_lanes(n: usize, seed: u64) -> (LaneMajor<L>, Vec<StateVector>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lanes = <LaneMajor<L> as LaneState<L>>::zero_state(n);
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
            lanes.phase_if_one_lane(bit, Complex64::cis(std::f64::consts::PI), phase_lane);
            lanes.mcwf_no_jump(bit, &scale0, &scale1);
            lanes.mcwf_jump_lane(bit, 1.7, jump_lane);
            lanes.apply_m4(&u4, q, (q + 2) % n);
            lanes.apply_zz(&zz);
            for (l, sv) in svs.iter_mut().enumerate() {
                LaneState::apply_m2(sv, &u2, q);
                if l == m2_lane {
                    LaneState::apply_m2(sv, &u2, q);
                }
                let p = LaneState::phase_and_population(sv, bit, &[phases[l]]);
                assert_eq!(p[0], pop[l], "population, lane {l}");
                if l == phase_lane {
                    sv.phase_if_one_lane(bit, Complex64::cis(std::f64::consts::PI), 0);
                }
                LaneState::mcwf_no_jump(sv, bit, &[scale0[l]], &[scale1[l]]);
                if l == jump_lane {
                    sv.mcwf_jump_lane(bit, 1.7, 0);
                }
                LaneState::apply_m4(sv, &u4, q, (q + 2) % n);
                // The one-lane layout's fused ZZ sweep against one sweep
                // per coupling, as the reference path runs them.
                let mut fused = sv.clone();
                LaneState::apply_zz(&mut fused, &zz);
                sv.apply_zz(0.77, 1, 3);
                sv.apply_zz(-0.31, 0, 2);
                for (a, b) in fused.amplitudes().iter().zip(sv.amplitudes()) {
                    assert_eq!((a.re, a.im), (b.re, b.im), "one-lane ZZ, lane {l}");
                }
            }
            assert_lanes_eq(&lanes, &svs, &format!("qubit {q}"));
            let populations = lanes.population(bit);
            for (l, sv) in svs.iter().enumerate() {
                assert_eq!(LaneState::population(sv, bit)[0], populations[l]);
                let mut a = StdRng::seed_from_u64(l as u64);
                let mut b = a.clone();
                assert_eq!(lanes.sample_lane(&mut a, l), sv.sample_lane(&mut b, 0));
            }
        }
    }
}
