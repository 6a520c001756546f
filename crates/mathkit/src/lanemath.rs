//! `sin_cos` and `ln` over lanes of `f64`, in portable branch-free code.
//!
//! The trajectory simulator runs up to sixteen shots abreast, and two of
//! its per-shot values need a transcendental: a detuning phase
//! `e^{i*delta*t}` and the quasi-static detuning's Box–Muller normal. A
//! libm call computes one lane at a time; the functions here take a
//! `[f64; L]` and compute every lane with plain multiplies, adds, a
//! division and integer bit operations, so that each lane build of the
//! simulator compiles them for its own vector unit.
//!
//! * [`sin_cos_lanes`] reduces by `pi/2` in three Cody–Waite steps (`pi/2`
//!   to 151 bits, every product exact for `|x| <= 1e5`), takes the
//!   quadrant from the bits of a magic-number rounding, and evaluates
//!   fdlibm's `__kernel_sin` and `__kernel_cos` polynomials on the reduced
//!   double-double argument.
//! * [`ln_lanes`] splits off the exponent by bit arithmetic and evaluates
//!   fdlibm's `__ieee754_log` polynomial, both of its branches computed and
//!   one selected.
//!
//! Lanes outside the kernels' range — `|x| > 1e5` or non-finite for
//! `sin_cos`, anything but a finite normal positive number for `ln` — are
//! recomputed with the standard library's (libm's) function, one lane at a
//! time.
//!
//! **Determinism.** The scalar [`sin_cos`] and [`ln`] are the one-lane
//! case of the lane calls, and every lane does the same IEEE operations in
//! the same order (Rust never contracts `a * b + c` into a fused
//! multiply-add), so a lane's result equals the scalar call's bit for bit
//! whatever the lane count, vector width or `target-cpu`. Against libm the
//! unit tests bound `sin` and `ln` at 1 ulp and `cos` at 2 ulp.
//!
//! # Examples
//!
//! ```
//! use vaqem_mathkit::lanemath::{ln, ln_lanes, sin_cos, sin_cos_lanes};
//!
//! let x = [0.5, -2.0, 1e3, 7.25];
//! let (sin, cos) = sin_cos_lanes(x);
//! assert_eq!((sin[2], cos[2]), sin_cos(1e3));
//! assert!((sin[1] - (-2.0f64).sin()).abs() < 1e-15);
//! assert!((cos[3] - 7.25f64.cos()).abs() < 1e-15);
//! assert_eq!(ln_lanes([0.25, 1.0])[0], ln(0.25));
//! assert_eq!(ln(1.0), 0.0);
//! ```

/// Largest `|x|` the `sin_cos` kernel reduces; larger or non-finite lanes
/// fall back to libm. Below it the quotient by `pi/2` has at most 17 bits,
/// so every Cody–Waite product is exact.
const SIN_COS_BOUND: f64 = 1e5;

/// `1.5 * 2^52`: adding it rounds a value of magnitude below `2^51` to an
/// integer held in the low bits of the sum.
const TOINT: f64 = 6_755_399_441_055_744.0;

/// `2/pi`.
const INV_PIO2: f64 = f64::from_bits(0x3FE4_5F30_6DC9_C883);
/// `pi/2` in four parts: three of 33 significant bits, so that their
/// products with a quotient below `2^20` are exact, and the tail.
const PIO2_1: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
const PIO2_2: f64 = f64::from_bits(0x3DD0_B461_1A60_0000);
const PIO2_3: f64 = f64::from_bits(0x3BA3_198A_2E00_0000);
const PIO2_3T: f64 = f64::from_bits(0x397B_839A_2520_49C1);

/// fdlibm `__kernel_sin` coefficients.
const S1: f64 = f64::from_bits(0xBFC5_5555_5555_5549);
const S2: f64 = f64::from_bits(0x3F81_1111_1110_F8A6);
const S3: f64 = f64::from_bits(0xBF2A_01A0_19C1_61D5);
const S4: f64 = f64::from_bits(0x3EC7_1DE3_57B1_FE7D);
const S5: f64 = f64::from_bits(0xBE5A_E5E6_8A2B_9CEB);
const S6: f64 = f64::from_bits(0x3DE5_D93A_5ACF_D57C);

/// fdlibm `__kernel_cos` coefficients.
const C1: f64 = f64::from_bits(0x3FA5_5555_5555_554C);
const C2: f64 = f64::from_bits(0xBF56_C16C_16C1_5177);
const C3: f64 = f64::from_bits(0x3EFA_01A0_19CB_1590);
const C4: f64 = f64::from_bits(0xBE92_7E4F_809C_52AD);
const C5: f64 = f64::from_bits(0x3E21_EE9E_BDB4_B1C4);
const C6: f64 = f64::from_bits(0xBDA8_FAE9_BE88_38D4);

/// `ln 2` in two parts; the high one has 32 significant bits, so its
/// product with an exponent is exact.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);

/// fdlibm `__ieee754_log` coefficients.
const LG1: f64 = f64::from_bits(0x3FE5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3FD9_9999_9997_FA04);
const LG3: f64 = f64::from_bits(0x3FD2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3FCC_71C5_1D8E_78AF);
const LG5: f64 = f64::from_bits(0x3FC7_4664_96CB_03DE);
const LG6: f64 = f64::from_bits(0x3FC3_9A09_D078_C69F);
const LG7: f64 = f64::from_bits(0x3FC2_F112_DF3E_5244);

/// `2^52`, the exponent of a double whose low mantissa bits hold an
/// integer.
const TWO52: f64 = 4_503_599_627_370_496.0;

/// `(sin x, cos x)` for `|x| <= SIN_COS_BOUND`.
#[inline(always)]
fn sin_cos_kernel(x: f64) -> (f64, f64) {
    // Quotient by pi/2, rounded to nearest; its two low bits (two's
    // complement) are the quadrant.
    let t = x * INV_PIO2 + TOINT;
    let quadrant = t.to_bits();
    let n = t - TOINT;
    // x - n*pi/2 as y0 + y1. The first difference is exact; each later one
    // carries its rounding error into the tail.
    let a = x - n * PIO2_1;
    let p2 = n * PIO2_2;
    let b = a - p2;
    let p3 = n * PIO2_3;
    let c = b - p3;
    let tail = (((a - b) - p2) + ((b - c) - p3)) - n * PIO2_3T;
    let y0 = c + tail;
    let y1 = (c - y0) + tail;

    // fdlibm's kernels on [-pi/4, pi/4].
    let z = y0 * y0;
    let w = z * z;
    let v = z * y0;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = y0 - ((z * (0.5 * y1 - v * r) - y1) - v * S1);
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    let cos = w + (((1.0 - w) - hz) + (z * r - y0 * y1));

    // Quadrant q: odd quadrants swap the two, q = 2, 3 negate sin and
    // q = 1, 2 negate cos.
    let odd = quadrant & 1 != 0;
    let (s, c) = if odd { (cos, sin) } else { (sin, cos) };
    let sin = f64::from_bits(s.to_bits() ^ ((quadrant & 2) << 62));
    let cos = f64::from_bits(c.to_bits() ^ ((quadrant.wrapping_add(1) & 2) << 62));
    // sin(-0) is -0; the reduction's sums round it to +0.
    (if x == 0.0 { x } else { sin }, cos)
}

/// `ln x` for a finite normal positive `x`.
#[inline(always)]
fn ln_kernel(x: f64) -> f64 {
    let bits = x.to_bits();
    let high = bits >> 32;
    let mantissa = high & 0x000F_FFFF;
    // Scale x by a power of two into [sqrt(2)/2, sqrt(2)): `carry` is
    // 0x100000 exactly when the mantissa is at least sqrt(2).
    let carry = (mantissa + 0x95F64) & 0x10_0000;
    let scaled = f64::from_bits(((mantissa | (carry ^ 0x3FF0_0000)) << 32) | (bits & 0xFFFF_FFFF));
    // The power k = exponent - 1023 + carry, through a magic-number
    // conversion: (2^52 + e) - (2^52 + 1023) is exact.
    let e = (high >> 20) + (carry >> 20);
    let k = f64::from_bits(TWO52.to_bits() | e) - (TWO52 + 1023.0);

    let f = scaled - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    // fdlibm's two forms; the one with `hfsq` is more accurate for
    // mantissas near sqrt(2).
    let near_sqrt2 = k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f);
    let elsewhere = k * LN2_HI - ((s * (f - r) - k * LN2_LO) - f);
    if mantissa.wrapping_sub(0x6147A) <= 0x6B851 - 0x6147A {
        near_sqrt2
    } else {
        elsewhere
    }
}

/// Calls `libm(l)` for every lane `l` whose argument is outside a kernel's
/// range, after one check over all lanes.
#[inline(always)]
fn for_each_outside<const L: usize>(
    x: &[f64; L],
    in_range: impl Fn(f64) -> bool,
    mut libm: impl FnMut(usize),
) {
    if x.iter().fold(false, |any, &x| any | !in_range(x)) {
        (0..L).filter(|&l| !in_range(x[l])).for_each(&mut libm);
    }
}

/// `(sin x, cos x)` of every lane. Lanes with `|x| > 1e5` or a non-finite
/// `x` take libm's [`f64::sin_cos`].
#[inline(always)]
pub fn sin_cos_lanes<const L: usize>(x: [f64; L]) -> ([f64; L], [f64; L]) {
    let mut sin = [0.0; L];
    let mut cos = [0.0; L];
    for l in 0..L {
        (sin[l], cos[l]) = sin_cos_kernel(x[l]);
    }
    // False for NaN as well as for large and infinite x.
    let in_range = |x: f64| x.abs() <= SIN_COS_BOUND;
    for_each_outside(&x, in_range, |l| (sin[l], cos[l]) = x[l].sin_cos());
    (sin, cos)
}

/// `ln x` of every lane. Lanes that are not finite normal positive numbers
/// (zero, subnormal, negative, infinite or NaN) take libm's [`f64::ln`].
#[inline(always)]
pub fn ln_lanes<const L: usize>(x: [f64; L]) -> [f64; L] {
    let mut out = [0.0; L];
    for l in 0..L {
        out[l] = ln_kernel(x[l]);
    }
    let in_range = |x: f64| (f64::MIN_POSITIVE..f64::INFINITY).contains(&x);
    for_each_outside(&x, in_range, |l| out[l] = x[l].ln());
    out
}

/// `(sin x, cos x)`: the one-lane case of [`sin_cos_lanes`].
#[inline]
pub fn sin_cos(x: f64) -> (f64, f64) {
    let (sin, cos) = sin_cos_lanes([x]);
    (sin[0], cos[0])
}

/// `ln x`: the one-lane case of [`ln_lanes`].
#[inline]
pub fn ln(x: f64) -> f64 {
    ln_lanes([x])[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::FRAC_PI_4;

    /// Distance in representable doubles, counting `+0` and `-0` as one
    /// point.
    fn ulps(a: f64, b: f64) -> u64 {
        let ordered = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN.wrapping_sub(bits)
            } else {
                bits
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    /// Arguments that exercise every path: random magnitudes of both signs,
    /// multiples of pi/4, signed zeros, both sides of the fallback bound,
    /// the edges of `ln`'s range, infinities and NaN.
    fn awkward_arguments() -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(5);
        let mut xs = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            SIN_COS_BOUND,
            -SIN_COS_BOUND,
            SIN_COS_BOUND.next_up(),
            SIN_COS_BOUND.next_down(),
            -SIN_COS_BOUND.next_up(),
            -SIN_COS_BOUND.next_down(),
            1e300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE.next_down(),
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(u64::MAX),
        ];
        xs.extend((-400..=400).map(|k| f64::from(k) * FRAC_PI_4));
        xs.extend((0..4000).map(|_| {
            let magnitude = 10f64.powf(rng.gen_range(-300.0..7.0));
            if rng.gen::<bool>() {
                -magnitude
            } else {
                magnitude
            }
        }));
        xs.extend((0..4000).map(|_| rng.gen_range(-1e3..1e3)));
        xs
    }

    #[test]
    fn every_lane_equals_the_one_lane_call() {
        let xs = awkward_arguments();
        for chunk in xs.chunks(16) {
            let mut lanes = [0.0; 16];
            lanes[..chunk.len()].copy_from_slice(chunk);
            let (sin, cos) = sin_cos_lanes(lanes);
            let logs = ln_lanes(lanes);
            for (l, &x) in lanes.iter().enumerate() {
                let (s, c) = sin_cos(x);
                assert_eq!(sin[l].to_bits(), s.to_bits(), "sin lane {l} of {x:e}");
                assert_eq!(cos[l].to_bits(), c.to_bits(), "cos lane {l} of {x:e}");
                assert_eq!(logs[l].to_bits(), ln(x).to_bits(), "ln lane {l} of {x:e}");
            }
        }
    }

    #[test]
    fn special_values_follow_libm() {
        for x in [0.0, -0.0, 1e300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let (s, c) = sin_cos(x);
            let (ls, lc) = x.sin_cos();
            assert!(
                s.to_bits() == ls.to_bits() || (s.is_nan() && ls.is_nan()),
                "sin {x}"
            );
            assert!(
                c.to_bits() == lc.to_bits() || (c.is_nan() && lc.is_nan()),
                "cos {x}"
            );
        }
        assert_eq!(ln(1.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        assert!(ln(-1.0).is_nan() && ln(f64::NAN).is_nan());
        let subnormal = f64::MIN_POSITIVE / 3.0;
        assert_eq!(ln(subnormal), subnormal.ln());
    }

    #[test]
    fn sin_and_cos_stay_within_one_and_two_ulp_of_libm() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut xs: Vec<f64> = (0..200_000).map(|_| rng.gen_range(-1e3..1e3)).collect();
        xs.extend((0..20_000).map(|_| rng.gen_range(-4.0..4.0)));
        xs.extend((-1273..=1273).map(|k| f64::from(k) * FRAC_PI_4));
        let (mut worst_sin, mut worst_cos) = (0, 0);
        for x in xs {
            let (s, c) = sin_cos(x);
            worst_sin = worst_sin.max(ulps(s, x.sin()));
            worst_cos = worst_cos.max(ulps(c, x.cos()));
        }
        assert!(worst_sin <= 1, "sin off by {worst_sin} ulp");
        assert!(worst_cos <= 2, "cos off by {worst_cos} ulp");
    }

    #[test]
    fn ln_stays_within_one_ulp_of_libm() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut xs: Vec<f64> = (0..100_000)
            .map(|_| rng.gen_range(f64::MIN_POSITIVE..1.0))
            .collect();
        xs.extend((0..100_000).map(|_| 2f64.powf(rng.gen_range(-1022.0..0.0))));
        xs.extend((1..2000).map(|k| 1.0 - f64::EPSILON * f64::from(k)));
        xs.extend([f64::MIN_POSITIVE, 0.5, 1.0, std::f64::consts::FRAC_1_SQRT_2]);
        let mut worst = 0;
        for x in xs {
            worst = worst.max(ulps(ln(x), x.ln()));
        }
        assert!(worst <= 1, "ln off by {worst} ulp");
    }
}
