//! Statistics used by the evaluation harness.
//!
//! The paper reports results as **Hellinger fidelity** between measured and
//! ideal count distributions (Figs. 5, 6, 9), **geometric means** of relative
//! improvements (Fig. 12), and summary statistics over drifting objective
//! values (Fig. 16). This module implements all of those plus small helpers
//! (linear spacing, summary accumulators) shared by the bench binaries.

/// Hellinger distance between two discrete probability distributions over
/// the same outcomes, given as slices indexed by outcome.
///
/// `H(p, q) = sqrt(1 - sum_i sqrt(p_i q_i))`, in `[0, 1]`. Panics as
/// [`bhattacharyya`] does.
pub fn hellinger_distance(p: &[f64], q: &[f64]) -> f64 {
    let bc = bhattacharyya(p, q);
    (1.0 - bc.min(1.0)).max(0.0).sqrt()
}

/// Hellinger fidelity `(1 - H^2)^2 = BC^2`, matching
/// `qiskit.quantum_info.hellinger_fidelity` and the metric used in the paper's
/// micro-benchmarks (Fig. 6). Panics as [`bhattacharyya`] does.
pub fn hellinger_fidelity(p: &[f64], q: &[f64]) -> f64 {
    let bc = bhattacharyya(p, q).min(1.0);
    bc * bc
}

/// Bhattacharyya coefficient `sum_i sqrt(p_i q_i)`, summed in index order so
/// the same two distributions give the same bits in every process.
///
/// # Panics
///
/// Panics unless `p` and `q` have the same length.
pub fn bhattacharyya(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distributions differ in length");
    let mut bc = 0.0;
    for (&pv, &qv) in p.iter().zip(q) {
        if pv > 0.0 && qv > 0.0 {
            bc += (pv * qv).sqrt();
        }
    }
    bc
}

/// Apportions `total` integer units across `weights` by the largest-remainder
/// (Hamilton) method: each entry gets the floor of its exact quota
/// `weight / sum * total`, and the leftover units go to the entries with the
/// largest fractional remainders (ties broken by lowest index).
///
/// Unlike independent per-entry rounding, the result always sums to exactly
/// `total` — the property the simulators' `exact_counts` paths rely on so a
/// "noise-free reference histogram" really contains `shots` shots.
/// Non-finite or negative weights are treated as zero; if every weight is
/// zero, the whole `total` is assigned to index 0 (if any).
pub fn largest_remainder(weights: &[f64], total: u64) -> Vec<u64> {
    if weights.is_empty() {
        return Vec::new();
    }
    let clean: Vec<f64> = weights
        .iter()
        .map(|&w| if w.is_finite() && w > 0.0 { w } else { 0.0 })
        .collect();
    let sum: f64 = clean.iter().sum();
    let mut out = vec![0u64; clean.len()];
    if sum <= 0.0 {
        out[0] = total;
        return out;
    }
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(clean.len());
    let mut assigned: u64 = 0;
    for (i, &w) in clean.iter().enumerate() {
        let quota = w / sum * total as f64;
        let floor = quota.floor().min(total as f64) as u64;
        out[i] = floor;
        assigned += floor;
        fracs.push((i, quota - floor as f64));
    }
    // Largest fractional remainder first; ties to the lowest index so the
    // apportionment is deterministic.
    fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut leftover = total.saturating_sub(assigned);
    let mut cursor = 0;
    while leftover > 0 {
        let (idx, _) = fracs[cursor % fracs.len()];
        out[idx] += 1;
        leftover -= 1;
        cursor += 1;
    }
    out
}

/// Geometric mean of strictly positive values, the aggregation the paper uses
/// for its headline "3.02x over baseline" claim (Fig. 12, last column).
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population standard deviation. Returns 0 for slices shorter than 2.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Minimum of a slice; `None` when empty.
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// Maximum of a slice; `None` when empty.
pub fn max(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::max)
}

/// `n` evenly spaced points from `start` to `end` inclusive.
///
/// # Panics
///
/// Panics when `n < 2`.
pub fn linspace(start: f64, end: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    let step = (end - start) / (n - 1) as f64;
    (0..n).map(|i| start + step * i as f64).collect()
}

/// Online accumulator for mean/variance/min/max (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use vaqem_mathkit::stats::Summary;
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0] { s.add(v); }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn add(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Range `max - min` (0 when empty).
    pub fn range(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max - self.min
        }
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.add(v);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hellinger_identical_distributions() {
        let p = [0.5, 0.0, 0.0, 0.5];
        assert!((hellinger_fidelity(&p, &p) - 1.0).abs() < 1e-12);
        assert!(hellinger_distance(&p, &p) < 1e-12);
    }

    #[test]
    fn hellinger_disjoint_distributions() {
        let p = [1.0, 0.0, 0.0, 0.0];
        let q = [0.0, 0.0, 0.0, 1.0];
        assert!(hellinger_fidelity(&p, &q) < 1e-12);
        assert!((hellinger_distance(&p, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hellinger_known_value() {
        // p = (1, 0), q = (0.5, 0.5): BC = sqrt(0.5), fidelity = 0.5.
        let p = [1.0, 0.0];
        let q = [0.5, 0.5];
        assert!((hellinger_fidelity(&p, &q) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fidelity_is_symmetric_and_bounded() {
        let p = [0.2, 0.3, 0.5];
        let q = [0.4, 0.4, 0.2];
        let f1 = hellinger_fidelity(&p, &q);
        let f2 = hellinger_fidelity(&q, &p);
        assert!((f1 - f2).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&f1));
    }

    #[test]
    fn geometric_mean_matches_paper_style_aggregation() {
        // geomean(1, 4) = 2
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        // geomean of identical values is the value
        assert!((geometric_mean(&[3.02, 3.02, 3.02]) - 3.02).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_nonpositive() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn linspace_endpoints_and_count() {
        let xs = linspace(0.0, 1.0, 5);
        assert_eq!(xs.len(), 5);
        assert!((xs[0]).abs() < 1e-12);
        assert!((xs[4] - 1.0).abs() < 1e-12);
        assert!((xs[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summary_accumulator() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.range(), 7.0);
    }

    #[test]
    fn summary_empty_is_safe() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn largest_remainder_sums_exactly() {
        // Independent rounding would give 333+333+333 = 999 or
        // 334+334+334 = 1002; Hamilton apportionment hits 1000 exactly.
        let out = largest_remainder(&[1.0, 1.0, 1.0], 1000);
        assert_eq!(out.iter().sum::<u64>(), 1000);
        assert_eq!(out, vec![334, 333, 333]);
    }

    #[test]
    fn largest_remainder_respects_proportions() {
        let out = largest_remainder(&[0.5, 0.25, 0.25], 4096);
        assert_eq!(out, vec![2048, 1024, 1024]);
        let skew = largest_remainder(&[0.9, 0.1], 10);
        assert_eq!(skew, vec![9, 1]);
    }

    #[test]
    fn largest_remainder_edge_cases() {
        assert!(largest_remainder(&[], 10).is_empty());
        assert_eq!(largest_remainder(&[0.0, 0.0], 7), vec![7, 0]);
        assert_eq!(largest_remainder(&[f64::NAN, 1.0], 5), vec![0, 5]);
        assert_eq!(largest_remainder(&[1.0], 0), vec![0]);
    }
}
