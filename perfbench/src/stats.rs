//! The benchmark's own arithmetic, kept apart so its tests pin it: exact
//! percentiles over the kept raw samples with the "at least ten samples
//! beyond" reporting rule, latency timed from the due time, SLO
//! attainment that counts failures as misses, and self-time subtraction
//! over child spans.

/// Fewest samples that must rank beyond a percentile before it is
/// reported: with fewer, the "percentile" is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Kept raw samples, sorted once, for exact percentiles. A histogram's
/// buckets (the runtime's `LatencyHistogram` is ~7% wide) would eat most
/// of a regression bound.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` into a sample set.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// 1-based nearest rank of the `q` percentile (`self` non-empty).
    fn rank(&self, q: f64) -> usize {
        let n = self.sorted.len();
        ((q * n as f64).ceil() as usize).clamp(1, n)
    }

    /// Exact nearest-rank percentile: the smallest sample with at least a
    /// `q` share of all samples at or below it. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[self.rank(q) - 1])
    }

    /// How many samples rank beyond the `q` percentile.
    pub fn beyond(&self, q: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - self.rank(q)
    }

    /// The `q` percentile, but only when at least [`MIN_BEYOND`] samples
    /// rank beyond it.
    pub fn supported(&self, q: f64) -> Option<f64> {
        if self.beyond(q) >= MIN_BEYOND {
            self.percentile(q)
        } else {
            None
        }
    }

    /// The median, `None` when empty.
    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// The arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }
}

/// Median of `values`, or 0 when there are none (a layer that did no
/// work on the workload).
pub fn median_or_zero(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median().unwrap_or(0.0)
}

/// Mean of `values`, or 0 when there are none.
pub fn mean_or_zero(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).mean().unwrap_or(0.0)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio_or_zero(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// One attempted session, in seconds since the run's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attempt {
    /// When the schedule said to send it.
    pub due: f64,
    /// When it was actually sent (`None`: never sent).
    pub sent: Option<f64>,
    /// When its answer arrived (`None`: never answered).
    pub done: Option<f64>,
    /// Whether the answer was a result rather than an error or refusal.
    pub ok: bool,
}

impl Attempt {
    /// A session due at `due` that has not been sent yet.
    pub fn due_at(due: f64) -> Self {
        Attempt {
            due,
            sent: None,
            done: None,
            ok: false,
        }
    }

    /// Latency of an answered session, timed from when it was *due*: a
    /// send the generator made late counts against it, so a stall is
    /// charged to every session it delayed.
    pub fn latency(&self) -> Option<f64> {
        self.done.map(|done| done - self.due)
    }

    /// How late the generator sent the session.
    pub fn lag(&self) -> Option<f64> {
        self.sent.map(|sent| sent - self.due)
    }
}

/// Latencies of the sessions answered with a result.
pub fn ok_latencies(attempts: &[Attempt]) -> Samples {
    Samples::new(
        attempts
            .iter()
            .filter(|a| a.ok)
            .filter_map(Attempt::latency)
            .collect(),
    )
}

/// The median, over `windows` equal slices of `span` seconds (by due
/// time), of `per_slice` of each slice's attempts: a burst that disturbs
/// less than half the slices cannot move it, while a change to every
/// session does. Slices where `per_slice` gives `None` are skipped.
fn windowed(
    attempts: &[Attempt],
    span: f64,
    windows: usize,
    per_slice: impl Fn(&[Attempt]) -> Option<f64>,
) -> Option<f64> {
    let per_window: Vec<f64> = (0..windows)
        .filter_map(|w| {
            let (from, to) = (
                span * w as f64 / windows as f64,
                span * (w + 1) as f64 / windows as f64,
            );
            let slice: Vec<Attempt> = attempts
                .iter()
                .filter(|a| a.due >= from && a.due < to)
                .copied()
                .collect();
            per_slice(&slice)
        })
        .collect();
    Samples::new(per_window).median()
}

/// The median over `windows` equal slices of each slice's median latency.
pub fn windowed_median(attempts: &[Attempt], span: f64, windows: usize) -> Option<f64> {
    windowed(attempts, span, windows, |slice| {
        ok_latencies(slice).median()
    })
}

/// The median over `windows` equal slices of each slice's SLO attainment
/// (failures still count as misses within their slice).
pub fn windowed_attainment(
    attempts: &[Attempt],
    span: f64,
    windows: usize,
    limit: f64,
) -> Option<f64> {
    windowed(attempts, span, windows, |slice| {
        (!slice.is_empty()).then(|| slo_attainment(slice, limit))
    })
}

/// Generator lag of every session sent.
pub fn lags(attempts: &[Attempt]) -> Samples {
    Samples::new(attempts.iter().filter_map(Attempt::lag).collect())
}

/// Share of *attempted* sessions answered with a result within `limit`
/// seconds. Errors, refusals and sessions never answered count as
/// misses.
pub fn slo_attainment(attempts: &[Attempt], limit: f64) -> f64 {
    let met = attempts
        .iter()
        .filter(|a| a.ok && a.latency().is_some_and(|l| l <= limit))
        .count();
    ratio_or_zero(met as f64, attempts.len() as f64)
}

/// Self time of a span: its length minus the part of it its child spans
/// cover. Children are clipped to the span and overlaps count once.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (start, end) = span;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                covered += oe - os;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((os, oe)) = open {
        covered += oe - os;
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let s = one_to(1000);
        assert_eq!(s.percentile(0.5), Some(500.0));
        assert_eq!(s.percentile(0.9), Some(900.0));
        assert_eq!(s.percentile(0.99), Some(990.0));
        assert_eq!(s.percentile(1.0), Some(1000.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(Samples::default().percentile(0.5), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly 10 rank beyond p99, so it is reported.
        let s = one_to(1000);
        assert_eq!(s.beyond(0.99), 10);
        assert_eq!(s.supported(0.99), Some(990.0));
        // 999 samples: only 9 rank beyond p99, so it is not; p90 still is.
        let s = one_to(999);
        assert_eq!(s.beyond(0.99), 9);
        assert_eq!(s.supported(0.99), None);
        assert_eq!(s.supported(0.9), Some(900.0));
        // Too few samples for any tail at all.
        assert_eq!(one_to(9).supported(0.5), None);
    }

    #[test]
    fn latency_is_timed_from_the_due_time() {
        // Due at 0, sent 4 ms late, answered 1 ms after the send: the
        // session waited 5 ms, not the 1 ms a send-time clock would say.
        let a = Attempt {
            due: 0.0,
            sent: Some(0.004),
            done: Some(0.005),
            ok: true,
        };
        assert!((a.latency().unwrap() - 0.005).abs() < 1e-12);
        assert!((a.lag().unwrap() - 0.004).abs() < 1e-12);
        assert_eq!(ok_latencies(&[a]).len(), 1);
        assert_eq!(Attempt::due_at(1.0).latency(), None);
    }

    #[test]
    fn failures_and_refusals_count_as_slo_misses() {
        let answered = |done: f64, ok: bool| Attempt {
            due: 0.0,
            sent: Some(0.0),
            done: Some(done),
            ok,
        };
        let attempts = [
            answered(0.001, true),  // met
            answered(0.020, true),  // too slow
            answered(0.001, false), // fast, but an error
            Attempt::due_at(0.0),   // never answered
        ];
        assert_eq!(slo_attainment(&attempts, 0.005), 0.25);
        // Failed sessions are no latency samples either.
        assert_eq!(ok_latencies(&attempts).len(), 2);
        assert_eq!(slo_attainment(&[], 0.005), 0.0);
    }

    #[test]
    fn the_windowed_median_ignores_a_burst_in_a_minority_of_windows() {
        let at = |due: f64, latency: f64| Attempt {
            due,
            sent: Some(due),
            done: Some(due + latency),
            ok: true,
        };
        // Ten 1-second windows of 1 ms sessions; two windows run at 9 ms.
        let mut attempts: Vec<Attempt> = (0..100)
            .map(|i| at(i as f64 / 10.0, if i < 20 { 0.009 } else { 0.001 }))
            .collect();
        let calm = windowed_median(&attempts, 10.0, 10).unwrap();
        assert!((calm - 0.001).abs() < 1e-12, "{calm}");
        // Slow every session and the windowed median follows.
        for a in &mut attempts {
            a.done = Some(a.due + 0.002);
        }
        let got = windowed_median(&attempts, 10.0, 10).unwrap();
        assert!((got - 0.002).abs() < 1e-12, "{got}");
        assert_eq!(windowed_median(&[], 10.0, 10), None);
    }

    #[test]
    fn windowed_attainment_ignores_a_burst_but_counts_failures_everywhere() {
        let at = |due: f64, latency: f64, ok: bool| Attempt {
            due,
            sent: Some(due),
            done: Some(due + latency),
            ok,
        };
        // Ten 1-second windows of 1 ms sessions; in two windows every
        // session takes 9 ms, past the 5 ms limit.
        let mut attempts: Vec<Attempt> = (0..100)
            .map(|i| at(i as f64 / 10.0, if i < 20 { 0.009 } else { 0.001 }, true))
            .collect();
        assert_eq!(slo_attainment(&attempts, 0.005), 0.8);
        assert_eq!(windowed_attainment(&attempts, 10.0, 10, 0.005), Some(1.0));
        // One fast failure in every window: each window meets 9 of 10.
        for a in attempts.iter_mut().step_by(10) {
            *a = at(a.due, 0.001, false);
        }
        assert_eq!(windowed_attainment(&attempts, 10.0, 10, 0.005), Some(0.9));
        assert_eq!(windowed_attainment(&[], 10.0, 10, 0.005), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_spans() {
        // Children overlap ([1,3] and [2,4] cover 3), one starts before
        // the span and one ends after it (each clipped).
        let children = [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0), (-1.0, 0.5)];
        let got = self_time((0.0, 10.0), &children);
        assert!((got - 4.5).abs() < 1e-12, "{got}");
        assert_eq!(self_time((0.0, 2.0), &[]), 2.0);
        assert_eq!(self_time((0.0, 2.0), &[(5.0, 6.0)]), 2.0);
    }

    #[test]
    fn empty_layers_read_zero() {
        assert_eq!(median_or_zero(&[]), 0.0);
        assert_eq!(mean_or_zero(&[]), 0.0);
        assert_eq!(ratio_or_zero(3.0, 0.0), 0.0);
        assert_eq!(median_or_zero(&[3.0, 1.0, 2.0]), 2.0);
    }
}
