//! Per-cell invariant checks and their outcomes.
//!
//! Each check returns an [`InvariantOutcome`] instead of panicking, so
//! a matrix run always completes the full grid and the report shows
//! *which* cells broke *which* invariant — the driver (test or replay
//! binary) asserts the aggregate at the end.

use vaqem_fleet_service::FleetMetricsReport;

/// One invariant's verdict in one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantOutcome {
    /// Stable invariant name (a report/JSON key, e.g.
    /// `starvation_bound`).
    pub name: &'static str,
    /// Whether the invariant held.
    pub pass: bool,
    /// Human-readable evidence: the bound and the observed value on
    /// pass, the violation on fail.
    pub detail: String,
}

impl InvariantOutcome {
    /// Builds an outcome.
    pub fn new(name: &'static str, pass: bool, detail: impl Into<String>) -> Self {
        InvariantOutcome {
            name,
            pass,
            detail: detail.into(),
        }
    }
}

/// Checks the fair queue's starvation-freedom bound on one
/// device's completion order: at every prefix, every client that is
/// still backlogged has completed at least
/// `floor(prefix x weight_share) - 1` sessions (equal weights here, so
/// `weight_share = 1 / clients`).
///
/// `order` is the device's serialized completion order (client labels,
/// earliest first); `submitted` the per-client admitted session counts.
pub fn starvation_bound(order: &[String], submitted: &[(String, usize)]) -> InvariantOutcome {
    const NAME: &str = "starvation_bound";
    let total_weight = submitted.len() as f64;
    let mut done: Vec<(&str, usize)> = submitted.iter().map(|(c, _)| (c.as_str(), 0)).collect();
    for prefix in 1..=order.len() {
        let client = order[prefix - 1].as_str();
        match done.iter_mut().find(|(c, _)| *c == client) {
            Some(entry) => entry.1 += 1,
            None => {
                return InvariantOutcome::new(
                    NAME,
                    false,
                    format!("unknown client {client} in completion order"),
                )
            }
        }
        for (c, completed) in &done {
            let all = submitted
                .iter()
                .find(|(s, _)| s == c)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            if all == *completed {
                continue; // no longer backlogged: the bound no longer binds
            }
            let share = (prefix as f64 / total_weight).floor() as isize - 1;
            if (*completed as isize) < share {
                return InvariantOutcome::new(
                    NAME,
                    false,
                    format!(
                        "client {c} starved: {completed} of a fair {share} after {prefix} \
                         completions (order {order:?})"
                    ),
                );
            }
        }
    }
    let expected: usize = submitted.iter().map(|(_, n)| n).sum();
    if order.len() != expected {
        return InvariantOutcome::new(
            NAME,
            false,
            format!("{} completions observed, {expected} admitted", order.len()),
        );
    }
    InvariantOutcome::new(
        NAME,
        true,
        format!(
            "{} completions across {} tenants kept every prefix within one session of its share",
            order.len(),
            submitted.len()
        ),
    )
}

/// Checks that fair arbitration pulls light tenants ahead of a heavy
/// backlog: every session of every client but `heavy` completes within
/// the first `tenants x light_n + 1` positions of `order`, where
/// `light_n` is the largest light submission count. With equal weights
/// each rotation serves every tenant once, and the `+ 1` is the heavy
/// session already running when the lights arrived. FIFO would complete
/// the lights last, behind the whole heavy backlog — an order the
/// starvation bound alone still accepts.
pub(crate) fn fair_window(
    order: &[String],
    submitted: &[(String, usize)],
    heavy: &str,
) -> InvariantOutcome {
    const NAME: &str = "fair_window";
    let lights = submitted.iter().filter(|(c, _)| c != heavy);
    let light_n = lights.clone().map(|(_, n)| *n).max().unwrap_or(0);
    let window = submitted.len() * light_n + 1;
    for (light, _) in lights {
        match order.iter().rposition(|c| c == light) {
            Some(last) if last < window => {}
            Some(last) => {
                return InvariantOutcome::new(
                    NAME,
                    false,
                    format!(
                        "light client {light} finished at position {last}, outside the fair \
                         window of {window} (order {order:?})"
                    ),
                )
            }
            None => {
                return InvariantOutcome::new(
                    NAME,
                    false,
                    format!("light client {light} never completed (order {order:?})"),
                )
            }
        }
    }
    InvariantOutcome::new(
        NAME,
        true,
        format!("every light session completed within the first {window} positions"),
    )
}

/// Checks quota reserve == settle accounting against the final metrics
/// report: the drained ledger must hold zero in-flight sessions and
/// zero reserved minutes for every client, and each client's
/// `completed + rejected` must equal what the harness submitted.
pub fn quota_accounting(
    report: &FleetMetricsReport,
    submitted: &[(String, u64)],
) -> InvariantOutcome {
    const NAME: &str = "quota_accounting";
    for u in &report.quotas {
        if u.in_flight != 0 || u.reserved_min.abs() > 1e-9 {
            return InvariantOutcome::new(
                NAME,
                false,
                format!(
                    "client {} drained with {} in flight and {} min reserved",
                    u.client, u.in_flight, u.reserved_min
                ),
            );
        }
        let expected = submitted
            .iter()
            .find(|(c, _)| *c == u.client)
            .map(|(_, n)| *n);
        match expected {
            Some(n) if u.completed + u.rejected == n => {}
            Some(n) => {
                return InvariantOutcome::new(
                    NAME,
                    false,
                    format!(
                        "client {}: {} completed + {} rejected != {n} submitted",
                        u.client, u.completed, u.rejected
                    ),
                )
            }
            None => {
                return InvariantOutcome::new(
                    NAME,
                    false,
                    format!("client {} in the ledger was never submitted", u.client),
                )
            }
        }
    }
    if report.quotas.len() != submitted.len() {
        return InvariantOutcome::new(
            NAME,
            false,
            format!(
                "{} clients in the ledger, {} submitted",
                report.quotas.len(),
                submitted.len()
            ),
        );
    }
    InvariantOutcome::new(
        NAME,
        true,
        format!(
            "{} clients settled every reservation exactly once (0 in flight, 0.0 min reserved)",
            report.quotas.len()
        ),
    )
}

/// Checks that the warm round's total machine minutes undercut the cold
/// round's.
pub fn warm_cheaper_than_cold(cold_min: f64, warm_min: f64) -> InvariantOutcome {
    const NAME: &str = "warm_cheaper_than_cold";
    InvariantOutcome::new(
        NAME,
        warm_min < cold_min,
        format!("warm {warm_min:.3} min vs cold {cold_min:.3} min"),
    )
}

/// Checks kill-and-restart recovery: the journal replay must have
/// carried state, the post-restart round must produce real warm hits,
/// and its hit rate must be no worse than the pre-kill warm round's.
pub fn restart_recovery(
    recovered_records: u64,
    warm_rate: f64,
    recovery_hits: usize,
    recovery_rate: f64,
) -> InvariantOutcome {
    const NAME: &str = "restart_recovery";
    let pass = recovered_records > 0 && recovery_hits > 0 && recovery_rate + 1e-9 >= warm_rate;
    InvariantOutcome::new(
        NAME,
        pass,
        format!(
            "{recovered_records} records recovered; hit rate {:.0}% after restart vs {:.0}% before",
            100.0 * recovery_rate,
            100.0 * warm_rate
        ),
    )
}

/// Checks guard-accepted warm == cold parity: every warm outcome that
/// was a *full* warm hit (no misses, guard accepted) must have adopted
/// exactly the configuration its client's cold session tuned.
/// `comparisons` counts the qualifying outcomes, `mismatches` those
/// whose adopted config differed.
pub fn warm_cold_parity(comparisons: usize, mismatches: usize) -> InvariantOutcome {
    const NAME: &str = "warm_cold_parity";
    if comparisons == 0 {
        // Vacuous: no fully-warm outcome to compare. Recorded as such —
        // the warm/recovery invariants above already fail loudly when
        // hits vanish entirely.
        return InvariantOutcome::new(NAME, true, "vacuous: no full warm hit this cell");
    }
    InvariantOutcome::new(
        NAME,
        mismatches == 0,
        format!("{comparisons} full warm hits compared, {mismatches} diverged from cold"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submitted(counts: &[(&str, usize)]) -> Vec<(String, usize)> {
        counts.iter().map(|&(c, n)| (c.to_string(), n)).collect()
    }

    fn order(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn round_robin_order_satisfies_the_bound() {
        let out = starvation_bound(
            &order(&["a", "b", "a", "b"]),
            &submitted(&[("a", 2), ("b", 2)]),
        );
        assert!(out.pass, "{}", out.detail);
    }

    #[test]
    fn a_starved_client_fails_the_bound() {
        // b backlogged for 5 completions while a takes them all.
        let out = starvation_bound(
            &order(&["a", "a", "a", "a", "a", "b"]),
            &submitted(&[("a", 5), ("b", 1)]),
        );
        assert!(!out.pass);
        assert!(out.detail.contains("starved"), "{}", out.detail);
    }

    #[test]
    fn missing_completions_fail_the_bound() {
        let out = starvation_bound(&order(&["a"]), &submitted(&[("a", 2)]));
        assert!(!out.pass);
    }

    #[test]
    fn fair_window_accepts_drr_and_catches_fifo() {
        let submitted = submitted(&[("heavy", 4), ("light-a", 1), ("light-b", 1), ("light-c", 1)]);
        // Round-robin: one heavy session was running when the lights
        // arrived, then one rotation serves each light.
        let fair = order(&[
            "heavy", "light-a", "light-b", "light-c", "heavy", "heavy", "heavy",
        ]);
        let out = fair_window(&fair, &submitted, "heavy");
        assert!(out.pass, "{}", out.detail);
        // FIFO parks the lights at positions 4, 5 and 6, behind the whole
        // heavy backlog; the starvation bound still accepts that order.
        let fifo = order(&[
            "heavy", "heavy", "heavy", "heavy", "light-a", "light-b", "light-c",
        ]);
        assert!(starvation_bound(&fifo, &submitted).pass);
        let out = fair_window(&fifo, &submitted, "heavy");
        assert!(!out.pass);
        assert!(out.detail.contains("light-b"), "{}", out.detail);
    }

    #[test]
    fn warm_cost_comparison_is_strict() {
        assert!(warm_cheaper_than_cold(10.0, 4.0).pass);
        assert!(!warm_cheaper_than_cold(4.0, 4.0).pass);
    }

    #[test]
    fn parity_is_vacuous_without_full_hits() {
        let out = warm_cold_parity(0, 0);
        assert!(out.pass && out.detail.contains("vacuous"));
        assert!(!warm_cold_parity(2, 1).pass);
    }

    #[test]
    fn recovery_requires_rate_preservation() {
        assert!(restart_recovery(12, 1.0, 4, 1.0).pass);
        assert!(!restart_recovery(12, 1.0, 4, 0.5).pass);
        assert!(!restart_recovery(0, 1.0, 4, 1.0).pass);
    }
}
