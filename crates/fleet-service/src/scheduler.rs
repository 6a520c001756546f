//! Queueing-aware admission for the fleet daemon.
//!
//! The paper's Fig. 15 shows cloud queuing dwarfing every compute
//! component, so a fleet scheduler that balances only *busy minutes* is
//! optimizing the small term. This module folds the cost model's
//! per-device queue-wait samples
//! ([`CostModel::queuing_minutes`]) into placement: a session is admitted
//! to the device minimizing `queue_wait + projected backlog`.
//!
//! Everything here is deterministic: queue waits are a pure function of
//! `(seed, device label)`, and ties break toward the lower device index.

use vaqem_mathkit::rng::SeedStream;
use vaqem_runtime::cost::{AngleTuningMode, CostModel, WorkloadProfile};

/// Deterministic queue-wait samples, one per device, keyed by the device
/// label — the waits [`admit`] adds to each device's projected backlog.
pub fn device_queue_minutes(
    cost: &CostModel,
    seeds: &SeedStream,
    profile: &WorkloadProfile,
    device_names: &[String],
) -> Vec<f64> {
    device_names
        .iter()
        .map(|name| cost.queuing_minutes(profile, AngleTuningMode::IdealSimulation, seeds, name))
        .collect()
}

/// Admission: the device index minimizing `queue_wait + backlog`.
///
/// # Determinism — the lowest-index rule
///
/// Ties always break toward the **lowest device index**: the scan runs
/// in index order and replaces the incumbent only on a *strictly*
/// smaller cost. Admission is therefore a pure function of the two
/// slices — replaying the same arrival sequence against the same
/// backlogs reproduces the same placements bit for bit, which the
/// deterministic fleet replays rely on.
///
/// # Edge cases, explicitly
///
/// * **Empty fleet** — panics: there is no meaningful fallback device,
///   and `FleetService::open` already rejects empty device lists, so an
///   empty slice here is always a caller bug.
/// * **Backlog/queue length mismatch** — panics for the same reason: a
///   projection for a device that does not exist (or a missing one)
///   means the caller's bookkeeping is broken, and guessing would
///   silently misroute sessions.
/// * **Non-finite costs** — a device whose `queue_wait + backlog` is
///   `NaN` or `+inf` never wins (the strict `<` comparison is false for
///   `NaN`, and infinity never undercuts the incumbent). If *every*
///   device is non-finite, the lowest index is returned — the same
///   deterministic fallback as an all-ties scan.
///
/// # Panics
///
/// Panics when the slices are empty or of different lengths.
pub fn admit(queue_wait_min: &[f64], backlog_min: &[f64]) -> usize {
    assert_eq!(
        queue_wait_min.len(),
        backlog_min.len(),
        "one backlog per device (got {} queue waits, {} backlogs)",
        queue_wait_min.len(),
        backlog_min.len()
    );
    assert!(
        !queue_wait_min.is_empty(),
        "fleet needs at least one device"
    );
    let mut best = 0usize;
    let mut best_cost = f64::INFINITY;
    for (d, (&q, &b)) in queue_wait_min.iter().zip(backlog_min).enumerate() {
        let cost = q + b;
        // Strict `<`: equal costs keep the earlier (lower-index) device,
        // and NaN costs never replace the incumbent.
        if cost < best_cost {
            best = d;
            best_cost = cost;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_prefers_short_queue_plus_backlog() {
        // Device 0 is idle but behind a huge queue; device 1 queues fast
        // but is busy; device 2 is the cheapest in total.
        assert_eq!(admit(&[500.0, 5.0, 20.0], &[0.0, 200.0, 30.0]), 2);
        // Ties break toward the lower index.
        assert_eq!(admit(&[10.0, 10.0], &[5.0, 5.0]), 0);
    }

    #[test]
    fn queue_samples_are_deterministic_per_label() {
        let cost = CostModel::ibm_cloud_2021();
        let seeds = SeedStream::new(9);
        let profile = WorkloadProfile {
            num_qubits: 3,
            circuit_ns: 9_000.0,
            iterations: 50,
            measurement_groups: 2,
            windows: 8,
            sweep_resolution: 3,
            shots: 256,
        };
        let names = vec!["east".to_string(), "west".to_string()];
        let a = device_queue_minutes(&cost, &seeds, &profile, &names);
        let b = device_queue_minutes(&cost, &seeds, &profile, &names);
        assert_eq!(a, b);
        assert_ne!(a[0], a[1], "labels decorrelate the samples");
        assert!(a.iter().all(|&q| q > 0.0));
    }

    #[test]
    #[should_panic(expected = "device")]
    fn admit_rejects_empty_fleet() {
        admit(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "one backlog per device")]
    fn admit_rejects_backlog_length_mismatch() {
        admit(&[1.0, 2.0], &[0.0]);
    }

    #[test]
    fn admit_ties_break_to_lowest_index_everywhere() {
        // All-equal costs: index 0 wins, wherever the tie sits.
        assert_eq!(admit(&[3.0, 3.0, 3.0], &[1.0, 1.0, 1.0]), 0);
        // A tie between later devices keeps the earlier of the two.
        assert_eq!(admit(&[9.0, 2.0, 2.0], &[0.0, 1.0, 1.0]), 1);
    }

    #[test]
    fn admit_never_picks_non_finite_costs() {
        // NaN and +inf devices lose to any finite one, whatever the
        // order.
        assert_eq!(admit(&[f64::NAN, 5.0], &[0.0, 0.0]), 1);
        assert_eq!(admit(&[5.0, f64::NAN], &[0.0, 0.0]), 0);
        assert_eq!(admit(&[f64::INFINITY, 80.0], &[0.0, 10.0]), 1);
        // All non-finite: deterministic lowest-index fallback.
        assert_eq!(admit(&[f64::NAN, f64::NAN], &[0.0, 0.0]), 0);
        assert_eq!(admit(&[f64::INFINITY, f64::NAN], &[0.0, 0.0]), 0);
    }
}
