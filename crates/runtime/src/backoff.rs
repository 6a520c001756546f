//! Adaptive idle backoff for polling loops.
//!
//! One loop in the fleet polls for work it cannot block on: the RPC
//! front-end's portable scan source, which sweeps every connection
//! nonblockingly on the reactor thread (the epoll source blocks in the
//! kernel instead). It faces a tension — a fixed short sleep burns a
//! measurable fraction of a core on a quiet daemon, a fixed long sleep
//! adds latency to the first byte after a quiet spell. [`IdleBackoff`]
//! resolves it: sleep starts at a floor, doubles per consecutive idle
//! pass up to a ceiling, and snaps back to the floor the moment any
//! pass does work. An active loop keeps the floor's responsiveness; an
//! idle one converges to the ceiling's doze. (The replication follower
//! needs no backoff: the leader holds its caught-up syncs as long
//! polls.)

use std::time::Duration;

/// Adaptive idle sleep: floor-to-ceiling exponential backoff that
/// resets on activity. See the module docs for why the scan source
/// paces on this.
#[derive(Debug, Clone)]
pub struct IdleBackoff {
    floor: Duration,
    ceiling: Duration,
    current: Duration,
}

impl IdleBackoff {
    /// A backoff sleeping `floor` after the first idle pass, doubling
    /// per consecutive idle pass, capped at `ceiling`.
    ///
    /// # Panics
    ///
    /// Panics when `ceiling < floor` or `floor` is zero (a zero floor
    /// would never back off — the loop would spin).
    pub fn new(floor: Duration, ceiling: Duration) -> Self {
        assert!(!floor.is_zero(), "idle backoff floor must be nonzero");
        assert!(ceiling >= floor, "idle backoff ceiling below floor");
        IdleBackoff {
            floor,
            ceiling,
            current: floor,
        }
    }

    /// Called once per loop pass: returns how long to sleep (`None`
    /// after an active pass, which also resets the backoff to the
    /// floor).
    pub fn after(&mut self, active: bool) -> Option<Duration> {
        if active {
            self.current = self.floor;
            return None;
        }
        let sleep = self.current;
        self.current = (self.current * 2).min(self.ceiling);
        Some(sleep)
    }

    /// The configured floor (the first idle sleep after activity).
    pub fn floor(&self) -> Duration {
        self.floor
    }

    /// The configured ceiling (the idle sleep cap).
    pub fn ceiling(&self) -> Duration {
        self.ceiling
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_to_ceiling_and_resets_on_activity() {
        let mut backoff = IdleBackoff::new(Duration::from_millis(1), Duration::from_millis(10));
        let expected = [1u64, 2, 4, 8, 10, 10];
        for (pass, &ms) in expected.iter().enumerate() {
            assert_eq!(
                backoff.after(false),
                Some(Duration::from_millis(ms)),
                "idle pass {pass}"
            );
        }
        assert_eq!(backoff.after(true), None);
        assert_eq!(backoff.after(false), Some(Duration::from_millis(1)));
    }

    #[test]
    fn degenerate_equal_floor_and_ceiling_stays_flat() {
        let mut backoff = IdleBackoff::new(Duration::from_micros(500), Duration::from_micros(500));
        for _ in 0..4 {
            assert_eq!(backoff.after(false), Some(Duration::from_micros(500)));
        }
    }

    #[test]
    #[should_panic(expected = "ceiling below floor")]
    fn ceiling_below_floor_is_refused() {
        let _ = IdleBackoff::new(Duration::from_millis(2), Duration::from_millis(1));
    }
}
