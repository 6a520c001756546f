//! The tenant-behavior axis: how clients arrive at the contention
//! device in a cell's multi-tenant phase.

/// One tenant-mix pattern, driven against a single device so the
/// weighted round-robin arbitration is observable in the device's
/// serialized completion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TenantBehavior {
    /// Three equal tenants submit interleaved, two sessions each — the
    /// baseline the fairness bound should hold trivially on.
    Uniform,
    /// One heavy tenant floods the device *before* three light tenants
    /// submit one session each — the adversarial FIFO case; fairness
    /// must pull the light sessions inside the first rotation.
    Bursty,
    /// A quota-probing tenant capped at two in-flight sessions bursts
    /// three submissions behind a blocker; the third must bounce off
    /// the cap with the typed error while everyone admitted completes.
    Greedy,
    /// Churn with mid-stream disconnects: one of three tenants drops
    /// its reply channels immediately after submitting; the reactor
    /// must finish its sessions anyway, keep the survivors fair, and
    /// serve a late-arriving tenant afterwards.
    Churn,
}

impl TenantBehavior {
    /// All four behaviors, in grid order.
    pub const ALL: [TenantBehavior; 4] = [
        TenantBehavior::Uniform,
        TenantBehavior::Bursty,
        TenantBehavior::Greedy,
        TenantBehavior::Churn,
    ];

    /// Stable grid label.
    pub fn label(&self) -> &'static str {
        match self {
            TenantBehavior::Uniform => "uniform",
            TenantBehavior::Bursty => "bursty",
            TenantBehavior::Greedy => "greedy",
            TenantBehavior::Churn => "churn",
        }
    }

    /// One-line description for the report.
    pub fn description(&self) -> &'static str {
        match self {
            TenantBehavior::Uniform => "three equal tenants, interleaved submissions",
            TenantBehavior::Bursty => "one heavy backlog ahead of three light tenants",
            TenantBehavior::Greedy => "in-flight-capped tenant probing its quota",
            TenantBehavior::Churn => "mid-stream disconnect plus a late joiner",
        }
    }
}
