//! The reactor's socket surface: how a transport front-end (the
//! `vaqem-fleet-rpc` crate) runs its connection I/O on the reactor
//! thread.
//!
//! A [`SocketDriver`] (supplied by the transport crate, attached via
//! `FleetService::attach_socket_driver`) owns the listener, every
//! connection's stream and all protocol state — framing, identity,
//! per-connection accounting and outbound bytes. While it is attached,
//! the reactor waits for work in [`SocketDriver::poll`] instead of on
//! its event channel: one pass writes what earlier calls queued, waits
//! for readiness, then accepts, reads and decodes, and returns the
//! [`DriverAction`]s the reactor executes — submitting a session on
//! behalf of a remote client (which then flows through the *same*
//! admission, DRR fairness, and quota gates as an in-process
//! `submit()`), or requesting a metrics snapshot. Threads that send the
//! reactor an event rouse a blocked `poll` through the driver's
//! [`SocketDriver::waker`].
//!
//! Because the driver runs on the reactor thread, a remote submission
//! and a local one are literally the same code path from admission
//! onward: remote greedy clients receive the same typed
//! `SessionError::Quota` rejections, remote sessions occupy the same
//! DRR lanes, and the metrics report covers both without merging.
//!
//! The driver's aggregate counters ([`RpcMetricsReport`]) ride inside
//! every `FleetMetricsReport` (zeroed when no driver is attached), so
//! the golden-schema pin covers the RPC surface too.

use std::sync::Arc;
use std::time::Duration;

use crate::daemon::{SessionRequest, SessionResult};
use crate::reactor::FleetMetricsReport;
use vaqem_runtime::json::JsonValue;
use vaqem_runtime::{ShipBatch, ShipCursor};

/// What a [`SocketDriver`] asks the reactor to do after a
/// [`SocketDriver::poll`] pass. Returned (rather than called back) so
/// the driver borrow and the reactor borrow never overlap.
#[derive(Debug)]
pub enum DriverAction {
    /// Submit a session on behalf of a remote client. The result is
    /// delivered back through [`SocketDriver::on_result`] with the same
    /// `(conn, token)` — or dropped silently if the connection hung up
    /// in the meantime.
    Submit {
        /// Connection the submission arrived on.
        conn: u64,
        /// Client-chosen correlation token, echoed with the result.
        token: u64,
        /// The request, with its client identity already bound by the
        /// driver (connection-scoped, not frame-scoped).
        request: SessionRequest,
    },
    /// Deliver a metrics snapshot through
    /// [`SocketDriver::on_metrics`].
    Metrics {
        /// Connection that asked.
        conn: u64,
        /// Correlation token, echoed with the reply.
        token: u64,
    },
    /// A replication follower acknowledged its durable cursor (a
    /// `JournalAck` frame). The reactor records the cursor, releases any
    /// session replies it now covers, produces the next shipment from
    /// the durable store, and hands it back through
    /// [`SocketDriver::on_ship`]. A follower that is already caught up
    /// gets its shipment at the next group commit that moves the
    /// journal, or an empty one after a heartbeat. The first ack on a
    /// connection subscribes it as a follower.
    ReplicaAck {
        /// Connection the ack arrived on.
        conn: u64,
        /// The follower's durable replication cursor.
        cursor: ShipCursor,
    },
    /// A connection that had subscribed as a replication follower
    /// closed. The reactor drops its cursor; when no followers remain,
    /// all gated replies release (the fleet degrades to single-process
    /// durability). Dropping the driver forgets all its followers the
    /// same way.
    ReplicaGone {
        /// The departed follower's connection.
        conn: u64,
    },
}

/// Aggregate counters of the RPC front-end, reported inside every
/// [`FleetMetricsReport`]. All zero when no driver is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RpcMetricsReport {
    /// Connections accepted since the server started.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections closed (EOF, error, protocol violation, overload).
    pub connections_closed: u64,
    /// Whole frames decoded from peers.
    pub frames_in: u64,
    /// Frames sent to peers.
    pub frames_out: u64,
    /// Payload bytes received (framing overhead excluded).
    pub bytes_in: u64,
    /// Payload bytes sent (framing overhead excluded).
    pub bytes_out: u64,
    /// Frames that failed to decode (bad tag, torn body, oversized
    /// prefix). Each also closes its connection.
    pub decode_errors: u64,
    /// Submissions rejected with `SessionError::Overloaded` because the
    /// connection's outbound queue crossed the soft bound.
    pub overload_rejections: u64,
    /// Connections force-closed because their outbound queue crossed
    /// the hard bound (a reader too slow to keep even rejections).
    pub overload_closes: u64,
    /// High-water mark of any single connection's pending outbound
    /// bytes.
    pub peak_pending_out_bytes: u64,
    /// CPU time the reactor thread, which runs the socket I/O, has
    /// consumed, in microseconds (0 where the platform offers no
    /// per-thread CPU clock). Monotonic: diffing two readings over a
    /// quiet window measures the serving thread's idle burn — the
    /// readiness source's headline advantage over the scan source.
    pub pump_cpu_micros: u64,
    /// [`SocketDriver::poll`] passes.
    pub pump_passes: u64,
    /// Times another thread roused a blocked poll through the wakeup
    /// pipe (readiness source only; the scan source never blocks).
    pub pump_wakeups: u64,
}

impl RpcMetricsReport {
    /// JSON rendering, nested under `"rpc"` in the fleet report; the
    /// golden-schema test pins these keys.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            (
                "connections_accepted",
                JsonValue::from(self.connections_accepted),
            ),
            ("connections_open", JsonValue::from(self.connections_open)),
            (
                "connections_closed",
                JsonValue::from(self.connections_closed),
            ),
            ("frames_in", JsonValue::from(self.frames_in)),
            ("frames_out", JsonValue::from(self.frames_out)),
            ("bytes_in", JsonValue::from(self.bytes_in)),
            ("bytes_out", JsonValue::from(self.bytes_out)),
            ("decode_errors", JsonValue::from(self.decode_errors)),
            (
                "overload_rejections",
                JsonValue::from(self.overload_rejections),
            ),
            ("overload_closes", JsonValue::from(self.overload_closes)),
            (
                "peak_pending_out_bytes",
                JsonValue::from(self.peak_pending_out_bytes),
            ),
            ("pump_cpu_micros", JsonValue::from(self.pump_cpu_micros)),
            ("pump_passes", JsonValue::from(self.pump_passes)),
            ("pump_wakeups", JsonValue::from(self.pump_wakeups)),
        ])
    }
}

/// A transport front-end, executed on the reactor thread. It owns the
/// listener, every connection and all protocol state; the reactor only
/// sees actions out and results in.
pub trait SocketDriver: Send {
    /// Runs one pass: writes what earlier calls queued, waits at most
    /// `timeout` for socket readiness or a [`SocketDriver::waker`]
    /// call, then accepts, reads and decodes, and closes. Pushes the
    /// reactor-facing actions the pass implies onto `actions` and
    /// returns how many accepts, reads and hang-ups it handled.
    fn poll(&mut self, timeout: Duration, actions: &mut Vec<DriverAction>) -> u64;

    /// The function that rouses a blocked [`SocketDriver::poll`]. The
    /// reactor installs it while the driver is attached, and every
    /// thread that sends the reactor an event calls it after the send.
    fn waker(&self) -> Arc<dyn Fn() + Send + Sync>;

    /// Delivers the result of a [`DriverAction::Submit`]. Called for
    /// quota rejections exactly like successes — the typed error is the
    /// payload. The connection may already be gone; implementations
    /// drop such results silently.
    fn on_result(&mut self, conn: u64, token: u64, result: &SessionResult);

    /// Delivers the snapshot a [`DriverAction::Metrics`] asked for. The
    /// report already embeds this driver's own [`RpcMetricsReport`].
    fn on_metrics(&mut self, conn: u64, token: u64, report: &FleetMetricsReport);

    /// Delivers the journal shipment a [`DriverAction::ReplicaAck`]
    /// asked for (a `JournalShip` frame on the wire). Default: dropped —
    /// transports that don't speak replication need no change.
    fn on_ship(&mut self, conn: u64, batch: &ShipBatch) {
        let _ = (conn, batch);
    }

    /// The driver's aggregate counters, embedded in every metrics
    /// report the reactor produces (read on the reactor thread).
    fn metrics(&self) -> RpcMetricsReport;
}
