//! The serving side: a socket pump feeding the reactor, and the
//! [`SocketDriver`] implementation that speaks VQRP on the reactor
//! thread.
//!
//! ```text
//!   TCP / Unix listener           reactor thread (fleet-service)
//!         │ accept                      ▲
//!         ▼                             │ SocketEvent::{Accepted,
//!   ┌──── pump thread ────┐             │   Readable, HungUp}
//!   │ epoll readiness or  ├─────────────┘
//!   │ nonblocking polling;│◀────────────┐
//!   │ per-conn write queue│  PumpCommand│::{Send, Close, …} + wakeup
//!   └─────────────────────┘             │
//!                              ┌────────┴─────────┐
//!                              │   ConnDriver     │  (runs inside the
//!                              │ framing, identity│   reactor loop)
//!                              │ quota/overload   │
//!                              └──────────────────┘
//! ```
//!
//! The pump owns every stream and does only byte work; the driver owns
//! every byte's *meaning*. The pump runs one pass loop — accept, read,
//! drain driver commands, write, close — and takes only the answer to
//! "what should this pass visit?" from one of two readiness sources:
//!
//! * On Linux the **epoll source** registers the listener, every
//!   connection, and a wakeup pipe with one `epoll` instance
//!   (the `readiness` module) and blocks until the kernel reports work —
//!   an idle daemon consumes (almost) no CPU, and write interest is
//!   registered only while a connection owes bytes. The reactor rouses
//!   a blocked pump through the wakeup pipe whenever it queues a
//!   command.
//! * Everywhere else (or with `VAQEM_RPC_PUMP=poll`) the **scan
//!   source** visits every socket nonblockingly and sleeps an adaptive
//!   [`IdleBackoff`] between passes — fully portable, never blocked, no
//!   wakeups needed.
//!
//! Outbound frames queue per connection as owned chunks and leave
//! through a single vectored write per pass, so a burst of replies
//! costs one syscall instead of one per frame.
//!
//! Backpressure flows through shared per-connection gauges of pending
//! outbound bytes: the driver increments when it queues a frame, the
//! pump decrements as bytes reach the kernel. A submission arriving
//! while the gauge is past the **soft bound** is rejected with the
//! typed `SessionError::Overloaded`; a result that would be queued past
//! the **hard bound** closes the connection instead — a reader too slow
//! to drain even rejections cannot grow server memory without bound,
//! and other tenants never notice (the reactor thread never blocks on a
//! socket).

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(target_os = "linux")]
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use vaqem_fleet_service::reactor::SocketEventSender;
use vaqem_fleet_service::{
    DriverAction, FleetMetricsReport, FleetService, RpcMetricsReport, SessionError, SessionResult,
    SocketDriver, SocketEvent,
};
use vaqem_runtime::persist::Codec;
use vaqem_runtime::wire::FrameReader;
use vaqem_runtime::{IdleBackoff, ShipBatch};

use crate::readiness;
#[cfg(target_os = "linux")]
use crate::readiness::linux::{
    Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::wire::{check_preamble, preamble, Frame, PREAMBLE_LEN};

/// Server tuning knobs. The defaults suit the load-generation harness;
/// every bound exists to keep a hostile or slow peer from growing
/// server-side memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcServerConfig {
    /// Largest frame payload accepted from a peer; a longer length
    /// prefix is a decode error and drops the connection.
    pub max_frame_bytes: usize,
    /// Pending-outbound-bytes level past which new *submissions* on the
    /// connection are rejected with `SessionError::Overloaded`.
    pub soft_pending_out_bytes: usize,
    /// Pending-outbound-bytes level past which the connection is
    /// force-closed instead of queueing more (must be ≥ the soft
    /// bound).
    pub hard_pending_out_bytes: usize,
}

impl Default for RpcServerConfig {
    fn default() -> Self {
        RpcServerConfig {
            max_frame_bytes: 1 << 20,
            soft_pending_out_bytes: 256 << 10,
            hard_pending_out_bytes: 1 << 20,
        }
    }
}

/// The transports the server binds.
#[derive(Debug)]
pub enum RpcListener {
    /// A TCP listener (use port 0 to let the kernel pick).
    Tcp(TcpListener),
    /// A Unix-domain stream listener.
    Unix(UnixListener),
}

impl RpcListener {
    /// Binds a TCP listener.
    ///
    /// # Errors
    ///
    /// Bind errors from the OS.
    pub fn bind_tcp<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Ok(RpcListener::Tcp(TcpListener::bind(addr)?))
    }

    /// Binds a Unix-domain listener, replacing a stale socket file left
    /// by a killed predecessor (the kill-and-restart path).
    ///
    /// # Errors
    ///
    /// Bind errors from the OS.
    pub fn bind_unix<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref();
        // A daemon killed without cleanup leaves the socket file behind;
        // rebinding over it is the restart contract.
        let _ = std::fs::remove_file(path);
        Ok(RpcListener::Unix(UnixListener::bind(path)?))
    }

    /// A human-readable description of the bound address.
    pub fn local_addr_string(&self) -> String {
        match self {
            RpcListener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "tcp:?".into()),
            RpcListener::Unix(l) => l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                .unwrap_or_else(|| "unix:?".into()),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            RpcListener::Tcp(l) => l.set_nonblocking(true),
            RpcListener::Unix(l) => l.set_nonblocking(true),
        }
    }

    #[cfg(target_os = "linux")]
    fn raw_fd(&self) -> RawFd {
        match self {
            RpcListener::Tcp(l) => l.as_raw_fd(),
            RpcListener::Unix(l) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> io::Result<(Stream, String)> {
        match self {
            RpcListener::Tcp(l) => {
                let (s, peer) = l.accept()?;
                s.set_nonblocking(true)?;
                // Frames are small and latency-sensitive; never batch
                // them behind Nagle.
                let _ = s.set_nodelay(true);
                Ok((Stream::Tcp(s), peer.to_string()))
            }
            RpcListener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                Ok((Stream::Unix(s), "unix-peer".into()))
            }
        }
    }
}

/// One accepted connection's stream, either transport.
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    #[cfg(target_os = "linux")]
    fn raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        // Both std transports have real `writev` implementations; the
        // reply path counts on one syscall moving many frames.
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// What the driver asks the pump to do.
pub(crate) enum PumpCommand {
    /// Queue bytes toward a connection (already counted on its gauge).
    Send { conn: u64, bytes: Vec<u8> },
    /// Close a connection once its outbound buffer has flushed (the
    /// polite goodbye after a `ShutdownAck`).
    Close { conn: u64 },
    /// Close a connection immediately, discarding queued bytes (the
    /// overload hard bound, or a protocol violation).
    CloseNow { conn: u64 },
    /// Stop serving: close everything and exit the pump thread.
    Stop,
}

/// Pending-outbound gauges, shared between driver (adds) and pump
/// (subtracts); keyed by connection id.
type Gauges = Arc<Mutex<HashMap<u64, Arc<AtomicUsize>>>>;

/// The pump thread's self-observation, shared with the driver so the
/// numbers ride every metrics report. `cpu_micros` holds the pump
/// thread's *absolute* CPU-time reading (published once per pass):
/// diffing two readings over a quiet window measures the pump's idle
/// burn, which is the epoll source's headline advantage.
#[derive(Debug, Default)]
pub(crate) struct PumpStats {
    cpu_micros: AtomicU64,
    passes: AtomicU64,
    wakeups: AtomicU64,
}

/// Rouses a pump blocked in `epoll_wait`: one byte down a nonblocking
/// socketpair the pump watches. Disabled when the scan source serves —
/// it sleeps at most a few milliseconds, so nobody needs to rouse it
/// and `wake()` becomes free.
#[derive(Debug)]
pub(crate) struct Waker {
    tx: UnixStream,
    enabled: bool,
}

impl Waker {
    fn wake(&self) {
        if self.enabled {
            // A full pipe or torn pump means the pump is already due to
            // wake (or gone); either way the error is not actionable.
            let _ = (&self.tx).write(&[1u8]);
        }
    }
}

/// Per-connection protocol state, owned by the driver on the reactor
/// thread.
struct ConnState {
    /// Identity bound by the open frame; submissions before it are
    /// protocol errors.
    client: Option<String>,
    /// Stream reassembly (torn reads, fused reads, length bound).
    reader: FrameReader,
    /// Client preamble bytes still owed before framing starts.
    preamble_buf: Vec<u8>,
    /// This connection's pending-outbound gauge.
    gauge: Arc<AtomicUsize>,
    /// Submissions forwarded to the reactor and not yet answered.
    in_flight: u64,
    /// Results (outcomes or errors) delivered on this connection.
    completed: u64,
    /// Whether this connection subscribed as a replication follower (it
    /// sent at least one `JournalAck`); its hang-up must tell the
    /// reactor to drop the follower's cursor.
    replica: bool,
}

/// The VQRP protocol driver: implements
/// [`SocketDriver`] over the pump's raw events. Constructed by
/// [`RpcServer::serve`]; never used directly.
struct ConnDriver {
    control: Sender<PumpCommand>,
    waker: Arc<Waker>,
    gauges: Gauges,
    config: RpcServerConfig,
    conns: HashMap<u64, ConnState>,
    counters: RpcMetricsReport,
    pump_stats: Arc<PumpStats>,
    /// Reusable frame-encoding scratch: length prefix + payload are
    /// built in place, then cloned once at exactly the framed size.
    encode_buf: Vec<u8>,
}

impl ConnDriver {
    /// Sends one command to the pump and rouses it if it might be
    /// blocked in `epoll_wait`.
    fn command(&self, cmd: PumpCommand) {
        let _ = self.control.send(cmd);
        self.waker.wake();
    }

    fn send_bytes(&mut self, conn: u64, bytes: Vec<u8>) {
        if let Some(state) = self.conns.get(&conn) {
            let pending = state.gauge.fetch_add(bytes.len(), Ordering::Relaxed) + bytes.len();
            self.counters.peak_pending_out_bytes =
                self.counters.peak_pending_out_bytes.max(pending as u64);
        }
        self.command(PumpCommand::Send { conn, bytes });
    }

    /// Encodes and queues one frame; enforces the hard outbound bound
    /// first (returns `false` when it closed the connection instead).
    fn send_frame(&mut self, conn: u64, frame: &Frame) -> bool {
        let Some(state) = self.conns.get(&conn) else {
            return false; // connection already gone
        };
        let pending = state.gauge.load(Ordering::Relaxed);
        if pending > self.config.hard_pending_out_bytes {
            // The reader is too slow to drain even its rejections:
            // drop the connection rather than buffer without bound.
            self.counters.overload_closes += 1;
            self.command(PumpCommand::CloseNow { conn });
            return false;
        }
        // Encode straight after a length-prefix placeholder and patch
        // the prefix in place: one exact-size allocation per frame,
        // instead of encode-then-copy-into-framing.
        self.encode_buf.clear();
        self.encode_buf.extend_from_slice(&[0u8; 4]);
        frame.encode(&mut self.encode_buf);
        let payload_len = self.encode_buf.len() - 4;
        self.encode_buf[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        self.counters.frames_out += 1;
        self.counters.bytes_out += payload_len as u64;
        let framed = self.encode_buf.clone();
        self.send_bytes(conn, framed);
        true
    }

    /// A peer broke the protocol (bad preamble, oversized or
    /// undecodable frame, reply tag on the inbound side): count it and
    /// drop the connection.
    fn decode_error(&mut self, conn: u64) {
        self.counters.decode_errors += 1;
        self.command(PumpCommand::CloseNow { conn });
    }

    fn handle_frame(&mut self, conn: u64, frame: Frame, actions: &mut Vec<DriverAction>) {
        match frame {
            Frame::Open { client } => {
                if let Some(state) = self.conns.get_mut(&conn) {
                    state.client = Some(client.clone());
                }
                self.send_frame(conn, &Frame::OpenAck { client });
            }
            Frame::Submit { token, mut request } => {
                let Some(state) = self.conns.get(&conn) else {
                    return;
                };
                let Some(identity) = state.client.clone() else {
                    self.send_frame(
                        conn,
                        &Frame::Error {
                            token,
                            error: SessionError::Protocol(
                                "submit before open: bind a client identity first".into(),
                            ),
                        },
                    );
                    return;
                };
                let pending = state.gauge.load(Ordering::Relaxed);
                if pending > self.config.soft_pending_out_bytes {
                    // Slow-reader backpressure: the typed rejection is
                    // itself small, so it still fits under the hard
                    // bound `send_frame` enforces.
                    self.counters.overload_rejections += 1;
                    self.send_frame(
                        conn,
                        &Frame::Error {
                            token,
                            error: SessionError::Overloaded {
                                pending_out_bytes: pending,
                                limit: self.config.soft_pending_out_bytes,
                            },
                        },
                    );
                    return;
                }
                // Identity is connection-scoped: whatever the frame
                // claimed, the session runs as the bound client.
                request.client = identity;
                if let Some(state) = self.conns.get_mut(&conn) {
                    state.in_flight += 1;
                }
                actions.push(DriverAction::Submit {
                    conn,
                    token,
                    request,
                });
            }
            Frame::Poll => {
                let (in_flight, completed) = self
                    .conns
                    .get(&conn)
                    .map(|s| (s.in_flight, s.completed))
                    .unwrap_or((0, 0));
                self.send_frame(
                    conn,
                    &Frame::PollReply {
                        in_flight,
                        completed,
                    },
                );
            }
            Frame::Metrics { token } => actions.push(DriverAction::Metrics { conn, token }),
            Frame::JournalAck { cursor } => {
                if let Some(state) = self.conns.get_mut(&conn) {
                    state.replica = true;
                }
                actions.push(DriverAction::ReplicaAck { conn, cursor });
            }
            Frame::Shutdown => {
                self.send_frame(conn, &Frame::ShutdownAck);
                // Close after the ack flushes; the HungUp the pump
                // reports back cleans up this connection's state.
                self.command(PumpCommand::Close { conn });
            }
            // A reply tag on the server's inbound side is a protocol
            // violation.
            Frame::OpenAck { .. }
            | Frame::Outcome { .. }
            | Frame::Error { .. }
            | Frame::PollReply { .. }
            | Frame::MetricsReply { .. }
            | Frame::ShutdownAck
            | Frame::JournalShip { .. } => self.decode_error(conn),
        }
    }

    fn handle_readable(&mut self, conn: u64, bytes: Vec<u8>, actions: &mut Vec<DriverAction>) {
        let Some(state) = self.conns.get_mut(&conn) else {
            return; // raced a close; the stream is already gone
        };
        let mut rest: &[u8] = &bytes;
        // The connection owes its preamble before any framing.
        if state.preamble_buf.len() < PREAMBLE_LEN {
            let need = PREAMBLE_LEN - state.preamble_buf.len();
            let take = need.min(rest.len());
            state.preamble_buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if state.preamble_buf.len() < PREAMBLE_LEN {
                return; // still torn
            }
            let fixed: [u8; PREAMBLE_LEN] =
                state.preamble_buf.as_slice().try_into().expect("8 bytes");
            if check_preamble(&fixed).is_err() {
                self.decode_error(conn);
                return;
            }
        }
        state.reader.push(rest);
        loop {
            let Some(state) = self.conns.get_mut(&conn) else {
                return;
            };
            match state.reader.next_frame() {
                Ok(None) => return,
                Err(_) => {
                    // Oversized length prefix: hostile or corrupt peer.
                    self.decode_error(conn);
                    return;
                }
                Ok(Some(payload)) => {
                    self.counters.frames_in += 1;
                    self.counters.bytes_in += payload.len() as u64;
                    let mut input = payload.as_slice();
                    match Frame::decode(&mut input) {
                        // Trailing garbage after a frame body is as
                        // corrupt as a torn one.
                        Some(frame) if input.is_empty() => self.handle_frame(conn, frame, actions),
                        _ => {
                            self.decode_error(conn);
                            return;
                        }
                    }
                }
            }
        }
    }
}

impl SocketDriver for ConnDriver {
    fn on_event(&mut self, event: SocketEvent) -> Vec<DriverAction> {
        let mut actions = Vec::new();
        match event {
            SocketEvent::Accepted { conn, .. } => {
                self.counters.connections_accepted += 1;
                self.counters.connections_open += 1;
                let gauge = self
                    .gauges
                    .lock()
                    .expect("gauge registry healthy")
                    .get(&conn)
                    .cloned()
                    .unwrap_or_default();
                self.conns.insert(
                    conn,
                    ConnState {
                        client: None,
                        reader: FrameReader::new(self.config.max_frame_bytes),
                        preamble_buf: Vec::with_capacity(PREAMBLE_LEN),
                        gauge,
                        in_flight: 0,
                        completed: 0,
                        replica: false,
                    },
                );
                // The server announces itself first; the client may
                // already be pipelining its own preamble + frames.
                self.send_bytes(conn, preamble().to_vec());
            }
            SocketEvent::Readable { conn, bytes } => {
                self.handle_readable(conn, bytes, &mut actions)
            }
            SocketEvent::HungUp { conn } => {
                if let Some(state) = self.conns.remove(&conn) {
                    self.counters.connections_open -= 1;
                    self.counters.connections_closed += 1;
                    if state.replica {
                        actions.push(DriverAction::ReplicaGone { conn });
                    }
                }
                // In-flight sessions of this connection keep running;
                // their results arrive at `on_result` and are dropped
                // there (quiescence — no stalling, no dangling state).
            }
        }
        actions
    }

    fn on_result(&mut self, conn: u64, token: u64, result: &SessionResult) {
        let Some(state) = self.conns.get_mut(&conn) else {
            return; // peer disconnected mid-flight: drop silently
        };
        state.in_flight = state.in_flight.saturating_sub(1);
        state.completed += 1;
        let frame = match result {
            Ok(outcome) => Frame::Outcome {
                token,
                outcome: outcome.clone(),
            },
            Err(error) => Frame::Error {
                token,
                error: error.clone(),
            },
        };
        self.send_frame(conn, &frame);
    }

    fn on_metrics(&mut self, conn: u64, token: u64, report: &FleetMetricsReport) {
        self.send_frame(
            conn,
            &Frame::MetricsReply {
                token,
                rpc: report.rpc,
                report_json: report.to_json().render(),
            },
        );
    }

    fn on_ship(&mut self, conn: u64, batch: &ShipBatch) {
        self.send_frame(
            conn,
            &Frame::JournalShip {
                cursor: batch.cursor,
                snapshot: batch.snapshot,
                payload: batch.payload.clone(),
            },
        );
    }

    fn metrics(&self) -> RpcMetricsReport {
        let mut report = self.counters;
        report.pump_cpu_micros = self.pump_stats.cpu_micros.load(Ordering::Relaxed);
        report.pump_passes = self.pump_stats.passes.load(Ordering::Relaxed);
        report.pump_wakeups = self.pump_stats.wakeups.load(Ordering::Relaxed);
        report
    }
}

/// Most chunks a single vectored write gathers. Past this the syscall's
/// iovec setup cost outweighs the coalescing win; the flush loop just
/// issues another write.
const MAX_WRITE_SLICES: usize = 32;

/// One connection's I/O state, owned by the pump thread.
struct ConnIo {
    stream: Stream,
    /// Outbound frames, one owned chunk each (queued without copying —
    /// the driver's encode buffer clone is the only allocation).
    out: VecDeque<Vec<u8>>,
    /// Flushed prefix of the front chunk.
    front_pos: usize,
    /// Total unflushed bytes across `out` (the `out_pos == len` test of
    /// the old flat buffer, kept as a counter).
    out_bytes: usize,
    gauge: Arc<AtomicUsize>,
    /// Close once `out` drains (the polite goodbye).
    close_after_flush: bool,
    /// Whether the epoll source currently has `EPOLLOUT` interest
    /// registered for this connection (only while bytes are owed).
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    want_write: bool,
}

impl ConnIo {
    fn new(stream: Stream, gauge: Arc<AtomicUsize>) -> ConnIo {
        ConnIo {
            stream,
            out: VecDeque::new(),
            front_pos: 0,
            out_bytes: 0,
            gauge,
            close_after_flush: false,
            want_write: false,
        }
    }

    fn queue(&mut self, bytes: Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        self.out_bytes += bytes.len();
        self.out.push_back(bytes);
    }

    /// Writes what the kernel will take, coalescing queued chunks into
    /// vectored writes. `Ok(true)` = made progress.
    fn flush_some(&mut self) -> io::Result<bool> {
        let mut progressed = false;
        while self.out_bytes > 0 {
            let wrote = {
                let mut slices: Vec<IoSlice<'_>> =
                    Vec::with_capacity(self.out.len().min(MAX_WRITE_SLICES));
                for (i, chunk) in self.out.iter().enumerate() {
                    if i == MAX_WRITE_SLICES {
                        break;
                    }
                    let start = if i == 0 { self.front_pos } else { 0 };
                    slices.push(IoSlice::new(&chunk[start..]));
                }
                self.stream.write_vectored(&slices)
            };
            match wrote {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(mut n) => {
                    self.out_bytes -= n;
                    self.gauge.fetch_sub(n, Ordering::Relaxed);
                    progressed = true;
                    // Retire fully-written chunks; a partial write
                    // leaves its offset in `front_pos`.
                    while n > 0 {
                        let front_left =
                            self.out.front().expect("accounted bytes").len() - self.front_pos;
                        if n >= front_left {
                            n -= front_left;
                            self.out.pop_front();
                            self.front_pos = 0;
                        } else {
                            self.front_pos += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(progressed)
    }
}

/// How much one connection may read per pump pass — keeps one firehose
/// peer from starving the rest of the loop. (Level-triggered readiness
/// makes this fair for free: an fd with leftover data stays ready, so
/// the next pass resumes it.)
const READ_BUDGET_PER_PASS: usize = 256 << 10;

/// First idle sleep of the scan source after activity — the old fixed
/// poll granularity.
const PUMP_BACKOFF_FLOOR: Duration = Duration::from_micros(300);
/// The scan source's idle sleep cap: long enough to stop spinning,
/// short enough that a first frame after a quiet spell waits at most
/// ~5ms.
const PUMP_BACKOFF_CEILING: Duration = Duration::from_millis(5);

/// Readiness token for the listener (connection ids count up from 1, so
/// the top of the `u64` space is free).
#[cfg(target_os = "linux")]
const TOKEN_LISTENER: u64 = u64::MAX;
/// Readiness token for the reactor's wakeup pipe.
#[cfg(target_os = "linux")]
const TOKEN_WAKEUP: u64 = u64::MAX - 1;
/// Safety net: absent readiness and wakeups, the epoll source still runs
/// a pass every 500ms — any lost-wakeup bug costs latency, never
/// liveness.
#[cfg(target_os = "linux")]
const SAFETY_TIMEOUT_MS: i32 = 500;

/// One thing a pump pass visits, in the order the pass visits them.
#[derive(Clone, Copy)]
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
enum Ready {
    /// The listener may hold connections to accept.
    Listener,
    /// The reactor wrote to the wakeup pipe.
    Wakeup,
    /// The connection may hold bytes to read (or sit at end of stream).
    Readable(u64),
    /// The kernel reported an error or hangup on the connection.
    Broken(u64),
}

/// How the pump learns what each pass should visit. An enum rather than
/// a trait: there are exactly two sources, and nothing outside this
/// module adds one.
enum Readiness {
    /// Blocks in `epoll_wait` until the kernel reports an accept,
    /// readable bytes, writable room on a connection that owes bytes, or
    /// a reactor wakeup. An idle daemon parks here and burns (almost) no
    /// CPU.
    #[cfg(target_os = "linux")]
    Epoll {
        ep: Epoll,
        /// The read end of the [`Waker`]'s socketpair.
        wake_rx: UnixStream,
        events: Vec<EpollEvent>,
    },
    /// Visits the listener and every connection nonblockingly each pass,
    /// sleeping an adaptive [`IdleBackoff`] after passes that found no
    /// work. Portable, never blocked, needs no wakeups.
    Scan { backoff: IdleBackoff },
}

#[cfg_attr(not(target_os = "linux"), allow(unused_variables))]
impl Readiness {
    /// The epoll source when `want_epoll` and it sets up, else the scan.
    /// The epoll instance is built and pre-registered here, so any setup
    /// failure falls back to scanning instead of killing the server. The
    /// scan source drops `wake_rx`: its [`Waker`] is disabled, so nothing
    /// ever writes to the pipe.
    fn select(want_epoll: bool, listener: &RpcListener, wake_rx: UnixStream) -> Readiness {
        #[cfg(target_os = "linux")]
        if want_epoll {
            let ep = Epoll::new().and_then(|ep| {
                ep.add(listener.raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
                ep.add(wake_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKEUP)?;
                Ok(ep)
            });
            if let Ok(ep) = ep {
                return Readiness::Epoll {
                    ep,
                    wake_rx,
                    events: vec![EpollEvent { events: 0, data: 0 }; 128],
                };
            }
        }
        Readiness::Scan {
            backoff: IdleBackoff::new(PUMP_BACKOFF_FLOOR, PUMP_BACKOFF_CEILING),
        }
    }

    /// Waits for the next pass and fills `ready` with what it visits.
    /// `active` says whether the previous pass did any work.
    fn wait(&mut self, active: bool, conns: &HashMap<u64, ConnIo>, ready: &mut Vec<Ready>) {
        ready.clear();
        match self {
            #[cfg(target_os = "linux")]
            Readiness::Epoll { ep, events, .. } => {
                let n = ep.wait(events, SAFETY_TIMEOUT_MS).unwrap_or(0);
                for ev in &events[..n] {
                    // Copy out of the (possibly packed) event record.
                    let (mask, token) = (ev.events, ev.data);
                    ready.push(match token {
                        TOKEN_LISTENER => Ready::Listener,
                        TOKEN_WAKEUP => Ready::Wakeup,
                        conn if mask & (EPOLLERR | EPOLLHUP) != 0 => Ready::Broken(conn),
                        conn if mask & (EPOLLIN | EPOLLRDHUP) != 0 => Ready::Readable(conn),
                        // Writable readiness needs no per-event handling:
                        // the write sweep flushes every connection that
                        // owes bytes.
                        _ => continue,
                    });
                }
            }
            Readiness::Scan { backoff } => {
                // 300µs responsiveness while traffic flows, doubling
                // toward a 5ms doze across consecutive idle passes so a
                // quiet daemon (or a replica pair of them) doesn't spin
                // cores.
                if let Some(sleep) = backoff.after(active) {
                    std::thread::sleep(sleep);
                }
                ready.push(Ready::Listener);
                ready.extend(conns.keys().map(|&conn| Ready::Readable(conn)));
            }
        }
    }

    /// Empties the wakeup pipe, so level-triggered readiness stops
    /// reporting it.
    fn drain_wakeup(&self) {
        #[cfg(target_os = "linux")]
        if let Readiness::Epoll { wake_rx, .. } = self {
            let mut drain = [0u8; 256];
            while matches!((&*wake_rx).read(&mut drain), Ok(n) if n > 0) {}
        }
    }

    /// Watches a freshly accepted connection for reads and hangups.
    fn register(&self, stream: &Stream, conn: u64) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        if let Readiness::Epoll { ep, .. } = self {
            return ep.add(stream.raw_fd(), EPOLLIN | EPOLLRDHUP, conn);
        }
        Ok(())
    }

    /// Keeps write interest on a connection only while it owes bytes,
    /// so an idle connection never wakes the pump for writability.
    fn sync_write_interest(&self, conn: u64, io: &mut ConnIo) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        if let Readiness::Epoll { ep, .. } = self {
            let want = io.out_bytes > 0;
            if want != io.want_write {
                let interest = EPOLLIN | EPOLLRDHUP | if want { EPOLLOUT } else { 0 };
                ep.modify(io.stream.raw_fd(), interest, conn)?;
                io.want_write = want;
            }
        }
        Ok(())
    }

    /// Stops watching a connection that is closing.
    fn deregister(&self, stream: &Stream) {
        #[cfg(target_os = "linux")]
        if let Readiness::Epoll { ep, .. } = self {
            let _ = ep.delete(stream.raw_fd());
        }
    }
}

/// The pump thread body. Each pass waits on its [`Readiness`] source,
/// then runs one accept/read/command/write/close discipline over what
/// the source reports, forwarding semantic events to the reactor and
/// executing the driver's commands. Exits when told to
/// [`PumpCommand::Stop`], when the driver side hangs up, or when the
/// reactor is gone.
fn pump_loop(
    mut source: Readiness,
    listener: RpcListener,
    control: Receiver<PumpCommand>,
    events: SocketEventSender,
    gauges: Gauges,
    stats: Arc<PumpStats>,
) {
    let mut conns: HashMap<u64, ConnIo> = HashMap::new();
    let mut next_conn: u64 = 1;
    let mut read_buf = vec![0u8; 64 << 10];
    let mut hangups: Vec<u64> = Vec::new();
    let mut ready: Vec<Ready> = Vec::new();
    // Whether the last pass did any work: accepted, read, ran a command
    // or flushed bytes. Only the scan source's backoff reads it.
    let mut active = true;
    loop {
        source.wait(active, &conns, &mut ready);
        stats.passes.fetch_add(1, Ordering::Relaxed);
        active = false;
        // 1. What the source reported: accepts, wakeups, reads.
        for &r in &ready {
            match r {
                Ready::Listener => loop {
                    match listener.accept() {
                        Ok((stream, peer)) => {
                            active = true;
                            let conn = next_conn;
                            next_conn += 1;
                            if source.register(&stream, conn).is_err() {
                                continue; // dropping the stream resets the peer
                            }
                            let gauge = Arc::new(AtomicUsize::new(0));
                            gauges
                                .lock()
                                .expect("gauge registry healthy")
                                .insert(conn, Arc::clone(&gauge));
                            conns.insert(conn, ConnIo::new(stream, gauge));
                            if !events.send(SocketEvent::Accepted { conn, peer }) {
                                return; // reactor gone
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        // Transient accept errors (peer reset mid-handshake):
                        // nothing to clean up, keep serving.
                        Err(_) => break,
                    }
                },
                Ready::Wakeup => {
                    stats.wakeups.fetch_add(1, Ordering::Relaxed);
                    source.drain_wakeup();
                }
                Ready::Broken(conn) => hangups.push(conn),
                Ready::Readable(conn) => {
                    let Some(io) = conns.get_mut(&conn) else {
                        continue; // raced a close within this pass
                    };
                    let mut read_total = 0usize;
                    // Past the budget the fd stays ready; the next pass
                    // resumes it.
                    while read_total < READ_BUDGET_PER_PASS {
                        match io.stream.read(&mut read_buf) {
                            Ok(0) => {
                                hangups.push(conn);
                                break;
                            }
                            Ok(n) => {
                                active = true;
                                read_total += n;
                                if !events.send(SocketEvent::Readable {
                                    conn,
                                    bytes: read_buf[..n].to_vec(),
                                }) {
                                    return; // reactor gone
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                hangups.push(conn);
                                break;
                            }
                        }
                    }
                }
            }
        }
        // 2. Driver commands (under epoll, the wakeup pipe guaranteed
        // we woke for them).
        loop {
            let cmd = match control.try_recv() {
                Ok(cmd) => cmd,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            };
            active = true;
            match cmd {
                PumpCommand::Send { conn, bytes } => {
                    // A connection already gone dropped its gauge entry
                    // too, so there is no increment to undo.
                    if let Some(io) = conns.get_mut(&conn) {
                        io.queue(bytes);
                    }
                }
                PumpCommand::Close { conn } => {
                    if let Some(io) = conns.get_mut(&conn) {
                        io.close_after_flush = true;
                    }
                }
                PumpCommand::CloseNow { conn } => {
                    if conns.contains_key(&conn) {
                        hangups.push(conn);
                    }
                }
                PumpCommand::Stop => return,
            }
        }
        // 3. Write sweep: flush what the kernel will take, then keep
        // write interest only on connections still owing bytes.
        for (&conn, io) in conns.iter_mut() {
            if io.out_bytes > 0 {
                match io.flush_some() {
                    Ok(progressed) => active |= progressed,
                    Err(_) => {
                        hangups.push(conn);
                        continue;
                    }
                }
            }
            if io.close_after_flush && io.out_bytes == 0 {
                hangups.push(conn);
                continue;
            }
            if source.sync_write_interest(conn, io).is_err() {
                hangups.push(conn);
            }
        }
        // 4. Closures (driver-ordered and peer-initiated alike).
        for conn in hangups.drain(..) {
            if let Some(io) = conns.remove(&conn) {
                source.deregister(&io.stream);
                gauges.lock().expect("gauge registry healthy").remove(&conn);
                if !events.send(SocketEvent::HungUp { conn }) {
                    return;
                }
            }
        }
        // 5. Self-observation.
        stats
            .cpu_micros
            .store(readiness::thread_cpu_micros(), Ordering::Relaxed);
    }
}

/// A serving RPC front-end: owns the pump thread. Dropping (or
/// [`RpcServer::stop`]) closes every connection and unbinds.
#[derive(Debug)]
pub struct RpcServer {
    control: Sender<PumpCommand>,
    waker: Arc<Waker>,
    pump: Option<JoinHandle<()>>,
    addr: String,
}

impl RpcServer {
    /// Attaches a VQRP driver to `service`'s reactor and starts the
    /// pump thread on `listener`. The service keeps working for
    /// in-process callers exactly as before; remote sessions share its
    /// admission, fairness, and quota path.
    ///
    /// On Linux the pump blocks in `epoll` readiness by default; set
    /// `VAQEM_RPC_PUMP=poll` to force the portable scan source with its
    /// adaptive idle sleep (`VAQEM_RPC_PUMP=epoll` asks for readiness
    /// explicitly, and falls back to scanning where epoll is unavailable
    /// or fails to set up). Either way the same pass loop speaks the
    /// same `SocketEvent` interface; the driver cannot tell them apart.
    ///
    /// # Errors
    ///
    /// I/O errors switching the listener to nonblocking mode or
    /// building the wakeup channel.
    pub fn serve(
        service: &FleetService,
        listener: RpcListener,
        config: RpcServerConfig,
    ) -> io::Result<RpcServer> {
        assert!(
            config.hard_pending_out_bytes >= config.soft_pending_out_bytes,
            "hard outbound bound below the soft bound"
        );
        listener.set_nonblocking()?;
        let addr = listener.local_addr_string();
        let (control, control_rx) = mpsc::channel();
        let gauges: Gauges = Arc::new(Mutex::new(HashMap::new()));
        let stats = Arc::new(PumpStats::default());
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;

        let want_epoll = match std::env::var("VAQEM_RPC_PUMP").as_deref() {
            Ok("poll") => false,
            Ok("epoll") => true,
            _ => cfg!(target_os = "linux"),
        };
        let source = Readiness::select(want_epoll, &listener, wake_rx);
        let waker = Arc::new(Waker {
            tx: wake_tx,
            enabled: !matches!(source, Readiness::Scan { .. }),
        });
        let driver = ConnDriver {
            control: control.clone(),
            waker: Arc::clone(&waker),
            gauges: Arc::clone(&gauges),
            config,
            conns: HashMap::new(),
            counters: RpcMetricsReport::default(),
            pump_stats: Arc::clone(&stats),
            encode_buf: Vec::new(),
        };
        let events = service.attach_socket_driver(Box::new(driver));
        let pump = std::thread::spawn(move || {
            pump_loop(source, listener, control_rx, events, gauges, stats)
        });
        Ok(RpcServer {
            control,
            waker,
            pump: Some(pump),
            addr,
        })
    }

    /// The bound address: `ip:port` for TCP, the socket path for Unix.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Stops serving: closes every connection, joins the pump thread.
    /// Sessions already dispatched keep running in the service; their
    /// results are dropped at delivery (the connections are gone).
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let _ = self.control.send(PumpCommand::Stop);
        // An epoll pump may be parked in epoll_wait; rouse it so the
        // stop is prompt rather than waiting out the safety timeout.
        self.waker.wake();
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pump_backoff_doubles_to_ceiling_and_resets_on_activity() {
        let mut backoff = IdleBackoff::new(PUMP_BACKOFF_FLOOR, PUMP_BACKOFF_CEILING);
        // Consecutive idle passes: 300µs, 600µs, 1.2ms, 2.4ms, 4.8ms,
        // then pinned at the 5ms ceiling.
        let expected = [300u64, 600, 1_200, 2_400, 4_800, 5_000, 5_000];
        for (pass, &micros) in expected.iter().enumerate() {
            assert_eq!(
                backoff.after(false),
                Some(Duration::from_micros(micros)),
                "idle pass {pass}"
            );
        }
        // One active pass: no sleep, and the backoff snaps to the floor.
        assert_eq!(backoff.after(true), None);
        assert_eq!(backoff.after(false), Some(PUMP_BACKOFF_FLOOR));
    }

    #[test]
    fn conn_io_coalesces_chunks_into_vectored_writes() {
        let (a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let gauge = Arc::new(AtomicUsize::new(0));
        let mut io = ConnIo::new(Stream::Unix(a), Arc::clone(&gauge));

        let chunks: [&[u8]; 3] = [b"alpha", b"beta", b"gamma"];
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        gauge.fetch_add(total, Ordering::Relaxed);
        for c in chunks {
            io.queue(c.to_vec());
        }
        assert_eq!(io.out_bytes, total);

        assert!(io.flush_some().unwrap());
        assert_eq!(io.out_bytes, 0, "small burst flushes in one pass");
        assert_eq!(gauge.load(Ordering::Relaxed), 0, "gauge fully drained");

        let mut got = vec![0u8; total];
        b.read_exact(&mut got).unwrap();
        assert_eq!(got, b"alphabetagamma", "stream order preserved");
    }

    #[test]
    fn conn_io_flushes_bursts_wider_than_one_vectored_write() {
        let (a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let gauge = Arc::new(AtomicUsize::new(0));
        let mut io = ConnIo::new(Stream::Unix(a), Arc::clone(&gauge));

        // More chunks than MAX_WRITE_SLICES: the flush loop must issue
        // several vectored writes and retire chunks across them.
        let count = MAX_WRITE_SLICES * 2 + 5;
        let mut expect = Vec::new();
        for i in 0..count {
            let chunk = vec![(i % 251) as u8; 17];
            expect.extend_from_slice(&chunk);
            io.queue(chunk);
        }
        gauge.fetch_add(expect.len(), Ordering::Relaxed);

        assert!(io.flush_some().unwrap());
        assert_eq!(io.out_bytes, 0);
        assert_eq!(gauge.load(Ordering::Relaxed), 0);

        let mut got = vec![0u8; expect.len()];
        b.read_exact(&mut got).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn conn_io_empty_queue_is_a_noop_flush() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut io = ConnIo::new(Stream::Unix(a), Arc::default());
        io.queue(Vec::new()); // empty sends queue nothing
        assert_eq!(io.out_bytes, 0);
        assert!(!io.flush_some().unwrap(), "nothing to write");
    }
}
