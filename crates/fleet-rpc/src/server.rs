//! The serving side: the [`SocketDriver`] that runs VQRP's socket I/O
//! and protocol on the reactor thread.
//!
//! ```text
//!   TCP / Unix listener ─┐
//!   connections ─────────┤  readiness: epoll, or a paced scan
//!                        ▼
//!   ┌──────── reactor thread (fleet-service) ─────────────┐
//!   │ ConnDriver::poll: write ─ close ─ wait ─ accept ─   │
//!   │   read ≤256 KiB/conn ─ decode in place              │
//!   │ per connection: framing, identity, outbound queue,  │
//!   │   pending-out count (soft/hard bounds)              │
//!   │ actions ──▶ admission · DRR · quotas · replication  │
//!   │ results ──▶ on_result/on_metrics/on_ship ──▶ queue  │
//!   └─────────────────────────────────────────────────────┘
//!      ▲ waker: submit, worker completions, metrics, stop
//! ```
//!
//! The driver owns every stream and every byte's meaning. While it is
//! attached, the reactor waits for work in [`SocketDriver::poll`], which
//! runs one pass — write what earlier calls queued, close what is due,
//! wait, then accept, read and decode — and takes only the answer to
//! "how does this pass wait, and what does it visit?" from one of two
//! readiness sources:
//!
//! * On Linux the **epoll source** registers the listener, every
//!   connection, and a wakeup pipe with one `epoll` instance
//!   (the `readiness` module) and blocks until the kernel reports work
//!   or another thread sends the reactor an event — every such sender
//!   calls the driver's waker, one byte down the pipe. An idle daemon
//!   consumes (almost) no CPU, and write interest is registered only
//!   while a connection owes bytes.
//! * Everywhere else (or with `VAQEM_RPC_PUMP=poll`) the **scan
//!   source** visits every socket nonblockingly and sleeps an adaptive
//!   [`IdleBackoff`] (capped by the poll's timeout) between passes that
//!   found no work — fully portable, and its waker does nothing, so
//!   events other threads send wait out the sleep.
//!
//! Outbound frames queue per connection as owned chunks and leave
//! through a single vectored write per pass, so a burst of replies
//! costs one syscall instead of one per frame.
//!
//! Backpressure is a plain per-connection count of pending outbound
//! bytes, raised when the driver queues a frame and lowered as writes
//! reach the kernel. A submission arriving while the count is past the
//! **soft bound** is rejected with the typed `SessionError::Overloaded`;
//! a result that would be queued past the **hard bound** closes the
//! connection instead — a reader too slow to drain even rejections
//! cannot grow server memory without bound, and other tenants never
//! notice (no socket call ever blocks the reactor thread).

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(target_os = "linux")]
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use vaqem_fleet_service::{
    DriverAction, DriverHandle, FleetMetricsReport, FleetService, RpcMetricsReport, SessionError,
    SessionResult, SocketDriver,
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

    fn accept(&self) -> io::Result<Stream> {
        match self {
            RpcListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                // Frames are small and latency-sensitive; never batch
                // them behind Nagle.
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
            RpcListener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                Ok(Stream::Unix(s))
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

/// Most chunks a single vectored write gathers. Past this the syscall's
/// iovec setup cost outweighs the coalescing win; the flush loop just
/// issues another write.
const MAX_WRITE_SLICES: usize = 32;

/// One connection: its stream, its protocol state and its outbound
/// queue, all owned by the driver on the reactor thread.
struct Conn {
    stream: Stream,
    /// Identity bound by the open frame; submissions before it are
    /// protocol errors.
    client: Option<String>,
    /// Stream reassembly (torn reads, fused reads, length bound).
    reader: FrameReader,
    /// Client preamble bytes still owed before framing starts.
    preamble_buf: Vec<u8>,
    /// Submissions forwarded to the reactor and not yet answered.
    in_flight: u64,
    /// Results (outcomes or errors) delivered on this connection.
    completed: u64,
    /// Whether this connection subscribed as a replication follower (it
    /// sent at least one `JournalAck`); its close must tell the reactor
    /// to drop the follower's cursor.
    replica: bool,
    /// Outbound frames, one owned chunk each (queued without copying —
    /// the driver's encode buffer clone is the only allocation).
    out: VecDeque<Vec<u8>>,
    /// Flushed prefix of the front chunk.
    front_pos: usize,
    /// Total unflushed bytes across `out`: the backpressure count the
    /// soft and hard bounds read.
    out_bytes: usize,
    /// Close once `out` drains (the polite goodbye after `Shutdown`).
    close_after_flush: bool,
    /// Close at the next pass's close sweep (hang-up, I/O error,
    /// protocol violation, hard bound, or a flushed goodbye).
    close_now: bool,
    /// Whether the epoll source currently has `EPOLLOUT` interest
    /// registered for this connection (only while bytes are owed).
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    want_write: bool,
}

impl Conn {
    fn new(stream: Stream, max_frame_bytes: usize) -> Conn {
        Conn {
            stream,
            client: None,
            reader: FrameReader::new(max_frame_bytes),
            preamble_buf: Vec::with_capacity(PREAMBLE_LEN),
            in_flight: 0,
            completed: 0,
            replica: false,
            out: VecDeque::new(),
            front_pos: 0,
            out_bytes: 0,
            close_after_flush: false,
            close_now: false,
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

/// How much one connection may read per pass — keeps one firehose peer
/// from starving the rest of the loop. (Level-triggered readiness makes
/// this fair for free: an fd with leftover data stays ready, so the
/// next pass resumes it.)
const READ_BUDGET_PER_PASS: usize = 256 << 10;

/// First idle sleep of the scan source after activity — the old fixed
/// poll granularity.
const PUMP_BACKOFF_FLOOR: Duration = Duration::from_micros(300);
/// The scan source's idle sleep cap: long enough to stop spinning,
/// short enough that a first frame after a quiet spell waits at most
/// ~5ms.
const PUMP_BACKOFF_CEILING: Duration = Duration::from_millis(5);

/// What a pass visits for the listener (connection ids count up from
/// 1, so the top of the `u64` space is free).
const LISTENER: u64 = u64::MAX;
/// Readiness token for the wakeup pipe.
#[cfg(target_os = "linux")]
const TOKEN_WAKEUP: u64 = u64::MAX - 1;

/// What rouses a blocked poll (see [`SocketDriver::waker`]).
type Waker = Arc<dyn Fn() + Send + Sync>;

/// How a pass waits and what it visits. An enum rather than a trait:
/// there are exactly two sources, and nothing outside this module adds
/// one.
enum Readiness {
    /// Blocks in `epoll_wait` until the kernel reports an accept,
    /// readable bytes, writable room on a connection that owes bytes, or
    /// a wakeup. An idle daemon parks here and burns (almost) no CPU.
    #[cfg(target_os = "linux")]
    Epoll {
        ep: Epoll,
        /// The read end of the waker's socketpair.
        wake_rx: UnixStream,
        events: Vec<EpollEvent>,
    },
    /// Visits the listener and every connection nonblockingly each pass,
    /// sleeping an adaptive [`IdleBackoff`] after passes that found no
    /// work. Portable, and needs no wakeups.
    Scan { backoff: IdleBackoff },
}

#[cfg_attr(not(target_os = "linux"), allow(unused_variables))]
impl Readiness {
    /// The epoll source and its waker when `want_epoll` and it sets up,
    /// else the scan source and a waker that does nothing. The epoll
    /// instance and the wakeup pipe are built and pre-registered here,
    /// so any setup failure falls back to scanning instead of refusing
    /// to serve.
    fn select(want_epoll: bool, listener: &RpcListener) -> (Readiness, Waker) {
        #[cfg(target_os = "linux")]
        if want_epoll {
            let setup = || -> io::Result<_> {
                let (wake_tx, wake_rx) = UnixStream::pair()?;
                wake_tx.set_nonblocking(true)?;
                wake_rx.set_nonblocking(true)?;
                let ep = Epoll::new()?;
                ep.add(listener.raw_fd(), EPOLLIN, LISTENER)?;
                ep.add(wake_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKEUP)?;
                Ok((ep, wake_tx, wake_rx))
            };
            if let Ok((ep, wake_tx, wake_rx)) = setup() {
                let source = Readiness::Epoll {
                    ep,
                    wake_rx,
                    events: vec![EpollEvent { events: 0, data: 0 }; 128],
                };
                // A full pipe means the poll is already due to wake; a
                // torn one means the driver is gone. Neither needs action.
                let waker: Waker = Arc::new(move || {
                    let _ = (&wake_tx).write(&[1u8]);
                });
                return (source, waker);
            }
        }
        let source = Readiness::Scan {
            backoff: IdleBackoff::new(PUMP_BACKOFF_FLOOR, PUMP_BACKOFF_CEILING),
        };
        (source, Arc::new(|| {}))
    }

    /// Waits at most `timeout` and fills `ready` with what the pass
    /// visits: [`LISTENER`] or a connection id. `active` says whether
    /// the pass so far, or the one before it, did any work. Returns
    /// whether the wakeup pipe roused the wait.
    fn wait(
        &mut self,
        timeout: Duration,
        active: bool,
        conns: &HashMap<u64, Conn>,
        ready: &mut Vec<u64>,
    ) -> bool {
        ready.clear();
        match self {
            #[cfg(target_os = "linux")]
            Readiness::Epoll {
                ep,
                wake_rx,
                events,
            } => {
                // Round up, so a heartbeat due in 300 µs is not a busy
                // loop of zero-millisecond waits.
                let timeout_ms = timeout.as_micros().div_ceil(1_000).min(i32::MAX as u128) as i32;
                let n = ep.wait(events, timeout_ms).unwrap_or(0);
                let mut woken = false;
                for ev in &events[..n] {
                    // Copy out of the (possibly packed) event record.
                    let (mask, token) = (ev.events, ev.data);
                    if token == TOKEN_WAKEUP {
                        // One read empties the pipe; if wakers outran it,
                        // the level-triggered wait reports it again.
                        woken = true;
                        let _ = (&*wake_rx).read(&mut [0u8; 256]);
                    } else if mask & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
                        // An error or hang-up surfaces as a failed or
                        // empty read. Writable readiness alone needs no
                        // visit: the next pass's write sweep flushes
                        // every connection that owes bytes.
                        ready.push(token);
                    }
                }
                woken
            }
            Readiness::Scan { backoff } => {
                // 300µs responsiveness while traffic flows, doubling
                // toward a 5ms doze across consecutive idle passes so a
                // quiet daemon (or a replica pair of them) doesn't spin
                // cores.
                if let Some(sleep) = backoff.after(active) {
                    std::thread::sleep(sleep.min(timeout));
                }
                ready.push(LISTENER);
                ready.extend(conns.keys());
                false
            }
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
    /// so an idle connection never wakes the poll for writability.
    fn sync_write_interest(&self, id: u64, conn: &mut Conn) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        if let Readiness::Epoll { ep, .. } = self {
            let want = conn.out_bytes > 0;
            if want != conn.want_write {
                let interest = EPOLLIN | EPOLLRDHUP | if want { EPOLLOUT } else { 0 };
                ep.modify(conn.stream.raw_fd(), interest, id)?;
                conn.want_write = want;
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

/// The VQRP [`SocketDriver`]: the listener, every connection and the
/// readiness source. Constructed by [`RpcServer::serve`]; never used
/// directly.
struct ConnDriver {
    listener: RpcListener,
    source: Readiness,
    waker: Waker,
    config: RpcServerConfig,
    conns: HashMap<u64, Conn>,
    /// Next connection id; ids are never reused within a server's
    /// lifetime.
    next_conn: u64,
    counters: RpcMetricsReport,
    /// Whether the last pass accepted or read anything (the scan
    /// source's backoff reads it).
    active: bool,
    /// Reusable frame-encoding scratch: length prefix + payload are
    /// built in place, then cloned once at exactly the framed size.
    encode_buf: Vec<u8>,
    /// Reusable read buffer, decoded in place.
    read_buf: Vec<u8>,
    /// Reusable list of what a pass visits.
    ready: Vec<u64>,
}

impl ConnDriver {
    /// Encodes and queues one frame, unless the connection is gone or
    /// closing. Enforces the hard outbound bound first: past it, the
    /// connection is marked for close instead.
    fn send_frame(&mut self, id: u64, frame: &Frame) {
        let Some(conn) = self.conns.get_mut(&id).filter(|c| !c.close_now) else {
            return;
        };
        if conn.out_bytes > self.config.hard_pending_out_bytes {
            // The reader is too slow to drain even its rejections:
            // drop the connection rather than buffer without bound.
            self.counters.overload_closes += 1;
            conn.close_now = true;
            return;
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
        conn.queue(self.encode_buf.clone());
        let peak = &mut self.counters.peak_pending_out_bytes;
        *peak = (*peak).max(conn.out_bytes as u64);
    }

    /// A peer broke the protocol (bad preamble, oversized or
    /// undecodable frame, reply tag on the inbound side): count it and
    /// mark the connection for close.
    fn decode_error(&mut self, id: u64) {
        self.counters.decode_errors += 1;
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.close_now = true;
        }
    }

    fn handle_frame(&mut self, id: u64, frame: Frame, actions: &mut Vec<DriverAction>) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        match frame {
            Frame::Open { client } => {
                conn.client = Some(client.clone());
                self.send_frame(id, &Frame::OpenAck { client });
            }
            Frame::Submit { token, mut request } => {
                let Some(identity) = conn.client.clone() else {
                    self.send_frame(
                        id,
                        &Frame::Error {
                            token,
                            error: SessionError::Protocol(
                                "submit before open: bind a client identity first".into(),
                            ),
                        },
                    );
                    return;
                };
                let pending = conn.out_bytes;
                if pending > self.config.soft_pending_out_bytes {
                    // Slow-reader backpressure: the typed rejection is
                    // itself small, so it still fits under the hard
                    // bound `send_frame` enforces.
                    self.counters.overload_rejections += 1;
                    self.send_frame(
                        id,
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
                conn.in_flight += 1;
                actions.push(DriverAction::Submit {
                    conn: id,
                    token,
                    request,
                });
            }
            Frame::Poll => {
                let (in_flight, completed) = (conn.in_flight, conn.completed);
                self.send_frame(
                    id,
                    &Frame::PollReply {
                        in_flight,
                        completed,
                    },
                );
            }
            Frame::Metrics { token } => actions.push(DriverAction::Metrics { conn: id, token }),
            Frame::JournalAck { cursor } => {
                conn.replica = true;
                actions.push(DriverAction::ReplicaAck { conn: id, cursor });
            }
            Frame::Shutdown => {
                // Close once the ack has flushed.
                conn.close_after_flush = true;
                self.send_frame(id, &Frame::ShutdownAck);
            }
            // A reply tag on the server's inbound side is a protocol
            // violation.
            Frame::OpenAck { .. }
            | Frame::Outcome { .. }
            | Frame::Error { .. }
            | Frame::PollReply { .. }
            | Frame::MetricsReply { .. }
            | Frame::ShutdownAck
            | Frame::JournalShip { .. } => self.decode_error(id),
        }
    }

    /// Decodes one read's bytes: the preamble first, then every whole
    /// frame they complete.
    fn handle_bytes(&mut self, id: u64, bytes: &[u8], actions: &mut Vec<DriverAction>) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut rest = bytes;
        // The connection owes its preamble before any framing.
        if conn.preamble_buf.len() < PREAMBLE_LEN {
            let need = PREAMBLE_LEN - conn.preamble_buf.len();
            let take = need.min(rest.len());
            conn.preamble_buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if conn.preamble_buf.len() < PREAMBLE_LEN {
                return; // still torn
            }
            let fixed: [u8; PREAMBLE_LEN] =
                conn.preamble_buf.as_slice().try_into().expect("8 bytes");
            if check_preamble(&fixed).is_err() {
                self.decode_error(id);
                return;
            }
        }
        conn.reader.push(rest);
        loop {
            let Some(conn) = self.conns.get_mut(&id).filter(|c| !c.close_now) else {
                return;
            };
            match conn.reader.next_frame() {
                Ok(None) => return,
                Err(_) => {
                    // Oversized length prefix: hostile or corrupt peer.
                    self.decode_error(id);
                    return;
                }
                Ok(Some(payload)) => {
                    self.counters.frames_in += 1;
                    self.counters.bytes_in += payload.len() as u64;
                    let mut input = payload.as_slice();
                    match Frame::decode(&mut input) {
                        // Trailing garbage after a frame body is as
                        // corrupt as a torn one.
                        Some(frame) if input.is_empty() => self.handle_frame(id, frame, actions),
                        _ => {
                            self.decode_error(id);
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Accepts every pending connection; returns how many.
    fn accept_all(&mut self) -> u64 {
        let mut accepted = 0;
        loop {
            match self.listener.accept() {
                Ok(stream) => {
                    let id = self.next_conn;
                    self.next_conn += 1;
                    if self.source.register(&stream, id).is_err() {
                        continue; // dropping the stream resets the peer
                    }
                    accepted += 1;
                    let mut conn = Conn::new(stream, self.config.max_frame_bytes);
                    // The server announces itself first; the client may
                    // already be pipelining its own preamble + frames.
                    conn.queue(preamble().to_vec());
                    let peak = &mut self.counters.peak_pending_out_bytes;
                    *peak = (*peak).max(conn.out_bytes as u64);
                    self.conns.insert(id, conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (peer reset mid-handshake):
                // nothing to clean up, keep serving.
                Err(_) => break,
            }
        }
        self.counters.connections_accepted += accepted;
        accepted
    }

    /// Reads a connection up to the per-pass budget, decoding each read
    /// in place; returns how many reads returned bytes. End of stream
    /// or an error marks the connection for close.
    fn read_from(&mut self, id: u64, buf: &mut [u8], actions: &mut Vec<DriverAction>) -> u64 {
        let (mut reads, mut total) = (0, 0);
        // Past the budget the fd stays ready; the next pass resumes it.
        while total < READ_BUDGET_PER_PASS {
            let Some(conn) = self.conns.get_mut(&id).filter(|c| !c.close_now) else {
                break;
            };
            match conn.stream.read(buf) {
                Ok(0) => conn.close_now = true,
                Ok(n) => {
                    reads += 1;
                    total += n;
                    self.handle_bytes(id, &buf[..n], actions);
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => conn.close_now = true,
            }
            break;
        }
        reads
    }

    /// Closes every connection marked for close; returns how many. A
    /// follower's close tells the reactor to drop its cursor.
    fn close_marked(&mut self, actions: &mut Vec<DriverAction>) -> u64 {
        let before = self.conns.len();
        let source = &self.source;
        self.conns.retain(|&id, conn| {
            if !conn.close_now {
                return true;
            }
            source.deregister(&conn.stream);
            if conn.replica {
                actions.push(DriverAction::ReplicaGone { conn: id });
            }
            false
        });
        let closed = (before - self.conns.len()) as u64;
        self.counters.connections_closed += closed;
        closed
    }
}

impl SocketDriver for ConnDriver {
    fn poll(&mut self, timeout: Duration, actions: &mut Vec<DriverAction>) -> u64 {
        self.counters.pump_passes += 1;
        // 1. Write what earlier calls queued; a flushed goodbye or a
        // failed write marks its connection for close.
        let mut active = self.active;
        for (&id, conn) in self.conns.iter_mut() {
            if conn.out_bytes > 0 {
                match conn.flush_some() {
                    Ok(progressed) => active |= progressed,
                    Err(_) => conn.close_now = true,
                }
            }
            if conn.close_after_flush && conn.out_bytes == 0 {
                conn.close_now = true;
            }
            if !conn.close_now && self.source.sync_write_interest(id, conn).is_err() {
                conn.close_now = true;
            }
        }
        // 2. Close what is marked: hang-ups and errors from the last
        // pass, protocol violations and hard-bound closes since.
        let closed = self.close_marked(actions);
        // 3. Wait, then accept, read and decode what the source reports.
        let mut ready = std::mem::take(&mut self.ready);
        let mut buf = std::mem::take(&mut self.read_buf);
        if self.source.wait(timeout, active, &self.conns, &mut ready) {
            self.counters.pump_wakeups += 1;
        }
        let mut busy = 0;
        for &token in &ready {
            busy += match token {
                LISTENER => self.accept_all(),
                conn => self.read_from(conn, &mut buf, actions),
            };
        }
        self.ready = ready;
        self.read_buf = buf;
        self.active = busy > 0;
        closed + busy
    }

    fn waker(&self) -> Waker {
        Arc::clone(&self.waker)
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
        RpcMetricsReport {
            connections_open: self.conns.len() as u64,
            // Called on the reactor thread, which runs every pass.
            pump_cpu_micros: readiness::thread_cpu_micros(),
            ..self.counters
        }
    }
}

/// A serving RPC front-end: its driver's attachment to the service.
/// Dropping it (or [`RpcServer::stop`]) detaches the driver, which
/// closes every connection and the listener.
#[derive(Debug)]
pub struct RpcServer {
    driver: Option<DriverHandle>,
    addr: String,
}

impl RpcServer {
    /// Attaches a VQRP driver for `listener` to `service`'s reactor. The
    /// service keeps working for in-process callers exactly as before;
    /// remote sessions share its admission, fairness, and quota path,
    /// and their socket I/O runs on the reactor thread.
    ///
    /// On Linux the reactor waits in `epoll` readiness by default; set
    /// `VAQEM_RPC_PUMP=poll` to force the portable scan source with its
    /// adaptive idle sleep (`VAQEM_RPC_PUMP=epoll` asks for readiness
    /// explicitly, and falls back to scanning where epoll is unavailable
    /// or fails to set up). Either way the same pass speaks the same
    /// protocol.
    ///
    /// # Errors
    ///
    /// I/O errors switching the listener to nonblocking mode.
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
        let want_epoll = match std::env::var("VAQEM_RPC_PUMP").as_deref() {
            Ok("poll") => false,
            Ok("epoll") => true,
            _ => cfg!(target_os = "linux"),
        };
        let (source, waker) = Readiness::select(want_epoll, &listener);
        let driver = ConnDriver {
            listener,
            source,
            waker,
            config,
            conns: HashMap::new(),
            next_conn: 1,
            counters: RpcMetricsReport::default(),
            active: false,
            encode_buf: Vec::new(),
            read_buf: vec![0u8; 64 << 10],
            ready: Vec::new(),
        };
        Ok(RpcServer {
            driver: Some(service.attach_socket_driver(Box::new(driver))),
            addr,
        })
    }

    /// The bound address: `ip:port` for TCP, the socket path for Unix.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Stops serving: detaches the driver and waits until the reactor
    /// has dropped it, closing every connection and the listener.
    /// Sessions already dispatched keep running in the service; their
    /// results are dropped at delivery (the connections are gone).
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        if let Some(driver) = self.driver.take() {
            driver.detach();
        }
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
        let mut conn = Conn::new(Stream::Unix(a), 1 << 20);

        let chunks: [&[u8]; 3] = [b"alpha", b"beta", b"gamma"];
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        for c in chunks {
            conn.queue(c.to_vec());
        }
        assert_eq!(conn.out_bytes, total);

        assert!(conn.flush_some().unwrap());
        assert_eq!(conn.out_bytes, 0, "small burst flushes in one pass");

        let mut got = vec![0u8; total];
        b.read_exact(&mut got).unwrap();
        assert_eq!(got, b"alphabetagamma", "stream order preserved");
    }

    #[test]
    fn conn_io_flushes_bursts_wider_than_one_vectored_write() {
        let (a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(Stream::Unix(a), 1 << 20);

        // More chunks than MAX_WRITE_SLICES: the flush loop must issue
        // several vectored writes and retire chunks across them.
        let count = MAX_WRITE_SLICES * 2 + 5;
        let mut expect = Vec::new();
        for i in 0..count {
            let chunk = vec![(i % 251) as u8; 17];
            expect.extend_from_slice(&chunk);
            conn.queue(chunk);
        }
        assert_eq!(conn.out_bytes, expect.len());

        assert!(conn.flush_some().unwrap());
        assert_eq!(conn.out_bytes, 0);

        let mut got = vec![0u8; expect.len()];
        b.read_exact(&mut got).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn conn_io_empty_queue_is_a_noop_flush() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(Stream::Unix(a), 1 << 20);
        conn.queue(Vec::new()); // empty sends queue nothing
        assert_eq!(conn.out_bytes, 0);
        assert!(!conn.flush_some().unwrap(), "nothing to write");
    }
}
