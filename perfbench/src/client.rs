//! A minimal VQRP client over a Unix socket that timestamps each reply
//! frame as it is read. `RpcClient::await_result` buffers replies that
//! arrive for other tokens until they are asked for, which would book
//! that wait as latency.

use std::ffi::{c_long, c_ulong, c_void};
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use vaqem_fleet_rpc::{check_preamble, preamble, Frame, PREAMBLE_LEN};
use vaqem_runtime::persist::Codec;
use vaqem_runtime::wire::FrameReader;

/// Largest reply frame accepted (metrics replies carry a JSON report).
const MAX_FRAME: usize = 4 << 20;
/// How long connecting and saying goodbye may wait for the server.
const HANDSHAKE: Duration = Duration::from_secs(10);

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

/// `struct timespec` (64-bit Linux layout).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> i32;
}

/// Waits until `fd` is readable or `wait` passes, at high-resolution
/// timer precision. A socket read timeout counts in scheduler ticks
/// (milliseconds), too coarse to send on sub-millisecond due times.
fn wait_readable(fd: RawFd, wait: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: wait.as_secs().try_into().unwrap_or(c_long::MAX),
        // Below 10^9, so it fits any `long`.
        tv_nsec: wait.subsec_nanos() as c_long,
    };
    // SAFETY: `pfd` and `timeout` are live, initialised `struct pollfd`
    // and `struct timespec` values for the whole call, `nfds` is 1 to
    // match the single record, and a null `sigmask` leaves the signal
    // mask unchanged.
    let ready = unsafe { ppoll(&mut pfd, 1, &timeout, std::ptr::null()) };
    match ready {
        0 => Ok(false),
        n if n > 0 => Ok(true),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// One connection, bound to one client identity.
pub struct Conn {
    stream: UnixStream,
    reader: FrameReader,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects, exchanges preambles and binds `client` as the
    /// connection's identity.
    pub fn connect(path: &Path, client: &str) -> io::Result<Conn> {
        let mut stream = UnixStream::connect(path)?;
        stream.write_all(&preamble())?;
        let mut theirs = [0u8; PREAMBLE_LEN];
        stream.set_read_timeout(Some(HANDSHAKE))?;
        stream.read_exact(&mut theirs)?;
        check_preamble(&theirs).map_err(|e| invalid(e.to_string()))?;
        // Reads from here on follow `wait_readable`, so they never block.
        stream.set_read_timeout(None)?;
        let mut conn = Conn {
            stream,
            reader: FrameReader::new(MAX_FRAME),
            buf: vec![0; 64 << 10],
        };
        conn.send(&Frame::Open {
            client: client.to_string(),
        })?;
        match conn.recv_until(Instant::now() + HANDSHAKE)? {
            Some(Frame::OpenAck { .. }) => Ok(conn),
            other => Err(invalid(format!("expected OpenAck, got {other:?}"))),
        }
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.send_wire(&frame.to_wire())
    }

    /// Sends bytes already encoded with `Frame::to_wire`.
    pub fn send_wire(&mut self, wire: &[u8]) -> io::Result<()> {
        self.stream.write_all(wire)
    }

    /// The next server frame, or `None` once `deadline` passes first.
    pub fn recv_until(&mut self, deadline: Instant) -> io::Result<Option<Frame>> {
        loop {
            if let Some(payload) = self
                .reader
                .next_frame()
                .map_err(|e| invalid(e.to_string()))?
            {
                let mut input = payload.as_slice();
                return Frame::decode(&mut input)
                    .filter(|_| input.is_empty())
                    .map(Some)
                    .ok_or_else(|| invalid("undecodable server frame".into()));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            if !wait_readable(self.stream.as_raw_fd(), deadline - now)? {
                continue;
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.reader.push(&self.buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Says goodbye and waits (boundedly) for the server's ack.
    pub fn close(mut self) {
        if self.send(&Frame::Shutdown).is_ok() {
            let deadline = Instant::now() + HANDSHAKE;
            while let Ok(Some(frame)) = self.recv_until(deadline) {
                if frame == Frame::ShutdownAck {
                    break;
                }
            }
        }
    }
}
